package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mediumgrain/internal/gen"
	"mediumgrain/internal/sparse"
)

// splitNoPostPass is Algorithm 1's scoring rules alone, without the
// one-off post-pass that could otherwise move the nonzero under test.
func splitNoPostPass(a *sparse.Matrix) []bool {
	inRow, _, _ := scoreSplit(a, rand.New(rand.NewSource(1)), a.Rows, a.Cols, nil)
	return inRow
}

func randomPattern(rng *rand.Rand, rows, cols, maxNNZ int) *sparse.Matrix {
	a := sparse.New(rows, cols)
	n := rng.Intn(maxNNZ + 1)
	for k := 0; k < n; k++ {
		a.AppendPattern(rng.Intn(rows), rng.Intn(cols))
	}
	a.Canonicalize()
	return a
}

func TestSplitStrategiesCoverAllNonzeros(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomPattern(rng, 10, 10, 60)
	for _, s := range []SplitStrategy{SplitNNZ, SplitRandom, SplitAllAc, SplitAllAr} {
		inRow := Split(a, s, rng)
		if len(inRow) != a.NNZ() {
			t.Fatalf("%v: split length %d != nnz %d", s, len(inRow), a.NNZ())
		}
	}
}

func TestSplitAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomPattern(rng, 8, 8, 40)
	for _, b := range Split(a, SplitAllAc, rng) {
		if b {
			t.Fatal("SplitAllAc put a nonzero in Ar")
		}
	}
	for _, b := range Split(a, SplitAllAr, rng) {
		if !b {
			t.Fatal("SplitAllAr put a nonzero in Ac")
		}
	}
}

func TestSplitSingletonColumnRule(t *testing.T) {
	// column 1 has a single nonzero at (0,1); row 0 has three nonzeros.
	// Algorithm 1 line 11: nzc(j)=1 => place in Ar.
	a := sparse.New(2, 3)
	a.AppendPattern(0, 0)
	a.AppendPattern(0, 1)
	a.AppendPattern(0, 2)
	a.AppendPattern(1, 0)
	a.AppendPattern(1, 2)
	a.Canonicalize()
	inRow := Split(a, SplitNNZ, rand.New(rand.NewSource(1)))
	for k := range a.RowIdx {
		if a.ColIdx[k] == 1 && !inRow[k] {
			t.Fatal("singleton column nonzero not placed in Ar")
		}
	}
}

func TestSplitSingletonRowRule(t *testing.T) {
	// row 1 has a single nonzero at (1,0); column 0 has three nonzeros.
	a := sparse.New(3, 2)
	a.AppendPattern(0, 0)
	a.AppendPattern(0, 1)
	a.AppendPattern(1, 0)
	a.AppendPattern(2, 0)
	a.AppendPattern(2, 1)
	a.Canonicalize()
	inRow := splitNoPostPass(a)
	for k := range a.RowIdx {
		if a.RowIdx[k] == 1 && a.ColIdx[k] == 0 && inRow[k] {
			t.Fatal("singleton row nonzero not placed in Ac")
		}
	}
}

func TestSplitScoreComparison(t *testing.T) {
	// (0,0): row 0 has 1... use rows/cols with clearly different counts
	// and no singleton triggers. Row 0: 2 nonzeros; column 0: 3.
	a := sparse.New(4, 2)
	a.AppendPattern(0, 0)
	a.AppendPattern(0, 1)
	a.AppendPattern(1, 0)
	a.AppendPattern(1, 1)
	a.AppendPattern(2, 0)
	a.AppendPattern(2, 1)
	a.AppendPattern(3, 0)
	a.AppendPattern(3, 1)
	a.Canonicalize()
	// every row has 2, every column has 4: rows win (sr < sc) => Ar
	inRow := splitNoPostPass(a)
	for k, b := range inRow {
		if !b {
			t.Fatalf("nonzero %d should be in Ar (row score 2 < col score 4)", k)
		}
	}
}

func TestSplitTieGlobalPreference(t *testing.T) {
	// 2x4 all-ones-like pattern: rows have 4, cols have 2 => cols win.
	a := sparse.New(2, 4)
	for i := 0; i < 2; i++ {
		for j := 0; j < 4; j++ {
			a.AppendPattern(i, j)
		}
	}
	a.Canonicalize()
	inRow := splitNoPostPass(a)
	for k, b := range inRow {
		if b {
			t.Fatalf("nonzero %d should be in Ac (col score 2 < row score 4)", k)
		}
	}

	// square all-equal-score matrix: ties go to one global side
	sq := sparse.New(3, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			sq.AppendPattern(i, j)
		}
	}
	sq.Canonicalize()
	inRow = splitNoPostPass(sq)
	first := inRow[0]
	for k, b := range inRow {
		if b != first {
			t.Fatalf("tie nonzero %d not on the global side", k)
		}
	}
}

func TestSplitRectangularTieDirection(t *testing.T) {
	// m > n: ties must go to Ar. A 4x2 matrix whose rows and columns all
	// have 2 nonzeros: rows {0,1} use cols {0,1}, rows {2,3} likewise
	// would make cols have 4. Instead: (0,0),(0,1),(1,0),(1,1) is 2x2 on
	// rows 0,1 — cols get 2 as well with only two rows; we need 4 rows so
	// use two disjoint 2x1 column blocks.
	a := sparse.New(4, 2)
	a.AppendPattern(0, 0)
	a.AppendPattern(0, 1)
	a.AppendPattern(1, 0)
	a.AppendPattern(1, 1)
	a.Canonicalize()
	// rows 0,1 score 2; cols score 2 → tie; m=4 > n=2 → Ar
	inRow := splitNoPostPass(a)
	for k, b := range inRow {
		if !b {
			t.Fatalf("tie nonzero %d should go to Ar for tall matrices", k)
		}
	}
	at := a.Transpose()
	inRow = splitNoPostPass(at)
	for k, b := range inRow {
		if b {
			t.Fatalf("tie nonzero %d should go to Ac for wide matrices", k)
		}
	}
}

func TestOneOffPostPass(t *testing.T) {
	// Row 0 = {(0,0),(0,1),(0,2)}: suppose (0,2) alone lands in Ac while
	// (0,0),(0,1) are in Ar. Post-pass must pull (0,2) into Ar.
	a := sparse.New(1, 3)
	a.AppendPattern(0, 0)
	a.AppendPattern(0, 1)
	a.AppendPattern(0, 2)
	a.Canonicalize()
	inRow := []bool{true, true, false}
	oneOffPostPass(a, inRow, a.RowCounts(), a.ColCounts())
	if !inRow[2] {
		t.Fatal("post-pass did not move the lone Ac nonzero into Ar")
	}

	// Column version.
	b := sparse.New(3, 1)
	b.AppendPattern(0, 0)
	b.AppendPattern(1, 0)
	b.AppendPattern(2, 0)
	b.Canonicalize()
	inRowB := []bool{false, false, true}
	oneOffPostPass(b, inRowB, b.RowCounts(), b.ColCounts())
	if inRowB[2] {
		t.Fatal("post-pass did not move the lone Ar nonzero into Ac")
	}
}

func TestOneOffPostPassSkipsSingletons(t *testing.T) {
	// a single-nonzero row in Ac must NOT be pulled into Ar
	a := sparse.New(1, 1)
	a.AppendPattern(0, 0)
	inRow := []bool{false}
	oneOffPostPass(a, inRow, a.RowCounts(), a.ColCounts())
	if inRow[0] {
		t.Fatal("post-pass moved a singleton row's nonzero")
	}
}

func TestSplitDeterministic(t *testing.T) {
	rng1 := rand.New(rand.NewSource(42))
	rng2 := rand.New(rand.NewSource(42))
	a := randomPattern(rand.New(rand.NewSource(3)), 12, 12, 50)
	s1 := Split(a, SplitNNZ, rng1)
	s2 := Split(a, SplitNNZ, rng2)
	for k := range s1 {
		if s1[k] != s2[k] {
			t.Fatal("split not deterministic for equal seeds")
		}
	}
}

func TestSplitStrategyString(t *testing.T) {
	for _, s := range []SplitStrategy{SplitNNZ, SplitRandom, SplitAllAc, SplitAllAr, SplitStrategy(99)} {
		if s.String() == "" {
			t.Fatal("empty String()")
		}
	}
}

func TestSplitParallelMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomPattern(rng, 2+rng.Intn(20), 2+rng.Intn(20), 150)
		for _, workers := range []int{1, 2, 4, 7} {
			seq := Split(a, SplitNNZ, rand.New(rand.NewSource(seed+100)))
			par := SplitParallel(a, rand.New(rand.NewSource(seed+100)), workers)
			if len(seq) != len(par) {
				return false
			}
			for k := range seq {
				if seq[k] != par[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitParallelDefaultWorkers(t *testing.T) {
	a := gen.Laplacian2D(8, 8)
	inRow := SplitParallel(a, rand.New(rand.NewSource(7)), 0)
	if len(inRow) != a.NNZ() {
		t.Fatal("wrong length")
	}
}

func TestSplitParallelEmpty(t *testing.T) {
	a := randomPattern(rand.New(rand.NewSource(8)), 3, 3, 0)
	if got := SplitParallel(a, rand.New(rand.NewSource(9)), 4); len(got) != a.NNZ() {
		t.Fatal("empty split mishandled")
	}
}
