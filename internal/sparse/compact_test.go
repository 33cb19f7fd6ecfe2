package sparse

import (
	"math/rand"
	"slices"
	"testing"
)

// randomCanonical builds a canonical random pattern with the given
// shape; some rows/columns are left deliberately empty.
func randomCanonical(rng *rand.Rand, rows, cols, tries int) *Matrix {
	a := New(rows, cols)
	for t := 0; t < tries; t++ {
		a.AppendPattern(rng.Intn(rows), rng.Intn(cols))
	}
	a.Canonicalize()
	return a
}

// randomSubset picks a sorted subset of the nonzero positions.
func randomSubset(rng *rand.Rand, nnz int) []int {
	var subset []int
	for k := 0; k < nnz; k++ {
		if rng.Intn(3) != 0 {
			subset = append(subset, k)
		}
	}
	return subset
}

func checkCompact(t *testing.T, a *Matrix, subset []int, c Compact) {
	t.Helper()
	sub := c.A
	if sub.NNZ() != len(subset) {
		t.Fatalf("compact nnz %d != subset size %d", sub.NNZ(), len(subset))
	}
	if len(c.NzOf) != len(subset) {
		t.Fatalf("NzOf length %d != subset size %d", len(c.NzOf), len(subset))
	}
	// Back-maps recover the original coordinates of every nonzero.
	for s, k := range c.NzOf {
		if k != subset[s] {
			t.Fatalf("NzOf[%d] = %d, want %d", s, k, subset[s])
		}
		if got, want := int(c.RowOf[sub.RowIdx[s]]), a.RowIdx[k]; got != want {
			t.Fatalf("nonzero %d: RowOf maps to row %d, original is %d", s, got, want)
		}
		if got, want := int(c.ColOf[sub.ColIdx[s]]), a.ColIdx[k]; got != want {
			t.Fatalf("nonzero %d: ColOf maps to col %d, original is %d", s, got, want)
		}
	}
	// No empty rows or columns: every compact id is hit at least once.
	rowHit := make([]bool, sub.Rows)
	colHit := make([]bool, sub.Cols)
	for s := range sub.RowIdx {
		rowHit[sub.RowIdx[s]] = true
		colHit[sub.ColIdx[s]] = true
	}
	for i, hit := range rowHit {
		if !hit {
			t.Fatalf("compact row %d is empty", i)
		}
	}
	for j, hit := range colHit {
		if !hit {
			t.Fatalf("compact column %d is empty", j)
		}
	}
	// Order preservation: the back-maps are strictly increasing.
	for i := 1; i < len(c.RowOf); i++ {
		if c.RowOf[i-1] >= c.RowOf[i] {
			t.Fatalf("RowOf not strictly increasing at %d", i)
		}
	}
	for j := 1; j < len(c.ColOf); j++ {
		if c.ColOf[j-1] >= c.ColOf[j] {
			t.Fatalf("ColOf not strictly increasing at %d", j)
		}
	}
	// Subsets of a canonical matrix stay duplicate-free and valid.
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := sub.CheckDuplicates(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactSubmatrixRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		a := randomCanonical(rng, 2+rng.Intn(40), 2+rng.Intn(40), 1+rng.Intn(120))
		subset := randomSubset(rng, a.NNZ())
		checkCompact(t, a, subset, CompactSubmatrix(a, subset))
	}
}

func TestCompactorReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var cpt Compactor
	// Interleave matrices of different shapes so the reused dense maps
	// must grow and re-mark correctly across calls.
	for trial := 0; trial < 80; trial++ {
		a := randomCanonical(rng, 2+rng.Intn(60), 2+rng.Intn(25), 1+rng.Intn(150))
		subset := randomSubset(rng, a.NNZ())
		got := cpt.Compact(a, subset)
		checkCompact(t, a, subset, got)

		want := CompactSubmatrix(a, subset)
		if !Equal(got.A, want.A) {
			t.Fatalf("trial %d: reused compactor disagrees with fresh extraction", trial)
		}
	}
}

func TestCompactSubmatrixEmptyAndFull(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomCanonical(rng, 10, 10, 40)

	empty := CompactSubmatrix(a, nil)
	if empty.A.Rows != 0 || empty.A.Cols != 0 || empty.A.NNZ() != 0 {
		t.Fatalf("empty subset produced %v", empty.A)
	}

	all := make([]int, a.NNZ())
	for k := range all {
		all[k] = k
	}
	full := CompactSubmatrix(a, all)
	checkCompact(t, a, all, full)
	// The full subset keeps every occupied row/column; on a matrix with
	// no empty rows/columns the compact matrix equals the original.
	hasEmpty := false
	for _, c := range a.RowCounts() {
		if c == 0 {
			hasEmpty = true
		}
	}
	for _, c := range a.ColCounts() {
		if c == 0 {
			hasEmpty = true
		}
	}
	if !hasEmpty && !Equal(full.A, a) {
		t.Fatal("full-subset compaction of a dense-support matrix changed the pattern")
	}
}

func TestIndexResetMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var ix Index
	for trial := 0; trial < 40; trial++ {
		a := randomCanonical(rng, 1+rng.Intn(50), 1+rng.Intn(50), rng.Intn(200))
		ix.Reset(a)
		wantRow := BuildRowIndex(a)
		wantCol := BuildColIndex(a)
		for i := 0; i < a.Rows; i++ {
			if !slices.Equal(ix.Row.Row(i), wantRow.Row(i)) {
				t.Fatalf("trial %d: row %d differs after Reset", trial, i)
			}
		}
		for j := 0; j < a.Cols; j++ {
			if !slices.Equal(ix.Col.Col(j), wantCol.Col(j)) {
				t.Fatalf("trial %d: col %d differs after Reset", trial, j)
			}
		}
	}
}
