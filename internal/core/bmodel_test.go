package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mediumgrain/internal/hypergraph"
	"mediumgrain/internal/metrics"
	"mediumgrain/internal/sparse"
)

// fig1Matrix returns the 3x6 matrix of the paper's Fig. 1.
func fig1Matrix() *sparse.Matrix {
	a := sparse.New(3, 6)
	for _, nz := range [][2]int{
		{0, 0}, {0, 2}, {0, 3}, {0, 5},
		{1, 0}, {1, 1}, {1, 3}, {1, 4},
		{2, 1}, {2, 2}, {2, 4}, {2, 5},
	} {
		a.AppendPattern(nz[0], nz[1])
	}
	a.Canonicalize()
	return a
}

func randomSplit(rng *rand.Rand, n int) []bool {
	inRow := make([]bool, n)
	for k := range inRow {
		inRow[k] = rng.Intn(2) == 0
	}
	return inRow
}

func TestBuildBModelShape(t *testing.T) {
	a := fig1Matrix()
	rng := rand.New(rand.NewSource(1))
	inRow := Split(a, SplitNNZ, rng)
	bm, err := BuildBModel(a, inRow)
	if err != nil {
		t.Fatal(err)
	}
	if err := bm.H.Validate(); err != nil {
		t.Fatal(err)
	}
	// at most m+n vertices and exactly m+n nets (the paper's size claim)
	if bm.H.NumVerts > a.Rows+a.Cols {
		t.Fatalf("verts = %d > m+n = %d", bm.H.NumVerts, a.Rows+a.Cols)
	}
	if bm.H.NumNets != a.Rows+a.Cols {
		t.Fatalf("nets = %d, want m+n = %d", bm.H.NumNets, a.Rows+a.Cols)
	}
	// total vertex weight = N (dummies excluded)
	if bm.H.TotalWeight() != int64(a.NNZ()) {
		t.Fatalf("total weight = %d, want %d", bm.H.TotalWeight(), a.NNZ())
	}
}

func TestBuildBModelRejectsBadSplit(t *testing.T) {
	a := fig1Matrix()
	if _, err := BuildBModel(a, make([]bool, 3)); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestBModelPrunesDummyOnlyVertices(t *testing.T) {
	// all nonzeros in Ar: every column vertex j of Ac is dummy-only and
	// must be pruned; the model degenerates to the column-net model.
	a := fig1Matrix()
	inRow := Split(a, SplitAllAr, rand.New(rand.NewSource(1)))
	bm, err := BuildBModel(a, inRow)
	if err != nil {
		t.Fatal(err)
	}
	if bm.H.NumVerts != a.Rows {
		t.Fatalf("all-Ar model has %d vertices, want m = %d", bm.H.NumVerts, a.Rows)
	}
	for j := 0; j < a.Cols; j++ {
		if bm.VertexOf[j] != -1 {
			t.Fatalf("Ac column vertex %d not pruned", j)
		}
	}
}

func TestBModelAllAcEqualsRowNet(t *testing.T) {
	// all nonzeros in Ac: the medium-grain model reduces to the row-net
	// model of A (paper §III-A): same vertex weights, and each matrix-row
	// net contains exactly the columns with a nonzero in that row.
	a := fig1Matrix()
	inRow := Split(a, SplitAllAc, rand.New(rand.NewSource(1)))
	bm, err := BuildBModel(a, inRow)
	if err != nil {
		t.Fatal(err)
	}
	rn := hypergraph.RowNetIndexed(a, sparse.BuildRowIndex(a), new(hypergraph.Scratch))
	if bm.H.NumVerts != rn.NumVerts {
		t.Fatalf("verts %d != rownet %d", bm.H.NumVerts, rn.NumVerts)
	}
	// vertex v of bm corresponds to column OrigOf[v]
	for v := 0; v < bm.H.NumVerts; v++ {
		j := int(bm.OrigOf[v])
		if j >= a.Cols {
			t.Fatalf("unexpected row-group vertex %d", j)
		}
		if bm.H.VertWt[v] != rn.VertWt[j] {
			t.Fatalf("weight mismatch at column %d", j)
		}
	}
	// row nets of bm (ids n..n+m-1) must match row-net model nets
	for i := 0; i < a.Rows; i++ {
		got := map[int32]bool{}
		for _, v := range bm.H.NetPins(a.Cols + i) {
			got[bm.OrigOf[v]] = true
		}
		want := map[int32]bool{}
		for _, v := range rn.NetPins(i) {
			want[v] = true
		}
		if len(got) != len(want) {
			t.Fatalf("row %d net size %d != %d", i, len(got), len(want))
		}
		for v := range want {
			if !got[v] {
				t.Fatalf("row %d net missing column %d", i, v)
			}
		}
	}
}

// TestVolumeEquivalence is the paper's central theorem (eqn (6)): for ANY
// split of A and ANY partition of the B hypergraph's vertices, the λ−1
// cut of the hypergraph equals the communication volume of the induced
// nonzero partitioning of A.
func TestVolumeEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomPattern(rng, 1+rng.Intn(15), 1+rng.Intn(15), 80)
		inRow := randomSplit(rng, a.NNZ())
		bm, err := BuildBModel(a, inRow)
		if err != nil {
			return false
		}
		p := 2 + rng.Intn(3)
		vparts := make([]int, bm.H.NumVerts)
		for v := range vparts {
			vparts[v] = rng.Intn(p)
		}
		aParts := bm.NonzeroParts(vparts)
		return bm.H.ConnectivityMinusOne(vparts, p) == metrics.Volume(a, aParts, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestVolumeEquivalenceAlgorithm1 repeats the theorem check with the
// production split.
func TestVolumeEquivalenceAlgorithm1(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomPattern(rng, 1+rng.Intn(15), 1+rng.Intn(15), 80)
		inRow := Split(a, SplitNNZ, rng)
		bm, err := BuildBModel(a, inRow)
		if err != nil {
			return false
		}
		vparts := make([]int, bm.H.NumVerts)
		for v := range vparts {
			vparts[v] = rng.Intn(2)
		}
		aParts := bm.NonzeroParts(vparts)
		return bm.H.ConnectivityMinusOne(vparts, 2) == metrics.Volume(a, aParts, 2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestLoadEquivalence: the number of nonzeros in part k of A equals the
// vertex weight of part k in B (the paper's load-balance remark).
func TestLoadEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomPattern(rng, 1+rng.Intn(12), 1+rng.Intn(12), 60)
		inRow := randomSplit(rng, a.NNZ())
		bm, err := BuildBModel(a, inRow)
		if err != nil {
			return false
		}
		vparts := make([]int, bm.H.NumVerts)
		for v := range vparts {
			vparts[v] = rng.Intn(2)
		}
		aParts := bm.NonzeroParts(vparts)
		wt := bm.H.PartWeights(vparts, 2)
		sizes := metrics.PartSizes(aParts, 2)
		return wt[0] == sizes[0] && wt[1] == sizes[1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSeedFromNonzeroPartsRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomPattern(rng, 1+rng.Intn(12), 1+rng.Intn(12), 60)
		if a.NNZ() == 0 {
			return true
		}
		// IR-style split: parts first, then Ar = part 0, Ac = part 1
		aParts := make([]int, a.NNZ())
		for k := range aParts {
			aParts[k] = rng.Intn(2)
		}
		inRow := make([]bool, a.NNZ())
		for k := range inRow {
			inRow[k] = aParts[k] == 0
		}
		bm, err := BuildBModel(a, inRow)
		if err != nil {
			return false
		}
		vparts, err := bm.SeedFromNonzeroParts(aParts)
		if err != nil {
			return false
		}
		// converting back must reproduce the original partition with the
		// original volume (the paper: "the resulting partitioned matrix B
		// has the same communication volume and load balance")
		back := bm.NonzeroParts(vparts)
		for k := range back {
			if back[k] != aParts[k] {
				return false
			}
		}
		return bm.H.ConnectivityMinusOne(vparts, 2) == metrics.Volume(a, aParts, 2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestSeedFromNonzeroPartsDetectsViolation(t *testing.T) {
	// two nonzeros in one column, both in Ac, different parts: the
	// column vertex cannot be seeded.
	a := sparse.New(2, 1)
	a.AppendPattern(0, 0)
	a.AppendPattern(1, 0)
	a.Canonicalize()
	bm, err := BuildBModel(a, []bool{false, false})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bm.SeedFromNonzeroParts([]int{0, 1}); err == nil {
		t.Fatal("expected seeding violation error")
	}
}

func TestBModelEmptyMatrix(t *testing.T) {
	a := sparse.New(3, 4)
	bm, err := BuildBModel(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bm.H.NumVerts != 0 {
		t.Fatalf("empty matrix model has %d vertices", bm.H.NumVerts)
	}
	if got := bm.NonzeroParts(nil); len(got) != 0 {
		t.Fatal("empty conversion produced parts")
	}
}
