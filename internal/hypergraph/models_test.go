package hypergraph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mediumgrain/internal/metrics"
	"mediumgrain/internal/sparse"
)

// fig1Matrix returns the 3x6 matrix of the paper's Fig. 1.
func fig1Matrix(t *testing.T) *sparse.Matrix {
	t.Helper()
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

func randomPattern(rng *rand.Rand, rows, cols, maxNNZ int) *sparse.Matrix {
	a := sparse.New(rows, cols)
	n := rng.Intn(maxNNZ + 1)
	for k := 0; k < n; k++ {
		a.AppendPattern(rng.Intn(rows), rng.Intn(cols))
	}
	a.Canonicalize()
	return a
}

func TestRowNetShape(t *testing.T) {
	a := fig1Matrix(t)
	h := RowNetIndexed(a, sparse.BuildRowIndex(a), new(Scratch))
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.NumVerts != a.Cols {
		t.Fatalf("verts = %d, want %d", h.NumVerts, a.Cols)
	}
	if h.NumNets != a.Rows {
		t.Fatalf("nets = %d, want %d", h.NumNets, a.Rows)
	}
	if h.NumPins() != a.NNZ() {
		t.Fatalf("pins = %d, want %d", h.NumPins(), a.NNZ())
	}
	if h.TotalWeight() != int64(a.NNZ()) {
		t.Fatalf("total weight = %d, want %d", h.TotalWeight(), a.NNZ())
	}
	// vertex weight of column j = nonzeros in column j (2 for each here)
	for j := 0; j < a.Cols; j++ {
		if h.VertWt[j] != 2 {
			t.Fatalf("vertex %d weight = %d, want 2", j, h.VertWt[j])
		}
	}
}

func TestColNetShape(t *testing.T) {
	a := fig1Matrix(t)
	h := ColNetIndexed(a, sparse.BuildColIndex(a), new(Scratch))
	if h.NumVerts != a.Rows || h.NumNets != a.Cols {
		t.Fatalf("colnet shape %d verts %d nets", h.NumVerts, h.NumNets)
	}
}

func TestFineGrainShape(t *testing.T) {
	a := fig1Matrix(t)
	h := FineGrainIndexed(a, sparse.NewIndex(a), new(Scratch))
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.NumVerts != a.NNZ() {
		t.Fatalf("verts = %d, want N=%d", h.NumVerts, a.NNZ())
	}
	if h.NumNets != a.Rows+a.Cols {
		t.Fatalf("nets = %d, want m+n=%d", h.NumNets, a.Rows+a.Cols)
	}
	// every nonzero appears in exactly one row net and one column net
	for v := 0; v < h.NumVerts; v++ {
		if h.Degree(v) != 2 {
			t.Fatalf("vertex %d degree = %d, want 2", v, h.Degree(v))
		}
		if h.VertWt[v] != 1 {
			t.Fatalf("vertex %d weight = %d, want 1", v, h.VertWt[v])
		}
	}
}

// TestRowNetCutEqualsVolume: since a row-net partition never cuts
// columns, the λ−1 cut of the hypergraph must equal the full
// communication volume of the induced nonzero partitioning.
func TestRowNetCutEqualsVolume(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomPattern(rng, 1+rng.Intn(12), 1+rng.Intn(12), 60)
		h := RowNetIndexed(a, sparse.BuildRowIndex(a), new(Scratch))
		p := 2 + rng.Intn(3)
		colParts := make([]int, a.Cols)
		for j := range colParts {
			colParts[j] = rng.Intn(p)
		}
		parts := VertexPartsToNonzeros(a, colParts)
		return h.ConnectivityMinusOne(colParts, p) == metrics.Volume(a, parts, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestColNetCutEqualsVolume(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomPattern(rng, 1+rng.Intn(12), 1+rng.Intn(12), 60)
		h := ColNetIndexed(a, sparse.BuildColIndex(a), new(Scratch))
		p := 2 + rng.Intn(3)
		rowParts := make([]int, a.Rows)
		for i := range rowParts {
			rowParts[i] = rng.Intn(p)
		}
		parts := RowPartsToNonzeros(a, rowParts)
		return h.ConnectivityMinusOne(rowParts, p) == metrics.Volume(a, parts, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestFineGrainCutEqualsVolume: the fine-grain model is exact — any
// vertex (= nonzero) partition has hypergraph λ−1 equal to the matrix
// communication volume.
func TestFineGrainCutEqualsVolume(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomPattern(rng, 1+rng.Intn(10), 1+rng.Intn(10), 50)
		h := FineGrainIndexed(a, sparse.NewIndex(a), new(Scratch))
		p := 2 + rng.Intn(3)
		parts := make([]int, a.NNZ())
		for k := range parts {
			parts[k] = rng.Intn(p)
		}
		return h.ConnectivityMinusOne(parts, p) == metrics.Volume(a, parts, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestModelsOnEmptyRowsCols(t *testing.T) {
	// matrix with an empty row and an empty column
	a := sparse.New(3, 3)
	a.AppendPattern(0, 0)
	a.AppendPattern(2, 0)
	a.Canonicalize()
	h := RowNetIndexed(a, sparse.BuildRowIndex(a), new(Scratch))
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.NetSize(1) != 0 {
		t.Fatal("empty row must give empty net")
	}
	if h.VertWt[1] != 0 || h.VertWt[2] != 0 {
		t.Fatal("empty columns must have zero weight")
	}
	fg := FineGrainIndexed(a, sparse.NewIndex(a), new(Scratch))
	if fg.NumVerts != 2 {
		t.Fatalf("fine-grain verts = %d", fg.NumVerts)
	}
}
