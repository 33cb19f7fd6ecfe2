package hypergraph

import (
	"mediumgrain/internal/sparse"
)

// The three classical matrix-to-hypergraph translations of Çatalyürek and
// Aykanat, as reviewed in §II of the paper. Each returns the hypergraph
// plus whatever mapping is needed to turn a vertex partition back into a
// nonzero partition of the matrix.
//
// Every model has an *Indexed variant taking a caller-built CSR/CSC
// index and an optional build Scratch: hot paths (one model per
// recursive-bisection node) index the subproblem once, share that index
// between the model build and the metric evaluation, and reuse one
// Scratch per worker, so the per-node cost is O(nnz) data movement
// instead of fresh O(Rows+Cols+nnz) allocations. The plain entry points
// build a private index and allocate, which is fine for one-shot use.

// RowNet builds the 1D row-net (column-wise) model of A: one vertex per
// matrix column (weight = nonzeros in that column), one net per matrix
// row containing the columns with a nonzero in that row. Assigning vertex
// j to part k assigns all nonzeros of column j to part k; rows may be
// cut, columns never are.
func RowNet(a *sparse.Matrix) *Hypergraph {
	return RowNetIndexed(a, nil, nil)
}

// RowNetIndexed is RowNet reusing a caller-built row index (nil builds
// one) and a build Scratch (nil allocates fresh).
func RowNetIndexed(a *sparse.Matrix, rix *sparse.RowIndex, sc *Scratch) *Hypergraph {
	if rix == nil {
		rix = sparse.BuildRowIndex(a)
	}
	wt := sc.Weights(a.Cols)
	for _, j := range a.ColIdx {
		wt[j]++
	}
	b := sc.Builder(a.Cols, wt)
	pins := make([]int32, 0, 64)
	for i := 0; i < a.Rows; i++ {
		pins = pins[:0]
		last := int32(-1)
		for _, k := range rix.Row(i) {
			j := int32(a.ColIdx[k])
			if j == last {
				continue // duplicate guard for non-canonical input
			}
			pins = appendPinUnique(pins, j)
			last = j
		}
		b.AddNet(pins)
	}
	return b.Build()
}

// ColNet builds the 1D column-net (row-wise) model: one vertex per
// matrix row, one net per matrix column. The build reads the CSC index
// of a directly — no transpose is materialized — and yields exactly the
// hypergraph that RowNet(a.Transpose()) produced before.
func ColNet(a *sparse.Matrix) *Hypergraph {
	return ColNetIndexed(a, nil, nil)
}

// ColNetIndexed is ColNet reusing a caller-built column index and build
// Scratch.
func ColNetIndexed(a *sparse.Matrix, cix *sparse.ColIndex, sc *Scratch) *Hypergraph {
	if cix == nil {
		cix = sparse.BuildColIndex(a)
	}
	wt := sc.Weights(a.Rows)
	for _, i := range a.RowIdx {
		wt[i]++
	}
	b := sc.Builder(a.Rows, wt)
	pins := make([]int32, 0, 64)
	for j := 0; j < a.Cols; j++ {
		pins = pins[:0]
		last := int32(-1)
		for _, k := range cix.Col(j) {
			i := int32(a.RowIdx[k])
			if i == last {
				continue
			}
			pins = appendPinUnique(pins, i)
			last = i
		}
		b.AddNet(pins)
	}
	return b.Build()
}

// appendPinUnique appends p if not already present (linear scan; nets
// from canonical matrices never trigger the scan past one element).
func appendPinUnique(pins []int32, p int32) []int32 {
	for _, q := range pins {
		if q == p {
			return pins
		}
	}
	return append(pins, p)
}

// FineGrain builds the 2D fine-grain model: one vertex per nonzero
// (weight 1), one net per row plus one net per column. Vertex k
// corresponds to the k-th nonzero of A, so a vertex partition is already
// a nonzero partition.
func FineGrain(a *sparse.Matrix) *Hypergraph {
	return FineGrainIndexed(a, nil, nil)
}

// FineGrainIndexed is FineGrain reusing a caller-built index and build
// Scratch.
func FineGrainIndexed(a *sparse.Matrix, ix *sparse.Index, sc *Scratch) *Hypergraph {
	if ix == nil {
		ix = sparse.NewIndex(a)
	}
	n := a.NNZ()
	wt := sc.Weights(n)
	for k := range wt {
		wt[k] = 1
	}
	b := sc.Builder(n, wt)
	for i := 0; i < a.Rows; i++ {
		b.AddNet(ix.Row.Row(i))
	}
	for j := 0; j < a.Cols; j++ {
		b.AddNet(ix.Col.Col(j))
	}
	return b.Build()
}

// VertexPartsToNonzeros converts a row-net vertex (=column) partition
// into a per-nonzero partition of A.
func VertexPartsToNonzeros(a *sparse.Matrix, colParts []int) []int {
	parts := make([]int, a.NNZ())
	for k, j := range a.ColIdx {
		parts[k] = colParts[j]
	}
	return parts
}

// RowPartsToNonzeros converts a column-net vertex (=row) partition into a
// per-nonzero partition of A.
func RowPartsToNonzeros(a *sparse.Matrix, rowParts []int) []int {
	parts := make([]int, a.NNZ())
	for k, i := range a.RowIdx {
		parts[k] = rowParts[i]
	}
	return parts
}
