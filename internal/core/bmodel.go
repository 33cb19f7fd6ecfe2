package core

import (
	"fmt"

	"mediumgrain/internal/hypergraph"
	"mediumgrain/internal/sparse"
)

// BModel is the composite hypergraph model of §III-A: given the split
// A = Ar + Ac, the matrix
//
//	B = [ I_n   (Ar)^T ]
//	    [ Ac    I_m    ]
//
// is translated with the row-net model. Vertices are the columns of B —
// column j < n represents column j of Ac, column n+i represents row i of
// Ar — with weight equal to the number of (non-dummy) nonzeros they own.
// Net j (j < n) is row j of B and captures the communication of matrix
// column j: it joins vertex j (via the dummy diagonal) with every vertex
// n+i for which a_ij ∈ Ar. Net n+i captures matrix row i symmetrically.
//
// Columns/rows of B holding only the dummy diagonal are pruned (they do
// not influence the partitioning of A; see the paper's remark after the
// volume-equivalence proof), so vertex ids are compacted.
type BModel struct {
	A     *sparse.Matrix
	InRow []bool // the split: true ⇒ nonzero lives in Ar
	H     *hypergraph.Hypergraph

	// VertexOf maps a B-column id (j for columns of Ac, n+i for rows of
	// Ar) to a compact hypergraph vertex, or -1 when pruned.
	VertexOf []int32
	// OrigOf maps a compact vertex back to its B-column id.
	OrigOf []int32
}

// BuildBModel constructs the composite hypergraph for the given split,
// on a scratch of its own; the model keeps a copy of inRow.
func BuildBModel(a *sparse.Matrix, inRow []bool) (*BModel, error) {
	sc := new(scratch)
	bm, err := buildBModel(a, inRow, sc.index(a), sc)
	if err != nil {
		return nil, err
	}
	bm.InRow = append([]bool(nil), inRow...)
	return bm, nil
}

// buildBModel is BuildBModel reusing a caller-built index ix of a and
// drawing every assembly buffer from sc. The model aliases sc's buffers
// and inRow, so it is valid only until sc's next use; that is the
// lifetime of one bisection node or refinement round.
func buildBModel(a *sparse.Matrix, inRow []bool, ix *sparse.Index, sc *scratch) (*BModel, error) {
	if len(inRow) != a.NNZ() {
		return nil, fmt.Errorf("core: split length %d != nnz %d", len(inRow), a.NNZ())
	}
	m, n := a.Rows, a.Cols

	// Weights: vertex j < n owns the Ac nonzeros of column j; vertex n+i
	// owns the Ar nonzeros of row i. (The dummy diagonal of B is
	// excluded, matching "nzc(j)−1" in the paper.)
	origWt := sc.int64Buf(n + m)
	for k := range a.RowIdx {
		if inRow[k] {
			origWt[n+a.RowIdx[k]]++
		} else {
			origWt[a.ColIdx[k]]++
		}
	}

	// Compact away zero-weight (dummy-only) vertices.
	vertexOf, origOf := sc.vertexBufs(n + m)
	for o := range origWt {
		if origWt[o] > 0 {
			vertexOf[o] = int32(len(origOf))
			origOf = append(origOf, int32(o))
		} else {
			vertexOf[o] = -1
		}
	}
	sc.origOf = origOf
	wt := sc.hb.Weights(len(origOf))
	for v, o := range origOf {
		wt[v] = origWt[o]
	}

	b := sc.hb.Builder(len(origOf), wt)

	// Net j (j < n): vertex j plus {n+i : a_ij ∈ Ar}. Build pin lists by
	// bucketing the Ar nonzeros per column and Ac nonzeros per row.
	pins := make([]int32, 0, 64)
	for j := 0; j < n; j++ {
		pins = pins[:0]
		if v := vertexOf[j]; v >= 0 {
			pins = append(pins, v)
		}
		for _, k := range ix.Col.Col(j) {
			if inRow[k] {
				pins = append(pins, vertexOf[n+a.RowIdx[k]])
			}
		}
		if len(pins) >= 2 {
			b.AddNet(dedupPins(pins))
		} else {
			b.AddNet(nil) // keep net ids aligned with rows of B
		}
	}
	for i := 0; i < m; i++ {
		pins = pins[:0]
		if v := vertexOf[n+i]; v >= 0 {
			pins = append(pins, v)
		}
		for _, k := range ix.Row.Row(i) {
			if !inRow[k] {
				pins = append(pins, vertexOf[a.ColIdx[k]])
			}
		}
		if len(pins) >= 2 {
			b.AddNet(dedupPins(pins))
		} else {
			b.AddNet(nil)
		}
	}

	return &BModel{
		A:        a,
		InRow:    inRow,
		H:        b.Build(),
		VertexOf: vertexOf,
		OrigOf:   origOf,
	}, nil
}

// dedupPins removes adjacent duplicates in-place; pins from a single
// column/row of a canonical matrix contain each vertex at most once plus
// possibly the leading dummy pin, so a simple scan suffices.
func dedupPins(pins []int32) []int32 {
	out := pins[:0]
	for _, p := range pins {
		dup := false
		for _, q := range out {
			if q == p {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, p)
		}
	}
	return out
}

// NonzeroParts converts a vertex partition of the B hypergraph into a
// per-nonzero partition of A per eqn (5): an Ar nonzero a_ij follows
// vertex n+i, an Ac nonzero follows vertex j.
func (bm *BModel) NonzeroParts(vertParts []int) []int {
	a := bm.A
	n := a.Cols
	parts := make([]int, a.NNZ())
	for k := range a.RowIdx {
		var orig int
		if bm.InRow[k] {
			orig = n + a.RowIdx[k]
		} else {
			orig = a.ColIdx[k]
		}
		parts[k] = vertParts[bm.VertexOf[orig]]
	}
	return parts
}

// SeedFromNonzeroParts produces the vertex partition of the B hypergraph
// induced by an existing partition of A's nonzeros. It requires each
// vertex's nonzeros to live in a single part — which holds by
// construction during iterative refinement, where Ar = A0 and Ac = A1 (or
// vice versa). An error reports a violating vertex.
func (bm *BModel) SeedFromNonzeroParts(aParts []int) ([]int, error) {
	a := bm.A
	n := a.Cols
	vparts := make([]int, bm.H.NumVerts)
	for v := range vparts {
		vparts[v] = -1
	}
	for k := range a.RowIdx {
		var orig int
		if bm.InRow[k] {
			orig = n + a.RowIdx[k]
		} else {
			orig = a.ColIdx[k]
		}
		v := bm.VertexOf[orig]
		if vparts[v] == -1 {
			vparts[v] = aParts[k]
		} else if vparts[v] != aParts[k] {
			return nil, fmt.Errorf("core: vertex %d (B column %d) spans parts %d and %d",
				v, orig, vparts[v], aParts[k])
		}
	}
	for v := range vparts {
		if vparts[v] == -1 {
			vparts[v] = 0 // unreachable for compacted models; defensive
		}
	}
	return vparts, nil
}
