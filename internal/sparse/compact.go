package sparse

import "slices"

// Compact is a compacted view of a subproblem: the nonzeros selected
// from a parent matrix, relabeled onto the occupied rows and columns
// only, together with the back-maps needed to translate results to the
// parent's coordinates. Recursive bisection extracts one per tree node;
// compaction makes the per-node work O(nnz(sub)) instead of
// O(Rows+Cols) of the parent.
//
// The relabeling is order preserving: compact row r corresponds to the
// (r+1)-th occupied original row in increasing original order, and the
// nonzeros keep the order of the selecting subset. Because of that, the
// nonzero-vertex hypergraph models (medium-grain, fine-grain) built from
// the view are identical, up to harmless empty nets, to the models built
// from a full-dimension copy.
type Compact struct {
	// A is the compact matrix: A.Rows/A.Cols are the occupied counts.
	A *Matrix
	// RowOf maps a compact row id to the original row id; len A.Rows.
	RowOf []int32
	// ColOf maps a compact column id to the original column id.
	ColOf []int32
	// NzOf maps a compact nonzero position to the original COO position
	// in the parent matrix. It aliases the subset passed to Compact.
	NzOf []int
}

// Compactor extracts Compact views, reusing its internal buffers across
// calls: the dense original→compact id maps are epoch-marked (no O(dims)
// clearing) and the compact matrix backing arrays are recycled. One
// Compactor per worker makes repeated extraction allocation-free in the
// steady state.
//
// The returned view aliases the Compactor's buffers, so it is valid only
// until the next Compact call on the same Compactor. Not safe for
// concurrent use; give each goroutine its own Compactor.
type Compactor struct {
	rowMark, colMark []uint32 // epoch marks, indexed by original id
	rowID, colID     []int32  // original id -> compact id (valid when marked)
	epoch            uint32
	rowOf, colOf     []int32
	mat              Matrix
}

// CompactSubmatrix extracts the nonzeros of a listed in subset
// (positions into a's COO arrays) into a freshly allocated compact view.
// Callers extracting repeatedly should hold a Compactor instead.
func CompactSubmatrix(a *Matrix, subset []int) Compact {
	var c Compactor
	return c.Compact(a, subset)
}

// Compact extracts the nonzeros of a listed in subset into a compact
// view backed by the Compactor's reusable buffers. See Compactor for the
// aliasing contract; NzOf aliases subset.
func (c *Compactor) Compact(a *Matrix, subset []int) Compact {
	c.bumpEpoch()
	c.rowMark, c.rowID = growMarks(c.rowMark, c.rowID, a.Rows)
	c.colMark, c.colID = growMarks(c.colMark, c.colID, a.Cols)

	// Collect the occupied original ids, then sort for the
	// order-preserving relabel; O(nnz + r log r + c log c).
	c.rowOf = c.rowOf[:0]
	c.colOf = c.colOf[:0]
	for _, k := range subset {
		if i := a.RowIdx[k]; c.rowMark[i] != c.epoch {
			c.rowMark[i] = c.epoch
			c.rowOf = append(c.rowOf, int32(i))
		}
		if j := a.ColIdx[k]; c.colMark[j] != c.epoch {
			c.colMark[j] = c.epoch
			c.colOf = append(c.colOf, int32(j))
		}
	}
	slices.Sort(c.rowOf)
	slices.Sort(c.colOf)
	for r, i := range c.rowOf {
		c.rowID[i] = int32(r)
	}
	for r, j := range c.colOf {
		c.colID[j] = int32(r)
	}

	c.mat.Rows = len(c.rowOf)
	c.mat.Cols = len(c.colOf)
	c.mat.RowIdx = Resize(c.mat.RowIdx, len(subset))
	c.mat.ColIdx = Resize(c.mat.ColIdx, len(subset))
	c.mat.Val = nil
	for t, k := range subset {
		c.mat.RowIdx[t] = int(c.rowID[a.RowIdx[k]])
		c.mat.ColIdx[t] = int(c.colID[a.ColIdx[k]])
	}
	return Compact{A: &c.mat, RowOf: c.rowOf, ColOf: c.colOf, NzOf: subset}
}

// bumpEpoch advances the mark epoch, clearing the mark arrays on the
// (practically unreachable) wraparound so stale marks can never alias a
// live epoch.
func (c *Compactor) bumpEpoch() {
	if c.epoch == ^uint32(0) {
		clear(c.rowMark)
		clear(c.colMark)
		c.epoch = 0
	}
	c.epoch++
}

// growMarks extends the dense map arrays to cover n original ids. New
// entries are zero, which no live epoch equals (epochs start at 1).
func growMarks(mark []uint32, id []int32, n int) ([]uint32, []int32) {
	if len(mark) >= n {
		return mark, id
	}
	grown := make([]uint32, n)
	copy(grown, mark)
	ids := make([]int32, n)
	copy(ids, id)
	return grown, ids
}
