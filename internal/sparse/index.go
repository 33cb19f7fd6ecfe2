package sparse

// RowIndex is a CSR-style index over the nonzeros of a Matrix: for each
// row it lists the positions (into the COO slices) of the nonzeros of
// that row. It does not copy coordinates, so it stays valid as long as
// the matrix is not mutated. Positions are int32, half the size of the
// COO arrays they index: the hypergraph models store pins as int32
// already, so a matrix with more nonzeros cannot be partitioned anyway.
type RowIndex struct {
	Ptr []int   // len Rows+1
	Nz  []int32 // len NNZ; indices into the COO arrays, grouped by row
}

// ColIndex is the CSC-style analogue of RowIndex.
type ColIndex struct {
	Ptr []int
	Nz  []int32
}

// BuildRowIndex groups the nonzero positions of a by row using a
// counting sort; O(NNZ + Rows).
func BuildRowIndex(a *Matrix) *RowIndex {
	ix := &RowIndex{}
	ix.Reset(a)
	return ix
}

// Reset rebuilds the index for a in place, reusing the backing arrays
// when they have enough capacity. The previous contents are discarded;
// slices handed out by Row stay valid only until the next Reset.
func (ix *RowIndex) Reset(a *Matrix) {
	ix.Ptr, ix.Nz = buildCompressed(a.RowIdx, a.Rows, ix.Ptr, ix.Nz)
}

// BuildColIndex groups the nonzero positions of a by column.
func BuildColIndex(a *Matrix) *ColIndex {
	ix := &ColIndex{}
	ix.Reset(a)
	return ix
}

// Reset rebuilds the index for a in place, reusing the backing arrays
// when they have enough capacity.
func (ix *ColIndex) Reset(a *Matrix) {
	ix.Ptr, ix.Nz = buildCompressed(a.ColIdx, a.Cols, ix.Ptr, ix.Nz)
}

// buildCompressed is the shared counting sort behind both index
// directions: group the positions of ids (values in [0, n)) into the
// given, possibly reused, Ptr/Nz buckets. The bucket cursor runs inside
// ptr itself — ptr[i] is bumped while filling and the array is shifted
// back afterwards — so no extra per-call scratch is needed.
func buildCompressed(ids []int, n int, ptr []int, nz []int32) ([]int, []int32) {
	ptr = Resize(ptr, n+1)
	clear(ptr)
	nz = Resize(nz, len(ids))
	for _, i := range ids {
		ptr[i+1]++
	}
	for i := 0; i < n; i++ {
		ptr[i+1] += ptr[i]
	}
	for k, i := range ids {
		nz[ptr[i]] = int32(k)
		ptr[i]++
	}
	// Filling advanced ptr[i] to the end of group i; shift back so
	// ptr[i] is the start again.
	for i := n; i > 0; i-- {
		ptr[i] = ptr[i-1]
	}
	ptr[0] = 0
	return ptr, nz
}

// Resize returns s with length n, reusing its backing array when the
// capacity allows. The content is unspecified. It is the shared
// buffer-recycling primitive behind every scratch structure in the
// partitioning stack.
func Resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Index couples the CSR and CSC views of one matrix. Unlike the
// allocate-per-call BuildRowIndex/BuildColIndex pattern, an Index is
// reusable: Reset re-derives both directions in place, so hot paths that
// index a fresh subproblem per tree node reuse one set of buckets
// instead of allocating O(Rows+Cols+NNZ) every call.
type Index struct {
	Row RowIndex
	Col ColIndex
}

// NewIndex builds both directions for a.
func NewIndex(a *Matrix) *Index {
	ix := &Index{}
	ix.Reset(a)
	return ix
}

// Reset rebuilds both directions for a, reusing the backing arrays.
func (ix *Index) Reset(a *Matrix) {
	ix.Row.Reset(a)
	ix.Col.Reset(a)
}

// Row returns the nonzero positions of row i.
func (ix *RowIndex) Row(i int) []int32 { return ix.Nz[ix.Ptr[i]:ix.Ptr[i+1]] }

// Col returns the nonzero positions of column j.
func (ix *ColIndex) Col(j int) []int32 { return ix.Nz[ix.Ptr[j]:ix.Ptr[j+1]] }

// CSR is a compressed-sparse-row matrix with values, used by the SpMV
// substrate. Rows are contiguous; columns within a row are in COO order.
type CSR struct {
	Rows, Cols int
	Ptr        []int
	Col        []int
	Val        []float64
}

// ToCSR converts the matrix to CSR form. Pattern matrices get value 1.0
// for every nonzero so SpMV remains meaningful.
func (a *Matrix) ToCSR() *CSR {
	ix := BuildRowIndex(a)
	c := &CSR{Rows: a.Rows, Cols: a.Cols, Ptr: ix.Ptr}
	c.Col = make([]int, a.NNZ())
	c.Val = make([]float64, a.NNZ())
	for pos, k := range ix.Nz {
		c.Col[pos] = a.ColIdx[k]
		if a.Val != nil {
			c.Val[pos] = a.Val[k]
		} else {
			c.Val[pos] = 1
		}
	}
	return c
}

// MulVec computes y = A*x sequentially; the reference SpMV.
func (c *CSR) MulVec(x []float64) []float64 {
	y := make([]float64, c.Rows)
	for i := 0; i < c.Rows; i++ {
		s := 0.0
		for p := c.Ptr[i]; p < c.Ptr[i+1]; p++ {
			s += c.Val[p] * x[c.Col[p]]
		}
		y[i] = s
	}
	return y
}
