package core

import (
	"sync"
	"sync/atomic"

	"mediumgrain/internal/hgpart"
	"mediumgrain/internal/hypergraph"
	"mediumgrain/internal/sparse"
)

// scratch bundles the reusable per-worker buffers of the parallel
// partitioning engine: the compactor and CSR/CSC index for subproblem
// extraction, the hypergraph build arrays, the multilevel engine's
// working sets, and the composite-model assembly buffers. Recursive
// bisection hands one scratch to each goroutine that runs part of its
// tree, and the goroutine reuses it node after node, so the steady-state
// cost of a bisection node is O(nnz(sub)) data movement with no
// dimension-sized allocations.
//
// Scratches never influence results: every buffer is fully overwritten
// (or epoch-guarded) before use, so a run with fresh scratches is
// bit-identical to a run with recycled ones.
type scratch struct {
	cpt sparse.Compactor
	ix  sparse.Index
	hb  hypergraph.Scratch
	hg  hgpart.Scratch

	// Composite-model (BModel) assembly buffers.
	origWt   []int64
	vertexOf []int32
	origOf   []int32
	inRow    []bool
}

// index returns the CSR/CSC index of a, reusing the scratch buckets.
func (sc *scratch) index(a *sparse.Matrix) *sparse.Index {
	sc.ix.Reset(a)
	return &sc.ix
}

// int64Buf returns a zeroed length-n weight-assembly buffer.
func (sc *scratch) int64Buf(n int) []int64 {
	if cap(sc.origWt) < n {
		sc.origWt = make([]int64, n)
	}
	sc.origWt = sc.origWt[:n]
	clear(sc.origWt)
	return sc.origWt
}

// vertexBufs returns the length-n original→vertex map (contents
// unspecified) and an empty compact-vertex accumulator.
func (sc *scratch) vertexBufs(n int) (vertexOf, origOf []int32) {
	if cap(sc.vertexOf) < n {
		sc.vertexOf = make([]int32, n)
	}
	sc.vertexOf = sc.vertexOf[:n]
	return sc.vertexOf, sc.origOf[:0]
}

// inRowBuf returns a length-n split buffer (contents unspecified).
func (sc *scratch) inRowBuf(n int) []bool {
	if cap(sc.inRow) < n {
		sc.inRow = make([]bool, n)
	}
	sc.inRow = sc.inRow[:n]
	return sc.inRow
}

// scratchStore is the free list of scratches shared by every run of one
// Engine. A run checks out one scratch for its root and one for each
// bisection branch the pool spawns on a helper goroutine, so a call
// holds at most one scratch per goroutine running its tree — at most
// max(Workers(), 1) — with none of sync.Pool's nondeterministic
// lifetime.
//
// The list is a LIFO of at most bound entries (the pool size, one for an
// inline engine); a put into a full list evicts the oldest entry. A run
// returns its root scratch last, after every branch has joined, so the
// next call's root gets the warm root-sized buffers back and a
// steady-state call regrows nothing.
//
// out counts checked-out scratches for the cancellation tests: every get
// must be matched by a put on all paths, canceled runs included. made
// counts the scratches ever allocated, for the reuse tests.
type scratchStore struct {
	mu    sync.Mutex
	free  []*scratch // free[len-1] was returned most recently
	bound int
	out   atomic.Int64
	made  atomic.Int64
}

func newScratchStore(workers int) *scratchStore {
	bound := max(workers, 1)
	return &scratchStore{free: make([]*scratch, 0, bound), bound: bound}
}

// get returns the most recently returned scratch, allocating one when
// the list is empty.
func (st *scratchStore) get() *scratch {
	st.out.Add(1)
	st.mu.Lock()
	n := len(st.free)
	if n == 0 {
		st.mu.Unlock()
		st.made.Add(1)
		return &scratch{}
	}
	sc := st.free[n-1]
	st.free[n-1] = nil
	st.free = st.free[:n-1]
	st.mu.Unlock()
	return sc
}

// put checks a scratch back in, evicting the oldest entry when the list
// is full.
func (st *scratchStore) put(sc *scratch) {
	st.out.Add(-1)
	st.mu.Lock()
	if len(st.free) == st.bound {
		copy(st.free, st.free[1:])
		st.free = st.free[:st.bound-1]
	}
	st.free = append(st.free, sc)
	st.mu.Unlock()
}

// outstanding reports how many scratches are checked out right now; 0
// whenever no run is in flight (the free-list balance invariant).
func (st *scratchStore) outstanding() int64 { return st.out.Load() }
