// Package core implements the paper's contribution: the medium-grain
// method for 2D sparse matrix bipartitioning (Pelt & Bisseling, IPDPS
// 2014) — the initial split of A into Ar + Ac (Algorithm 1), the
// composite matrix B and its row-net hypergraph (§III-A), conversion of B
// partitionings back to A (eqn (5)), the iterative refinement
// post-process (Algorithm 2), the baseline methods it is compared against
// (row-net, column-net, localbest, fine-grain), and recursive bisection
// to general p.
package core

import (
	"math/rand"

	"mediumgrain/internal/sparse"
)

// SplitStrategy selects how nonzeros are divided over Ar and Ac before
// building the composite matrix B. The paper's heuristic is SplitNNZ;
// the others exist for the split ablation (BenchmarkAblationInitialSplit
// in the root package).
type SplitStrategy int

const (
	// SplitNNZ is Algorithm 1: score rows/columns by nonzero count, give
	// each nonzero to the lower-scoring side, with singleton rules,
	// global tie-breaking, and the one-off post-pass.
	SplitNNZ SplitStrategy = iota
	// SplitRandom assigns each nonzero to Ar or Ac by coin flip.
	SplitRandom
	// SplitAllAc places every nonzero in Ac; the medium-grain method then
	// degenerates to the 1D row-net model (see §III-A).
	SplitAllAc
	// SplitAllAr places every nonzero in Ar; degenerates to column-net.
	SplitAllAr
)

// String names the strategy.
func (s SplitStrategy) String() string {
	switch s {
	case SplitNNZ:
		return "nnz-score"
	case SplitRandom:
		return "random"
	case SplitAllAc:
		return "all-Ac"
	case SplitAllAr:
		return "all-Ar"
	}
	return "unknown"
}

// Split assigns each nonzero of a to the row group Ar (true) or the
// column group Ac (false) following the chosen strategy. The returned
// slice is indexed like the COO arrays of a.
func Split(a *sparse.Matrix, strategy SplitStrategy, rng *rand.Rand) []bool {
	switch strategy {
	case SplitRandom:
		inRow := make([]bool, a.NNZ())
		for k := range inRow {
			inRow[k] = rng.Intn(2) == 0
		}
		return inRow
	case SplitAllAc:
		return make([]bool, a.NNZ())
	case SplitAllAr:
		inRow := make([]bool, a.NNZ())
		for k := range inRow {
			inRow[k] = true
		}
		return inRow
	default:
		return SplitParallelPool(a, rng, nil)
	}
}

// oneOffPostPass implements the final improvement of §III-B: if a row has
// all nonzeros in Ar except exactly one, pull that one into Ar so the row
// can never be cut; then the symmetric rule for columns.
func oneOffPostPass(a *sparse.Matrix, inRow []bool, nzr, nzc []int) {
	acInRow := make([]int, a.Rows) // Ac-count per row
	lastAc := make([]int, a.Rows)  // position of an Ac nonzero per row
	for k := range a.RowIdx {
		if !inRow[k] {
			i := a.RowIdx[k]
			acInRow[i]++
			lastAc[i] = k
		}
	}
	for i := 0; i < a.Rows; i++ {
		if nzr[i] >= 2 && acInRow[i] == 1 {
			inRow[lastAc[i]] = true
		}
	}

	arInCol := make([]int, a.Cols)
	lastAr := make([]int, a.Cols)
	for k := range a.ColIdx {
		if inRow[k] {
			j := a.ColIdx[k]
			arInCol[j]++
			lastAr[j] = k
		}
	}
	for j := 0; j < a.Cols; j++ {
		if nzc[j] >= 2 && arInCol[j] == 1 {
			inRow[lastAr[j]] = false
		}
	}
}
