package core

import (
	"math/rand"

	"mediumgrain/internal/pool"
	"mediumgrain/internal/sparse"
)

// SplitParallel is the parallel formulation of Algorithm 1 sketched in
// the paper's §V: "first broadcasting score values so that the owner of
// nonzero a_ij knows both scores sr(i) and sc(j), then deciding on
// inclusion of nonzeros in either Ar or Ac". In shared memory the
// broadcast is the precomputed score arrays; the per-nonzero decisions
// are independent and are fanned out over a worker pool in contiguous
// ranges.
//
// The output is bit-identical to Split(a, SplitNNZ, rng) with the same
// rng, which is this function on a nil pool: the only random choice (the
// global tie side for square matrices) is drawn once, before the
// parallel phase. The one-off post-pass remains sequential — it is a
// cheap O(N) scan.
func SplitParallel(a *sparse.Matrix, rng *rand.Rand, workers int) []bool {
	return SplitParallelPool(a, rng, pool.New(workers))
}

// SplitParallelPool is SplitParallel running on a shared worker pool
// (nil = inline, which is how Split runs it).
func SplitParallelPool(a *sparse.Matrix, rng *rand.Rand, pl *pool.Pool) []bool {
	return splitParallelShape(a, rng, a.Rows, a.Cols, pl)
}

// splitParallelShape is SplitParallelPool with the tie orientation
// decided from the given logical shape instead of a's own dimensions.
// Recursive bisection passes the root matrix's shape: a compacted
// subproblem drops empty rows and columns, but its split must break
// ties as the root does.
func splitParallelShape(a *sparse.Matrix, rng *rand.Rand, shapeRows, shapeCols int, pl *pool.Pool) []bool {
	inRow, nzr, nzc := scoreSplit(a, rng, shapeRows, shapeCols, pl)
	oneOffPostPass(a, inRow, nzr, nzc)
	return inRow
}

// scoreSplit is Algorithm 1 without the one-off post-pass: it returns
// the split together with the row and column nonzero counts it scored.
func scoreSplit(a *sparse.Matrix, rng *rand.Rand, shapeRows, shapeCols int, pl *pool.Pool) (inRow []bool, nzr, nzc []int) {
	nzr = a.RowCounts()
	nzc = a.ColCounts()

	// Global preference for ties (Algorithm 1 lines 2–7): with more rows
	// than columns prefer Ar, with fewer prefer Ac, random for square.
	var tieRow bool
	switch {
	case shapeRows > shapeCols:
		tieRow = true
	case shapeRows < shapeCols:
		tieRow = false
	default:
		tieRow = rng.Intn(2) == 0
	}

	inRow = make([]bool, a.NNZ())
	pl.ForEach(a.NNZ(), func(lo, hi int) {
		for k := lo; k < hi; k++ {
			i, j := a.RowIdx[k], a.ColIdx[k]
			switch {
			case nzc[j] == 1:
				// A singleton column is never cut; free its row by
				// keeping the nonzero with the row group.
				inRow[k] = true
			case nzr[i] == 1:
				inRow[k] = false
			case nzr[i] < nzc[j]:
				inRow[k] = true
			case nzr[i] > nzc[j]:
				inRow[k] = false
			default:
				inRow[k] = tieRow
			}
		}
	})
	return inRow, nzr, nzc
}
