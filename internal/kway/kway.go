// Package kway provides direct k-way refinement of a p-way nonzero
// partitioning under the λ−1 communication-volume metric. Recursive
// bisection (the scheme used by the paper and by Mondriaan) optimizes
// each split in isolation; a final k-way pass can recover volume lost to
// those isolated decisions by moving individual nonzeros between any
// pair of parts. This is the greedy move-based refinement style of
// direct k-way partitioners such as UMPa, operating on the fine-grain
// view (every nonzero is movable).
package kway

import (
	"context"
	"math/rand"

	"mediumgrain/internal/metrics"
	"mediumgrain/internal/pool"
	"mediumgrain/internal/sparse"
)

// cancelStride is how many candidate moves run between context checks
// inside one greedy pass.
const cancelStride = 4096

// Options tunes the refinement.
type Options struct {
	// Eps is the balance constraint on part sizes (eqn (1)).
	Eps float64
	// MaxPasses bounds the number of sweeps over all nonzeros
	// (default 8); each pass applies every positive-gain feasible move
	// it encounters.
	MaxPasses int
}

// RefineOn improves parts in place and returns the resulting volume.
// The volume never increases; balance (within eps) is preserved for
// inputs that satisfy it and never worsened otherwise.
//
// The per-row/per-column count construction and the final volume
// evaluation run on pl (nil = inline); the greedy move loop itself stays
// sequential, so results are identical for every pool size. Long-lived
// engines thread their shared pool through here instead of paying pool
// construction per refinement.
//
// Cancellation is cooperative: ctx is checked at every pass boundary
// and every few thousand candidate moves within a pass. Because each
// applied move individually lowers the volume, a canceled refinement
// still leaves parts valid and never worse than the input; the returned
// volume is however computed from a possibly canceled scan, so callers
// with a cancellable ctx must check ctx.Err() before trusting it.
func RefineOn(ctx context.Context, a *sparse.Matrix, parts []int, p int, opts Options, rng *rand.Rand, pl *pool.Pool) int64 {
	n := a.NNZ()
	if n == 0 || p < 2 {
		return 0
	}
	maxPasses := opts.MaxPasses
	if maxPasses <= 0 {
		maxPasses = 8
	}

	// Per-row and per-column part counts, built on the shared CSR/CSC
	// index that the final volume evaluation reuses.
	rowCt := make([][]int32, a.Rows)
	colCt := make([][]int32, a.Cols)
	sizes := make([]int64, p)
	ix := &sparse.Index{}
	if pl == nil {
		// Sequential path: one fused pass over the COO arrays; the index
		// directions are derived once here and reused for the volume.
		ix.Reset(a)
		for i := range rowCt {
			rowCt[i] = make([]int32, p)
		}
		for j := range colCt {
			colCt[j] = make([]int32, p)
		}
		for k := range a.RowIdx {
			pt := parts[k]
			rowCt[a.RowIdx[k]][pt]++
			colCt[a.ColIdx[k]][pt]++
			sizes[pt]++
		}
	} else {
		// Parallel path: sizes is a cheap single scan and stays
		// sequential; the histograms are filled concurrently over
		// row/column ranges (each row and column is owned by exactly one
		// chunk).
		for _, pt := range parts {
			sizes[pt]++
		}
		pl.Fork(func() {
			ix.Row.Reset(a)
			pl.ForEach(a.Rows, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					rowCt[i] = make([]int32, p)
					for _, k := range ix.Row.Row(i) {
						rowCt[i][parts[k]]++
					}
				}
			})
		}, func() {
			ix.Col.Reset(a)
			pl.ForEach(a.Cols, func(lo, hi int) {
				for j := lo; j < hi; j++ {
					colCt[j] = make([]int32, p)
					for _, k := range ix.Col.Col(j) {
						colCt[j][parts[k]]++
					}
				}
			})
		})
	}

	limit := int64((1 + opts.Eps) * float64(n) / float64(p))
	if ceil := int64((n + p - 1) / p); limit < ceil {
		limit = ceil
	}

	// gain of moving nonzero k from part a to part b.
	gain := func(k, from, to int) int32 {
		i, j := a.RowIdx[k], a.ColIdx[k]
		var g int32
		if rowCt[i][from] == 1 {
			g++
		}
		if colCt[j][from] == 1 {
			g++
		}
		if rowCt[i][to] == 0 {
			g--
		}
		if colCt[j][to] == 0 {
			g--
		}
		return g
	}

	apply := func(k, from, to int) {
		i, j := a.RowIdx[k], a.ColIdx[k]
		rowCt[i][from]--
		rowCt[i][to]++
		colCt[j][from]--
		colCt[j][to]++
		sizes[from]--
		sizes[to]++
		parts[k] = to
	}

	cand := make([]int, 0, p)
	seen := make([]bool, p)
	for pass := 0; pass < maxPasses; pass++ {
		if ctx.Err() != nil {
			break
		}
		improved := false
		for ki, k := range rng.Perm(n) {
			if ki%cancelStride == 0 && ctx.Err() != nil {
				break
			}
			from := parts[k]
			i, j := a.RowIdx[k], a.ColIdx[k]
			// Candidate targets: parts already present in this row or
			// column (moves to any other part can only have gain ≤ -2
			// ... gain ≤ 0, never positive).
			cand = cand[:0]
			for pt := 0; pt < p; pt++ {
				seen[pt] = false
			}
			for pt := 0; pt < p; pt++ {
				if pt != from && (rowCt[i][pt] > 0 || colCt[j][pt] > 0) && !seen[pt] {
					seen[pt] = true
					cand = append(cand, pt)
				}
			}
			bestTo, bestGain := -1, int32(0)
			for _, to := range cand {
				if sizes[to]+1 > limit {
					continue
				}
				if g := gain(k, from, to); g > bestGain {
					bestGain, bestTo = g, to
				}
			}
			if bestTo >= 0 {
				apply(k, from, bestTo)
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return metrics.VolumeIndexed(ctx, a, parts, p, &ix.Row, &ix.Col, pl)
}
