package core

import (
	"context"
	"math/rand"

	"mediumgrain/internal/hgpart"
	"mediumgrain/internal/metrics"
	"mediumgrain/internal/pool"
	"mediumgrain/internal/sparse"
)

// vCycleRefineOn is the hMetis-style alternative to Algorithm 2 that
// the paper contrasts with in §III-C: instead of a single flat KL/FM run
// per encoding, each iteration performs multilevel V-cycle refinement
// (restricted coarsening that respects the current bipartition, then FM
// at every level) on the composite hypergraph, on pl. It is more
// expensive than Algorithm 2 but can escape local minima that a
// single-level pass cannot; like Algorithm 2 it is monotonically
// non-increasing in the communication volume and alternates encoding
// directions until both are exhausted. A canceled ctx stops it at the
// next iteration boundary with the best partition found so far, never
// worse than the input.
func vCycleRefineOn(ctx context.Context, a *sparse.Matrix, parts []int, opts Options, rng *rand.Rand, pl *pool.Pool) []int {
	if opts.TargetFrac == 0 {
		opts.TargetFrac = 0.5
	}
	cur := append([]int(nil), parts...)
	dir := 0
	vPrev2 := int64(-1)
	vPrev := metrics.VolumeIndexed(ctx, a, cur, 2, nil, nil, pl)

	const maxIter = 100
	for k := 1; k <= maxIter; k++ {
		if ctx.Err() != nil {
			return cur
		}
		next, ok := vcycleOnce(ctx, a, cur, dir, opts, rng, pl)
		var vk int64
		if ok {
			vk = metrics.VolumeIndexed(ctx, a, next, 2, nil, nil, pl)
		} else {
			vk, next = vPrev, cur
		}
		if vk > vPrev || ctx.Err() != nil {
			vk, next = vPrev, cur
		}
		if vk == vPrev {
			dir = 1 - dir
			if k > 1 && vk == vPrev2 {
				return next
			}
		}
		cur = next
		vPrev2, vPrev = vPrev, vk
	}
	return cur
}

func vcycleOnce(ctx context.Context, a *sparse.Matrix, parts []int, dir int, opts Options, rng *rand.Rand, pl *pool.Pool) ([]int, bool) {
	inRow := make([]bool, len(parts))
	for k, p := range parts {
		if dir == 0 {
			inRow[k] = p == 0
		} else {
			inRow[k] = p == 1
		}
	}
	bm, err := BuildBModel(a, inRow)
	if err != nil {
		return nil, false
	}
	vparts, err := bm.SeedFromNonzeroParts(parts)
	if err != nil {
		return nil, false
	}
	hgpart.VCycleRefine(ctx, bm.H, vparts, caps(a.NNZ(), opts), rng, opts.Config, pl)
	return bm.NonzeroParts(vparts), true
}
