package core

import (
	"context"
	"math/rand"

	"mediumgrain/internal/hgpart"
	"mediumgrain/internal/metrics"
	"mediumgrain/internal/sparse"
)

// fullIterativeOn implements the "full iterative method" sketched in the
// paper's future work (§V): instead of refining the current partitioning
// with a single KL/FM run per iteration (Algorithm 2), each iteration
// re-encodes the best bipartitioning found so far as a medium-grain split
// (alternating the encoding direction) and runs a complete multilevel
// partitioning of the resulting composite hypergraph on e's pool. This
// trades computation time for solution quality: more iterations explore
// more encodings of the same partitioning.
//
// Unlike Algorithm 2, a full multilevel run is not monotone, so the best
// partitioning across iterations is tracked and returned. Iteration 0 is
// a plain medium-grain run (Algorithm 1 split). A canceled ctx ends the
// loop with ctx.Err().
func fullIterativeOn(ctx context.Context, a *sparse.Matrix, iterations int, opts Options, rng *rand.Rand, e *Engine) (*Result, error) {
	if iterations < 1 {
		iterations = 1
	}
	if opts.TargetFrac == 0 {
		opts.TargetFrac = 0.5
	}
	res, err := e.Bipartition(ctx, a, MethodMediumGrain, opts, rng)
	if err != nil {
		return nil, err
	}
	best := res.Parts
	bestVol := res.Volume

	for it := 1; it < iterations && bestVol > 0; it++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		dir := it % 2
		inRow := make([]bool, len(best))
		for k, p := range best {
			if dir == 0 {
				inRow[k] = p == 0
			} else {
				inRow[k] = p == 1
			}
		}
		bm, err := BuildBModel(a, inRow)
		if err != nil {
			return nil, err
		}
		vparts, _ := hgpart.Bipartition(ctx, bm.H, caps(a.NNZ(), opts), rng, opts.Config, e.pl, nil)
		parts := bm.NonzeroParts(vparts)
		if opts.Refine {
			parts, _ = iterativeRefineIndexed(ctx, a, parts, opts, rng, nil, nil)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if vol := metrics.VolumeIndexed(ctx, a, parts, 2, nil, nil, e.pl); vol < bestVol &&
			metrics.CheckBalance(parts, 2, opts.Eps) == nil && ctx.Err() == nil {
			best, bestVol = parts, vol
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &Result{
		Parts:   best,
		Volume:  bestVol,
		Method:  MethodMediumGrain,
		Refined: opts.Refine,
	}, nil
}
