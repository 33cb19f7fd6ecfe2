package core

import (
	"context"
	"math/rand"

	"mediumgrain/internal/hgpart"
	"mediumgrain/internal/metrics"
	"mediumgrain/internal/sparse"
)

// iterativeRefineIndexed implements Algorithm 2 of the paper: a cheap
// post-processing step applicable to any bipartitioning. The current
// bipartition {A0, A1} is re-encoded as a medium-grain split — direction
// 0 places A0 in Ar and A1 in Ac; direction 1 swaps them — the composite
// hypergraph of B is built with the corresponding (volume-preserving)
// vertex bipartition, and a single Kernighan–Lin/FM run refines it. The
// loop alternates directions whenever an iteration stops improving and
// terminates when both directions are exhausted (V_k = V_{k−1} = V_{k−2}).
// The returned partition never has larger communication volume than the
// input (the whole procedure is monotonically non-increasing), and the
// balance constraint ε is maintained.
//
// ix is a caller-built index of a shared by every iteration's model
// build and the input's volume count (nil builds one once); working
// memory is drawn from sc. Only the input's volume is counted: each FM
// run returns the cut of its composite hypergraph, which is the volume
// of the bipartition it decodes to (§III-A), so the loop tracks the
// refined partition's volume and callers never pay a separate
// evaluation. A canceled ctx stops the loop at the next iteration (or
// FM-stride) boundary and returns the best partition found so far —
// still never worse than the input; callers that must distinguish
// report ctx.Err() themselves.
func iterativeRefineIndexed(ctx context.Context, a *sparse.Matrix, parts []int, opts Options, rng *rand.Rand, ix *sparse.Index, sc *scratch) ([]int, int64) {
	if opts.TargetFrac == 0 {
		opts.TargetFrac = 0.5
	}
	if ix == nil {
		ix = sparse.NewIndex(a)
	}
	cur := append([]int(nil), parts...)
	dir := 0
	vPrev2 := int64(-1) // V_{k-2}
	vPrev := metrics.VolumeIndexed(ctx, a, cur, 2, &ix.Row, &ix.Col, nil)

	// Algorithm 2 terminates because volume is non-increasing and
	// integral; maxIter is a defensive bound only.
	const maxIter = 1000
	for k := 1; k <= maxIter; k++ {
		if ctx.Err() != nil {
			return cur, vPrev
		}
		next, vk, ok := refineOnce(ctx, a, cur, dir, opts, rng, ix, sc)
		if !ok || vk > vPrev || ctx.Err() != nil {
			// The FM engine never worsens a seeded partition, but stay
			// safe against balance-forced moves on pathological inputs —
			// and against an FM run cut short by cancellation.
			vk = vPrev
			next = cur
		}
		if vk == vPrev {
			dir = 1 - dir
			if k > 1 && vk == vPrev2 {
				return next, vk
			}
		}
		cur = next
		vPrev2, vPrev = vPrev, vk
	}
	return cur, vPrev
}

// refineOnce performs one iteration of Algorithm 2: encode, refine with a
// single KL/FM run, decode. It returns the decoded parts and their
// volume, the FM run's cut. ok is false when the encoded model cannot be
// seeded (never happens for valid 2-part inputs; defensive).
func refineOnce(ctx context.Context, a *sparse.Matrix, parts []int, dir int, opts Options, rng *rand.Rand, ix *sparse.Index, sc *scratch) ([]int, int64, bool) {
	// Direction 0: Ar ← A0, Ac ← A1. Direction 1: Ar ← A1, Ac ← A0.
	inRow := sc.inRowBuf(len(parts))
	for k, p := range parts {
		if dir == 0 {
			inRow[k] = p == 0
		} else {
			inRow[k] = p == 1
		}
	}
	bm, err := buildBModel(a, inRow, ix, sc)
	if err != nil {
		return nil, 0, false
	}
	vparts, err := bm.SeedFromNonzeroParts(parts)
	if err != nil {
		return nil, 0, false
	}
	// Algorithm 2 is a single serial KL/FM run per encoding:
	// ParallelFM's try racing stays off.
	cfg := opts.Config
	cfg.ParallelFM = false
	cut := hgpart.RefineBipartition(ctx, bm.H, vparts, caps(a.NNZ(), opts), rng, cfg, sc.engine())
	return bm.NonzeroParts(vparts), cut, true
}
