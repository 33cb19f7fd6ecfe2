package hgpart

import (
	"context"
	"math/rand"

	"mediumgrain/internal/hypergraph"
	"mediumgrain/internal/pool"
)

// VCycleRefine improves an existing bipartition with the multilevel
// V-cycle refinement scheme of hMetis, which the paper contrasts with its
// own one-level iterative refinement (§III-C): the hypergraph is
// coarsened with a *restricted* matching that only merges vertices on the
// same side (so the current bipartition projects exactly onto every
// coarse level), and FM refinement then runs at all levels from coarsest
// to finest. Like the paper's IR, the procedure is monotonically
// non-increasing in the cut. The per-level FM runs are the same
// refine calls as every other refinement (see the package comment).
//
// The restricted matching is the greedy heavy-connectivity sweep of
// unrestricted coarsening, side-restricted, and like contraction it
// runs on the calling goroutine; pl only reaches the per-level FM runs,
// so the result is identical for every pool size, nil included. A
// canceled ctx stops the cycle at the next level (or FM-move stride)
// boundary; because every FM pass rolls back to its best prefix and
// projection only copies parts, the caller's parts remain a valid
// bipartition whose cut is never worse than the input.
//
// parts is modified in place; the final cut is returned.
func VCycleRefine(ctx context.Context, h *hypergraph.Hypergraph, parts []int, maxW [2]int64, rng *rand.Rand, cfg Config, pl *pool.Pool) int64 {
	type restrictedLevel struct {
		coarse *hypergraph.Hypergraph
		map_   []int32
		parts  []int
	}

	coarsenTo := cfg.CoarsenTo
	if coarsenTo <= 0 {
		coarsenTo = defaultCoarsenTo
	}
	stall := cfg.MaxCoarsenRatio
	if stall <= 0 {
		stall = defaultMaxCoarsenRatio
	}
	maxClusterWt := maxW[0] / 3
	if maxW[1]/3 < maxClusterWt {
		maxClusterWt = maxW[1] / 3
	}
	if maxClusterWt < 1 {
		maxClusterWt = 1
	}

	// One scratch serves every level's matching and contraction; coarse
	// hypergraphs own their arrays, so reuse is safe.
	var sc Scratch
	var levels []restrictedLevel
	cur, curParts := h, parts
	for cur.NumVerts > coarsenTo {
		if ctx.Err() != nil {
			break
		}
		vmap, numCoarse := matchRestricted(cur, curParts, rng, cfg, maxClusterWt, &sc)
		if float64(numCoarse) > stall*float64(cur.NumVerts) {
			break
		}
		coarse := contract(cur, vmap, numCoarse, &sc)
		cparts := make([]int, numCoarse)
		for v := 0; v < cur.NumVerts; v++ {
			cparts[vmap[v]] = curParts[v]
		}
		levels = append(levels, restrictedLevel{coarse: coarse, map_: vmap, parts: cparts})
		cur, curParts = coarse, cparts
	}

	// Refine at the coarsest level, then project down refining each
	// level; the finest refinement writes through to the caller's parts.
	refine(ctx, cur, curParts, maxW, rng, cfg, pl, nil)
	for li := len(levels) - 1; li >= 0; li-- {
		var fine *hypergraph.Hypergraph
		var fparts []int
		if li == 0 {
			fine, fparts = h, parts
		} else {
			fine, fparts = levels[li-1].coarse, levels[li-1].parts
		}
		vmap := levels[li].map_
		for v := 0; v < fine.NumVerts; v++ {
			fparts[v] = levels[li].parts[vmap[v]]
		}
		refine(ctx, fine, fparts, maxW, rng, cfg, pl, nil)
	}
	return h.ConnectivityMinusOne(parts, 2)
}

// matchRestricted is heavy-connectivity matching that only pairs vertices
// currently on the same side, so the partition projects exactly. Like
// match, it draws one level seed from rng and sweeps in index order.
func matchRestricted(h *hypergraph.Hypergraph, parts []int, rng *rand.Rand, cfg Config, maxClusterWt int64, sc *Scratch) ([]int32, int) {
	mate := sc.mateBuffer(h.NumVerts)
	matchHeavy(h, uint64(rng.Int63()), mate, parts, matchingNetLimit(cfg), maxClusterWt, sc)
	return clusterIDs(nil, mate)
}
