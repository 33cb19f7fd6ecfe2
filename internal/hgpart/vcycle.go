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
// non-increasing in the cut. The per-level FM runs follow cfg.ExactFM
// like every other refinement: boundary-driven by default, exact
// all-vertex passes when set (see the package comment).
//
// The restricted matching runs as deterministic proposal rounds on pl
// (the same matchProposal engine as unrestricted coarsening,
// side-restricted), so the result is identical for every pool size,
// nil included. A canceled ctx stops the cycle at the next level (or
// FM-move stride) boundary; because every FM pass rolls back to its best
// prefix and projection only copies parts, the caller's parts remain a
// valid bipartition whose cut is never worse than the input.
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

	var levels []restrictedLevel
	cur, curParts := h, parts
	for cur.NumVerts > coarsenTo {
		if ctx.Err() != nil {
			break
		}
		vmap, numCoarse := matchRestricted(cur, curParts, rng, cfg, maxClusterWt, pl)
		if float64(numCoarse) > stall*float64(cur.NumVerts) {
			break
		}
		coarse := contract(cur, vmap, numCoarse, pl, nil)
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
// currently on the same side, so the partition projects exactly: the
// side-restricted proposal-round matcher, fanning its scans over pl.
func matchRestricted(h *hypergraph.Hypergraph, parts []int, rng *rand.Rand, cfg Config, maxClusterWt int64, pl *pool.Pool) ([]int32, int) {
	nv := h.NumVerts
	mate := make([]int32, nv)
	for i := range mate {
		mate[i] = -1
	}
	order := rng.Perm(nv)
	netLimit := cfg.MatchingNetLimit
	if netLimit <= 0 {
		netLimit = defaultMatchingNetLimit
	}

	matchProposal(h, order, mate, parts, netLimit, maxClusterWt, pl)

	vmap := make([]int32, nv)
	for i := range vmap {
		vmap[i] = -1
	}
	next := int32(0)
	for _, vi := range order {
		v := int32(vi)
		if vmap[v] >= 0 {
			continue
		}
		vmap[v] = next
		if m := mate[v]; m >= 0 && vmap[m] < 0 {
			vmap[m] = next
		}
		next++
	}
	return vmap, int(next)
}
