package hgpart

import (
	"context"
	"math/rand"

	"mediumgrain/internal/hypergraph"
)

// Multilevel coarsening: vertices are pairwise matched — by default with
// the heavy-connectivity criterion (match the neighbor sharing the most
// net weight), the analogue of Mondriaan's inner-product matching, in
// one greedy sweep in vertex index order with hashed tie-breaking — and
// contracted into a coarser hypergraph until the instance is small
// enough for direct initial partitioning. Contraction merges nets whose
// coarse pin sets coincide into one net carrying their summed weight,
// so coarse levels do not fill up with parallel nets. Both steps run
// sequentially on the calling goroutine.

// level records one coarsening step: the coarse hypergraph plus the map
// from fine vertices to coarse vertices, so partitions can be projected
// back down.
type level struct {
	coarse *hypergraph.Hypergraph
	map_   []int32 // fine vertex -> coarse vertex
}

// matchingNetLimit returns cfg.MatchingNetLimit or its default.
func matchingNetLimit(cfg Config) int {
	if cfg.MatchingNetLimit <= 0 {
		return defaultMatchingNetLimit
	}
	return cfg.MatchingNetLimit
}

// match pairs up vertices and returns the fine→coarse vertex map and the
// number of coarse vertices. maxClusterWt bounds merged weights so no
// coarse vertex becomes unplaceable under the balance constraint.
// Heavy-connectivity matching draws one level seed from rng and sweeps
// the vertices in index order; random matching draws a permutation and
// visits the vertices in it. The mate and connectivity arrays and the
// permutation come from sc; the returned vmap is always freshly
// allocated because the caller keeps it per level.
func match(h *hypergraph.Hypergraph, rng *rand.Rand, cfg Config, maxClusterWt int64, sc *Scratch) ([]int32, int) {
	mate := sc.mateBuffer(h.NumVerts)
	if cfg.RandomMatching {
		order := sc.perm(rng, h.NumVerts)
		matchRandom(h, order, mate, matchingNetLimit(cfg), maxClusterWt)
		return clusterIDs(order, mate)
	}
	matchHeavy(h, uint64(rng.Int63()), mate, matchingNetLimit(cfg), maxClusterWt, sc)
	return clusterIDs(nil, mate)
}

// clusterIDs numbers the coarse vertices in order of their first member
// in order, or, for a nil order, of their smallest member, so that an
// index-order sweep hands every coarse level the fine level's vertex
// locality; unmatched vertices map alone.
func clusterIDs(order []int, mate []int32) ([]int32, int) {
	vmap := make([]int32, len(mate))
	for i := range vmap {
		vmap[i] = -1
	}
	next := int32(0)
	for i := range mate {
		v := int32(i)
		if order != nil {
			v = int32(order[i])
		}
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

// matchRandom pairs each unmatched vertex with a random unmatched
// neighbor — the cheaper scheme used by the alternative ("PaToH-like")
// configuration.
func matchRandom(h *hypergraph.Hypergraph, order []int, mate []int32, netLimit int, maxClusterWt int64) {
	for _, vi := range order {
		v := int32(vi)
		if mate[v] >= 0 {
			continue
		}
		var pick int32 = -1
		for _, n := range h.NetsOf(int(v)) {
			if h.NetSize(int(n)) > netLimit {
				continue
			}
			for _, u := range h.NetPins(int(n)) {
				if u != v && mate[u] < 0 && h.VertWt[v]+h.VertWt[u] <= maxClusterWt {
					pick = u
					break
				}
			}
			if pick >= 0 {
				break
			}
		}
		if pick >= 0 {
			mate[v] = pick
			mate[pick] = v
		}
	}
}

// matchHeavy is greedy heavy-connectivity matching: one sweep over the
// vertices in index order pairs each still-unmatched vertex with the
// unmatched neighbor sharing the most net weight, among neighbors whose
// merged weight stays within maxClusterWt. A tie goes to the candidate
// with the smaller tieHash under the level's seed; ties must not go by
// id, because on a mesh every vertex would then pair with the same
// neighbor direction and coarsen into strips.
// Nets larger than netLimit are not scanned.
func matchHeavy(h *hypergraph.Hypergraph, seed uint64, mate []int32, netLimit int, maxClusterWt int64, sc *Scratch) {
	// conn accumulates shared net weight and is all-zero between
	// vertices.
	conn, cand := sc.matchBuffers(h.NumVerts)
	for vi := 0; vi < h.NumVerts; vi++ {
		v := int32(vi)
		if mate[v] >= 0 {
			continue
		}
		cand = cand[:0]
		for _, n := range h.NetsOf(vi) {
			if h.NetSize(int(n)) > netLimit {
				continue
			}
			w := h.NetWeight(int(n))
			for _, u := range h.NetPins(int(n)) {
				if u == v || mate[u] >= 0 {
					continue
				}
				if conn[u] == 0 {
					cand = append(cand, u)
				}
				conn[u] += w
			}
		}
		var best int32 = -1
		var bestConn int32
		var bestHash uint64
		for _, u := range cand {
			if c := conn[u]; h.VertWt[v]+h.VertWt[u] <= maxClusterWt && c >= bestConn {
				hu := tieHash(seed, u)
				if c > bestConn || hu < bestHash {
					best, bestConn, bestHash = u, c, hu
				}
			}
			conn[u] = 0 // restore the all-zero invariant
		}
		if best >= 0 {
			mate[v] = best
			mate[best] = v
		}
	}
	sc.keepMatchCand(cand)
}

// tieHash ranks vertex v among equally connected matching candidates:
// the v-th output of a splitmix64 stream started at the level's seed.
// For a fixed seed it is a bijection of v (an odd multiplier and the
// splitmix64 steps are all invertible), so no two candidates tie.
func tieHash(seed uint64, v int32) uint64 {
	return splitmix64(seed + uint64(v)*splitmixGamma)
}

// pinHash scrambles a coarse vertex id (splitmix64 at state v). A net's
// fingerprint is the wrapping sum of its pins' hashes, so it does not
// depend on pin order.
func pinHash(v int32) uint64 {
	return splitmix64(uint64(v))
}

// contract builds the coarse hypergraph induced by vmap: vertex weights
// are summed, net pins are mapped and deduplicated, nets that shrink to
// a single pin are dropped (they can never be cut at this or any
// coarser level), and a net whose coarse pin set equals that of an
// earlier kept net is folded into it, adding its weight. Kept nets stay
// in first-occurrence order with first-occurrence pin order, so the
// result is a pure function of h and vmap.
//
// Duplicates are found through a hash table keyed by an order-free
// fingerprint of the pin set; every candidate is confirmed by comparing
// the pin sets exactly, so fingerprint collisions cost time, never
// correctness. The coarse hypergraph's own arrays are freshly allocated
// (it outlives the scratch turnover: the V-cycle revisits every level
// on the way back up); the dedup stamp, the pin, pointer, and weight
// accumulators, and the hash table come from sc.
func contract(h *hypergraph.Hypergraph, vmap []int32, numCoarse int, sc *Scratch) *hypergraph.Hypergraph {
	wt := make([]int64, numCoarse)
	for v := 0; v < h.NumVerts; v++ {
		wt[vmap[v]] += h.VertWt[v]
	}
	// Accumulate the kept nets into the scratch first, then copy once
	// into exactly-sized owned arrays: the coarse hypergraph must own its
	// memory, but building it through append-grown arrays would allocate
	// the growth chain on top of the final arrays every level.
	stamp, pins := sc.contractBuffers(numCoarse)
	ptr := sc.contractPtr()
	netWt, table := sc.mergeBuffers(h.NumNets)
	mask := uint64(len(table) - 1)
	for n := 0; n < h.NumNets; n++ {
		start := len(pins)
		var fp uint64
		for _, v := range h.NetPins(n) {
			cv := vmap[v]
			if stamp[cv] != int32(n) {
				stamp[cv] = int32(n)
				pins = append(pins, cv)
				fp += pinHash(cv)
			}
		}
		size := len(pins) - start
		if size < 2 {
			pins = pins[:start]
			continue
		}
		w := h.NetWeight(n)
		for slot := fp & mask; ; slot = (slot + 1) & mask {
			k := table[slot]
			if k < 0 {
				// New pin set: keep the net.
				table[slot] = int32(len(netWt))
				netWt = append(netWt, w)
				ptr = append(ptr, int32(len(pins)))
				break
			}
			if sameCoarsePins(pins[ptr[k]:ptr[k+1]], size, stamp, int32(n)) {
				netWt[k] += w
				pins = pins[:start]
				break
			}
		}
	}
	netPtr := append(make([]int32, 0, len(ptr)), ptr...)
	outPins := append(make([]int32, 0, len(pins)), pins...)
	outWt := append(make([]int32, 0, len(netWt)), netWt...)
	sc.keepContract(pins, ptr, netWt)
	return hypergraph.FromCSR(numCoarse, wt, netPtr, outPins, outWt)
}

// sameCoarsePins reports whether the kept pin list equals the pin set of
// fine net n, whose size is size and whose coarse pins — and only
// those — carry stamp n.
func sameCoarsePins(kept []int32, size int, stamp []int32, n int32) bool {
	if len(kept) != size {
		return false
	}
	for _, cv := range kept {
		if stamp[cv] != n {
			return false
		}
	}
	return true
}

// coarsen produces the multilevel hierarchy, stopping when the hypergraph
// is small enough, matching stalls, or ctx is canceled (the hierarchy
// built so far is returned; the caller checks ctx).
func coarsen(ctx context.Context, h *hypergraph.Hypergraph, eps float64, rng *rand.Rand, cfg Config, sc *Scratch) []level {
	coarsenTo := cfg.CoarsenTo
	if coarsenTo <= 0 {
		coarsenTo = defaultCoarsenTo
	}
	stall := cfg.MaxCoarsenRatio
	if stall <= 0 {
		stall = defaultMaxCoarsenRatio
	}
	// A coarse vertex heavier than the part cap can never be placed;
	// cap clusters well below it.
	maxClusterWt := balancedCaps(h.TotalWeight(), eps)[0] / 3
	if maxClusterWt < 1 {
		maxClusterWt = 1
	}

	var levels []level
	cur := h
	for cur.NumVerts > coarsenTo {
		if ctx.Err() != nil {
			break
		}
		vmap, numCoarse := match(cur, rng, cfg, maxClusterWt, sc)
		if float64(numCoarse) > stall*float64(cur.NumVerts) {
			break // matching stalled; further levels would not shrink
		}
		coarse := contract(cur, vmap, numCoarse, sc)
		levels = append(levels, level{coarse: coarse, map_: vmap})
		cur = coarse
	}
	return levels
}
