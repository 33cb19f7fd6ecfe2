package hgpart

import (
	"context"
	"math/rand"

	"mediumgrain/internal/hypergraph"
	"mediumgrain/internal/pool"
)

// Defaults for Config zero values.
const (
	defaultCoarsenTo        = 128
	defaultMaxCoarsenRatio  = 0.85
	defaultMatchingNetLimit = 64
	defaultInitTries        = 8
	defaultMaxPasses        = 8
)

// Config selects the behaviour of the multilevel engine. The zero value
// is usable; the presets below mirror the two partitioners of the paper's
// evaluation.
type Config struct {
	// CoarsenTo stops coarsening once the hypergraph has at most this
	// many vertices (default 128).
	CoarsenTo int
	// MaxCoarsenRatio stops coarsening when a level shrinks the vertex
	// count by less than this factor (default 0.85).
	MaxCoarsenRatio float64
	// MatchingNetLimit skips nets larger than this during matching
	// (default 64).
	MatchingNetLimit int
	// RandomMatching uses random instead of heavy-connectivity matching.
	RandomMatching bool
	// InitTries is the number of initial partitions attempted at the
	// coarsest level (default 8).
	InitTries int
	// GreedyInit grows the initial part with hypergraph BFS instead of
	// random assignment.
	GreedyInit bool
	// MaxPasses bounds FM passes per refinement run (default 8).
	MaxPasses int
	// EarlyExit aborts an FM pass after this many consecutive moves
	// without a new best state (0 = full passes).
	EarlyExit int
	// ExactFM restores the historical all-vertex FM passes: every pass
	// seeds its gain buckets from every vertex. The default (false) runs
	// boundary-driven refinement — after each refine call's first pass,
	// buckets are seeded from the pins of cut nets only and grown
	// incrementally as moves cut new nets. Boundary mode is deterministic
	// per seed at every worker count but explores a restricted move set,
	// so its per-seed partitions (not their feasibility) may differ from
	// ExactFM's; the bench suite gates the quality delta at <= 5% volume.
	ExactFM bool
	// ParallelFM spends the worker budget inside refinement itself:
	// coarse levels race independent FM pass sequences and keep the best
	// result, fine levels run speculative boundary move batches —
	// snapshot gains computed concurrently, commits validated serially
	// against a touched-net conflict set — before the serial passes.
	// Like ExactFM, this is a mode switch: per-seed partitions differ
	// from the serial-refinement default, but within the mode every
	// result is bit-identical per seed at every worker count (including
	// a nil pool); the bench suite gates the quality delta at <= 5%
	// volume. Default off.
	ParallelFM bool
	// Workers is not read: the pool passed to Bipartition sets the
	// parallelism, and results are identical for every pool size. The
	// field stays so existing configurations keep compiling.
	Workers int
}

// ConfigMondriaanLike mimics Mondriaan's internal hypergraph partitioner:
// heavy-connectivity matching, several random initial tries, and full FM
// passes. This is the engine used for Figs. 4–5 and Table I.
func ConfigMondriaanLike() Config {
	return Config{
		CoarsenTo:        128,
		MaxCoarsenRatio:  0.85,
		MatchingNetLimit: 64,
		InitTries:        8,
		GreedyInit:       false,
		MaxPasses:        8,
	}
}

// ConfigAlt is the stand-in for PaToH in Fig. 6 / Table II: a distinctly
// tuned engine (random matching, greedy hypergraph-growing initial
// partitioning, early-exit FM) exercising the same interface.
func ConfigAlt() Config {
	return Config{
		CoarsenTo:        96,
		MaxCoarsenRatio:  0.9,
		MatchingNetLimit: 96,
		RandomMatching:   true,
		InitTries:        6,
		GreedyInit:       true,
		MaxPasses:        6,
		EarlyExit:        256,
	}
}

// BipartitionCapsPool is Bipartition without a context or scratch.
func BipartitionCapsPool(h *hypergraph.Hypergraph, maxW [2]int64, rng *rand.Rand, cfg Config, pl *pool.Pool) ([]int, int64) {
	return Bipartition(context.Background(), h, maxW, rng, cfg, pl, nil)
}

// Bipartition splits the hypergraph into two parts whose weights stay
// within the per-part caps maxW, and returns the per-vertex parts and
// the cut-net count (= λ−1 volume for p = 2). It runs the multilevel
// V-cycle: coarsen, partition the coarsest level, then project back up
// refining at every level.
//
// The pool only affects wall-clock time: for a given cfg and rng seed
// the result is bit-identical whether pl is nil (inline execution) or
// any pool size, because all randomized choices are drawn from rng in a
// fixed order before work is fanned out. Working arrays — matching and
// contraction buffers, FM pin counts and gain buckets — come from a
// caller-held Scratch, so a driver running many bipartitions back to
// back (recursive bisection) reuses one set of buffers per worker; the
// scratch never influences results either (nil allocates fresh).
//
// Cancellation is cooperative: ctx is checked at every coarsening
// level, initial-partition try, FM pass, and projection level (and
// every few thousand FM moves inside a pass). Once ctx is canceled the
// run bails out with whatever partial parts it holds; the caller must
// check ctx.Err() before trusting the result. An uncanceled ctx never
// changes any result bit.
func Bipartition(ctx context.Context, h *hypergraph.Hypergraph, maxW [2]int64, rng *rand.Rand, cfg Config, pl *pool.Pool, sc *Scratch) ([]int, int64) {
	parts := make([]int, h.NumVerts)
	if h.NumVerts == 0 {
		return parts, 0
	}

	// One up-front reserve at the finest dimensions keeps every
	// per-level buffer acquisition of the run allocation-free: levels
	// only shrink while coarsening, and the refinement upstroke re-visits
	// them in ascending size order.
	sc.reserve(h.NumVerts, h.NumNets)

	levels := coarsen(ctx, h, capsToEps(h, maxW), rng, cfg, pl, sc)
	coarsest := h
	if len(levels) > 0 {
		coarsest = levels[len(levels)-1].coarse
	}
	if ctx.Err() != nil {
		return parts, 0
	}

	// Weight caps carry over unchanged: contraction preserves total
	// weight.
	cparts := initialPartition(ctx, coarsest, maxW, rng, cfg, pl)
	refine(ctx, coarsest, cparts, maxW, rng, cfg, pl, sc)

	// Project back up, refining at every level (the V-cycle downstroke).
	for li := len(levels) - 1; li >= 0; li-- {
		if ctx.Err() != nil {
			return parts, 0
		}
		var fine *hypergraph.Hypergraph
		if li == 0 {
			fine = h
		} else {
			fine = levels[li-1].coarse
		}
		fparts := make([]int, fine.NumVerts)
		vmap := levels[li].map_
		pl.ForEach(fine.NumVerts, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				fparts[v] = cparts[vmap[v]]
			}
		})
		refine(ctx, fine, fparts, maxW, rng, cfg, pl, sc)
		cparts = fparts
	}
	copy(parts, cparts)
	if ctx.Err() != nil {
		return parts, 0
	}
	cut := h.ConnectivityMinusOne(parts, 2)
	return parts, cut
}

// capsToEps recovers an equivalent eps from weight caps for coarsening's
// cluster-weight bound.
func capsToEps(h *hypergraph.Hypergraph, maxW [2]int64) float64 {
	tw := h.TotalWeight()
	if tw == 0 {
		return 0.03
	}
	eps := 2*float64(minInt64(maxW[0], maxW[1]))/float64(tw) - 1
	if eps < 0 {
		eps = 0
	}
	return eps
}

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// initialPartition tries cfg.InitTries initial bipartitions of the
// coarsest hypergraph, FM-refines each, and keeps the best by
// (overload, cut). The tries run as independent subproblems on the pool,
// each with its own RNG stream seeded from rng in try order; the winner
// (lowest try index among ties) is therefore the same for every pool
// size.
func initialPartition(ctx context.Context, h *hypergraph.Hypergraph, maxW [2]int64, rng *rand.Rand, cfg Config, pl *pool.Pool) []int {
	tries := cfg.InitTries
	if tries <= 0 {
		tries = defaultInitTries
	}
	seeds := make([]int64, tries)
	for t := range seeds {
		seeds[t] = rng.Int63()
	}
	type try struct {
		parts     []int
		cut, over int64
	}
	results := make([]try, tries)
	pl.ForEach(tries, func(lo, hi int) {
		// The pool is already saturated with whole tries; the inner
		// refinement runs inline, and the tries execute concurrently, so
		// none of them may touch the caller's scratch. A private
		// per-chunk scratch still collapses the per-pass and per-state
		// allocations of every try in the chunk (the scratch never
		// influences results). The canceled-path result is discarded by
		// the caller, but every try still writes a placeholder so the
		// winner scan below stays in bounds.
		var chunkSc Scratch
		// Each try is already an independent racing attempt; a nested
		// refineRace inside it would quadruple the coarse-level work for
		// no extra diversity, so the inner refinement runs plain.
		tcfg := cfg
		tcfg.ParallelFM = false
		for t := lo; t < hi; t++ {
			rt := rand.New(rand.NewSource(seeds[t]))
			var parts []int
			if cfg.GreedyInit {
				parts = greedyGrow(h, maxW, rt)
			} else {
				parts = randomAssign(h, maxW, rt)
			}
			cut := refine(ctx, h, parts, maxW, rt, tcfg, nil, &chunkSc)
			results[t] = try{parts, cut, overloadOf(h, parts, maxW)}
		}
	})
	best := 0
	for t := 1; t < tries; t++ {
		if better(results[t].cut, results[t].over, results[best].cut, results[best].over) {
			best = t
		}
	}
	return results[best].parts
}

// randomAssign distributes vertices in random order, placing each into
// the side with more remaining capacity.
func randomAssign(h *hypergraph.Hypergraph, maxW [2]int64, rng *rand.Rand) []int {
	parts := make([]int, h.NumVerts)
	var wt [2]int64
	for _, v := range rng.Perm(h.NumVerts) {
		rem0 := maxW[0] - wt[0]
		rem1 := maxW[1] - wt[1]
		side := 0
		if rem1 > rem0 {
			side = 1
		} else if rem0 == rem1 && rng.Intn(2) == 1 {
			side = 1
		}
		parts[v] = side
		wt[side] += h.VertWt[v]
	}
	return parts
}

// greedyGrow seeds part 0 with a random vertex and grows it breadth-first
// through net neighborhoods until it holds roughly half the weight; the
// remainder is part 1. This is greedy hypergraph growing (GHG), PaToH's
// default initial partitioner.
func greedyGrow(h *hypergraph.Hypergraph, maxW [2]int64, rng *rand.Rand) []int {
	parts := make([]int, h.NumVerts)
	for v := range parts {
		parts[v] = 1
	}
	total := h.TotalWeight()
	target := total / 2
	if maxW[0] < target {
		target = maxW[0]
	}

	visited := make([]bool, h.NumVerts)
	queue := make([]int32, 0, h.NumVerts)
	var grown int64

	seedOrder := rng.Perm(h.NumVerts)
	si := 0
	pushSeed := func() bool {
		for si < len(seedOrder) {
			v := int32(seedOrder[si])
			si++
			if !visited[v] {
				visited[v] = true
				queue = append(queue, v)
				return true
			}
		}
		return false
	}
	if !pushSeed() {
		return parts
	}
	for grown < target {
		if len(queue) == 0 {
			if !pushSeed() {
				break
			}
		}
		v := queue[0]
		queue = queue[1:]
		if grown+h.VertWt[v] > maxW[0] {
			continue
		}
		parts[v] = 0
		grown += h.VertWt[v]
		for _, n := range h.NetsOf(int(v)) {
			for _, u := range h.NetPins(int(n)) {
				if !visited[u] {
					visited[u] = true
					queue = append(queue, u)
				}
			}
		}
	}
	return parts
}
