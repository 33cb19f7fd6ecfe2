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
	defaultInitTries        = 4
	// defaultInitTryExit + nv/16 is the initial tries' FM early exit
	// when Config.EarlyExit is 0 (see initialPartition).
	defaultInitTryExit = 16
	defaultMaxPasses   = 8
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
	// RandomMatching uses random instead of heavy-connectivity matching:
	// each level visits the vertices in a fresh random order and pairs
	// each with its first unmatched neighbor.
	RandomMatching bool
	// InitTries is the number of initial partitions attempted at the
	// coarsest level (default 4). Every try grows its part 0 greedily
	// from a random seed vertex (greedyGrow) before FM refines it; the
	// winner is refined next on the finer level it projects to, or, on
	// an input that did not coarsen, once more under the input's own FM
	// rule.
	InitTries int
	// MaxPasses bounds FM passes per refinement run (default 8).
	MaxPasses int
	// EarlyExit aborts an FM pass after this many consecutive moves
	// without a new best state, in every pass of every level. 0 selects
	// 16 + nv/16 for every pass of the initial tries, whose winner
	// every finer level refines again, and elsewhere 64 + nv/16 for
	// boundary passes and exhaustion for exact ones.
	EarlyExit int
	// ParallelFM spends the worker budget inside refinement itself:
	// refine calls on coarse levels (at most 2048 vertices) race four
	// independent FM pass sequences on the pool and keep the best
	// result; finer levels refine serially. It is a quality knob: on the
	// scale-1 mgbench grid (15 seeds, workers 2) it costs about 55% more
	// wall time for about 1.4% less total volume, a better trade than
	// Search.Tries = 2 (about 60% more for 1.0% less). It is a mode
	// switch: per-seed partitions differ from the default, but within
	// the mode every result is bit-identical per seed at every worker
	// count (including a nil pool). Default off.
	ParallelFM bool
	// Workers is not read: the pool passed to Bipartition sets the
	// parallelism, and results are identical for every pool size. The
	// field stays so existing configurations keep compiling.
	Workers int
}

// ConfigMondriaanLike mimics Mondriaan's internal hypergraph partitioner:
// heavy-connectivity matching, several initial tries at the coarsest
// level, and full FM passes. This is the engine used for Figs. 4–5 and
// Table I.
//
// Its initial tries depart from the random assignment this preset used
// to start from: four tries each grow part 0 greedily, where eight
// tries used to place vertices randomly. The eight random restarts took
// 58% of the CPU time of a run over all 30 scale-2 corpus matrices at
// p ∈ {2, 8, 16} and moved the final volume by about 1%. Four greedy
// restarts cut that run's median call latency by about 30% at 1–2%
// lower volume, and the total volume of the 15-seed mgbench grid moved
// by ×1.002. Since every finer level refines the winner again, each
// try's FM stops after 16 + nv/16 non-improving moves (see
// initialPartition), which cut initial partitioning from 47% to 34% of
// an inline run over the same inputs and the median call of perfbench's
// corpus-mix workload from 9.49 to 8.20 ms, for ×1.0024 on the grid's
// volume. The winner is not refined a second time on the coarsest
// level, where its try's FM has already converged: it is refined first
// on the next finer level (see Bipartition).
//
// Its matching departs from Mondriaan's random visiting order too:
// heavy-connectivity matching sweeps the vertices in index order and
// breaks ties by a seeded hash (see the package comment). A fresh
// random order per level made coarsening cache-bound once a level
// outgrew the cache. On the 330×330 Laplacian at p = 64 the sweep cut
// the serial root bisection from about 330 to 210 ms and the median
// call on two cores from 1,155 to 826 ms, for 0.45% more summed volume
// over 64 seeds.
func ConfigMondriaanLike() Config {
	return Config{
		CoarsenTo:        128,
		MaxCoarsenRatio:  0.85,
		MatchingNetLimit: 64,
		InitTries:        4,
		MaxPasses:        8,
	}
}

// ConfigAlt is the stand-in for PaToH in Fig. 6 / Table II: a distinctly
// tuned engine (random matching, six greedy hypergraph-growing initial
// tries, early-exit FM) exercising the same interface. Greedy growing
// is PaToH's default initial partitioner; ConfigMondriaanLike now grows
// its initial parts the same way, so the presets differ in matching,
// coarsening depth, try count, and FM.
func ConfigAlt() Config {
	return Config{
		CoarsenTo:        96,
		MaxCoarsenRatio:  0.9,
		MatchingNetLimit: 96,
		RandomMatching:   true,
		InitTries:        6,
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
// V-cycle: coarsen, partition the coarsest level with the initial
// tries, then project back up refining at every finer level. The tries
// have already run FM on the coarsest level, so it is refined again
// only when it is h itself, an input that did not coarsen. The last FM
// run is therefore always on h, and FM tracks the cut exactly, so the
// returned cut is that run's, not a recount.
//
// The pool only affects wall-clock time: for a given cfg and rng seed
// the result is bit-identical whether pl is nil (inline execution) or
// any pool size, because all randomized choices are drawn from rng in a
// fixed order before work is fanned out. Working arrays — matching and
// contraction buffers, FM pin counts and gain buckets — come from a
// caller-held Scratch, so a driver running many bipartitions back to
// back (recursive bisection) reuses one set of buffers per worker; the
// scratch never influences results either (nil gives the run a private
// one, so a one-shot call still allocates its buffers once, not once
// per level).
//
// Cancellation is cooperative: ctx is checked at every coarsening
// level, initial-partition try, FM pass, and projection level (and
// every few thousand FM moves inside a pass). Once ctx is canceled the
// run bails out with whatever partial parts it holds; the caller must
// check ctx.Err() before trusting the result. An uncanceled ctx never
// changes any result bit.
func Bipartition(ctx context.Context, h *hypergraph.Hypergraph, maxW [2]int64, rng *rand.Rand, cfg Config, pl *pool.Pool, sc *Scratch) ([]int, int64) {
	if h.NumVerts == 0 {
		return []int{}, 0
	}
	if sc == nil {
		sc = new(Scratch)
	}

	// One up-front reserve at the finest dimensions keeps every
	// per-level buffer acquisition of the run allocation-free: levels
	// only shrink while coarsening, and the refinement upstroke re-visits
	// them in ascending size order.
	sc.reserve(h.NumVerts, h.NumNets)

	levels := coarsen(ctx, h, capsToEps(h, maxW), rng, cfg, sc)
	coarsest := h
	if len(levels) > 0 {
		coarsest = levels[len(levels)-1].coarse
	}
	if ctx.Err() != nil {
		return make([]int, h.NumVerts), 0
	}

	// Weight caps carry over unchanged: contraction preserves total
	// weight. The tries ran FM on the coarsest level, so it is refined
	// again only when it is h.
	cparts := initialPartition(ctx, coarsest, maxW, rng, cfg, pl)
	var cut int64
	if len(levels) == 0 {
		cut = refine(ctx, h, cparts, maxW, rng, cfg, pl, sc)
	}

	// Project back up, refining at every level (the V-cycle downstroke).
	for li := len(levels) - 1; li >= 0; li-- {
		if ctx.Err() != nil {
			return make([]int, h.NumVerts), 0
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
		cut = refine(ctx, fine, fparts, maxW, rng, cfg, pl, sc)
		cparts = fparts
	}
	if ctx.Err() != nil {
		return cparts, 0
	}
	return cparts, cut
}

// capsToEps recovers an equivalent eps from weight caps for coarsening's
// cluster-weight bound.
func capsToEps(h *hypergraph.Hypergraph, maxW [2]int64) float64 {
	tw := h.TotalWeight()
	if tw == 0 {
		return 0.03
	}
	eps := 2*float64(min(maxW[0], maxW[1]))/float64(tw) - 1
	if eps < 0 {
		eps = 0
	}
	return eps
}

// initialPartition grows cfg.InitTries initial bipartitions of the
// coarsest hypergraph greedily, FM-refines each, and keeps the best by
// (overload, cut). The tries run as independent subproblems on the pool,
// each on its own NewStream seeded from rng in try order; the winner
// (lowest try index among ties) is therefore the same for every pool
// size.
//
// The tries only select a start: every finer level refines the winner
// again, and so does Bipartition on an input that did not coarsen.
// Unless cfg.EarlyExit is set, each try's FM passes therefore stop
// after defaultInitTryExit + nv/16 consecutive non-improving moves,
// exact passes from an overloaded start included.
// The exit depends on nv alone, so it keeps every result a function of
// the input, the seed and cfg.
func initialPartition(ctx context.Context, h *hypergraph.Hypergraph, maxW [2]int64, rng *rand.Rand, cfg Config, pl *pool.Pool) []int {
	tries := cfg.InitTries
	if tries <= 0 {
		tries = defaultInitTries
	}
	seeds := make([]int64, tries)
	for t := range seeds {
		seeds[t] = rng.Int63()
	}
	// Each try is already an independent racing attempt; a nested
	// refineRace inside it would quadruple the coarse-level work for no
	// extra diversity, so the inner refinement runs plain.
	tcfg := cfg
	tcfg.ParallelFM = false
	if tcfg.EarlyExit == 0 {
		tcfg.EarlyExit = defaultInitTryExit + h.NumVerts/16
	}
	// The pool is already saturated with whole tries, so each try's
	// refinement runs inline.
	parts, _ := bestTry(h, maxW, tries, pl, func(t int, sc *Scratch) ([]int, int64) {
		rt := NewStream(seeds[t])
		parts := greedyGrow(h, maxW, rt)
		return parts, refine(ctx, h, parts, maxW, rt, tcfg, nil, sc)
	})
	return parts
}

// bestTry runs try(t, sc) for t = 0..tries-1 on pl and returns the
// parts and cut of the best try by (overload, cut, lowest try index),
// so the winner is the same for every pool size. The tries execute
// concurrently, so none of them may touch the caller's scratch: each
// pool chunk hands its tries a private Scratch, which still collapses
// the per-pass and per-state allocations of every try in the chunk
// (the scratch never influences results). A canceled try's result is
// discarded by the caller, but every try still returns parts so the
// winner scan stays in bounds.
func bestTry(h *hypergraph.Hypergraph, maxW [2]int64, tries int, pl *pool.Pool, try func(t int, sc *Scratch) ([]int, int64)) ([]int, int64) {
	type result struct {
		parts     []int
		cut, over int64
	}
	results := make([]result, tries)
	pl.ForEach(tries, func(lo, hi int) {
		var chunkSc Scratch
		for t := lo; t < hi; t++ {
			parts, cut := try(t, &chunkSc)
			results[t] = result{parts, cut, overloadOf(h, parts, maxW)}
		}
	})
	best := 0
	for t := 1; t < tries; t++ {
		if better(results[t].cut, results[t].over, results[best].cut, results[best].over) {
			best = t
		}
	}
	return results[best].parts, results[best].cut
}

// greedyGrow seeds part 0 with a random vertex and grows it breadth-first
// through net neighborhoods until it holds part 0's share of the caps,
// total·maxW[0]/(maxW[0]+maxW[1]) — half the weight when the caps are
// equal; the remainder is part 1. This is greedy hypergraph growing
// (GHG), PaToH's default initial partitioner. Growing to half under
// uneven caps (a recursive-bisection node with an odd number of parts
// gives part 1 less than half, a third at three parts) would overload
// part 1 and leave the try to FM's exact rebalancing passes.
//
// Each net is expanded once: the first expansion queues all its pins,
// so a second would queue nothing.
func greedyGrow(h *hypergraph.Hypergraph, maxW [2]int64, rng *rand.Rand) []int {
	parts := make([]int, h.NumVerts)
	for v := range parts {
		parts[v] = 1
	}
	total := h.TotalWeight()
	target := total / 2
	if c := maxW[0] + maxW[1]; c > 0 {
		target = total * maxW[0] / c
	}
	if maxW[0] < target {
		target = maxW[0]
	}

	visited := make([]bool, h.NumVerts)
	expanded := make([]bool, h.NumNets)
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
			if expanded[n] {
				continue
			}
			expanded[n] = true
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
