// Package hgpart implements a multilevel hypergraph bipartitioner in the
// style of Mondriaan's internal partitioner: heavy-connectivity matching
// coarsening, greedy hypergraph-growing initial partitioning, and
// Fiduccia–Mattheyses (FM) refinement with gain buckets, minimizing the
// cut-net metric (which equals the λ−1 communication-volume metric for
// two parts) under the load-balance constraint of the paper (eqn (1)).
//
// # Coarsening
//
// Each level matches vertices in one greedy sweep in vertex index order:
// every still-unmatched vertex pairs with the unmatched neighbor sharing
// the most net weight, as Mondriaan does. A tie goes to the candidate
// with the smaller hash of (level seed, vertex id), one seed drawn from
// the run's RNG per level; the hash never repeats within a level.
// Coarse vertices are numbered by their smallest fine member, so every
// coarse level keeps the input's vertex order and with it the input's
// locality. Mondriaan visits the vertices in a random order instead.
// Drawn afresh per level, that order made nearly every net and pin
// access of a level a cache miss once the level outgrew the cache: the
// index sweep takes the root bisection of the 330×330 Laplacian (a
// medium-grain model of about 109k vertices and 543k pins) from about
// 330 to 210 ms. The hash matters. With ties going to the smaller id,
// every vertex of a mesh pairs with its neighbor along the grid row (on
// a 40×40 grid's row-net model all pairs do, against about 10% with
// hashed ties and 27% in a random order), the levels coarsen into 1×2ⁿ
// strips, and the summed volume of the 330×330 mesh at p = 64 over 64
// seeds rose by 7.1%. Random matching (ConfigAlt) still visits a random
// permutation per level.
//
// Contraction then maps and deduplicates every net's pins, drops nets
// left with one pin, and folds each net whose coarse pin set equals an
// earlier kept net's into that net, adding its weight — coarse levels
// of meshes otherwise fill up with parallel nets (PaToH and KaHyPar
// remove identical nets the same way). Net weights make every coarse
// cut equal the cut of the projected fine partition, so FM, matching,
// and the cut count a net's weight wherever a unit-weight net counts 1;
// the finest level carries no weights. Both steps run sequentially on
// the calling goroutine with buffers from the run's Scratch, so the
// hierarchy never depends on the worker count.
//
// # Initial partitioning
//
// The coarsest level gets Config.InitTries independent tries, each on
// its own stream (NewStream, a splitmix64 generator seeded in one store)
// seeded from the run's RNG in try order. A try grows part 0
// breadth-first through net neighborhoods from a random seed vertex
// until it holds part 0's share of the caps — half the weight when they
// are equal (greedy hypergraph growing, PaToH's default) — then FM
// refines it; the best try by (overload, cut, lowest index) wins. A
// grown part starts near a local optimum, so FM converges in few moves:
// four grown tries reach the volume of eight random-assignment tries,
// the start this package used before, in less than half their CPU time.
// Growing to half under the uneven caps of a node with an odd number of
// parts (2:1 at three) left 42% of the starts overloaded (scale-1
// corpus, p ∈ {3, 5, 6, 12}, three seeds), each then rebalanced by exact
// passes; growing to the share leaves 1%.
//
// The tries only pick a start, so unless Config.EarlyExit is set, every
// pass of a try stops after 16 + nv/16 consecutive non-improving moves,
// where a boundary pass elsewhere goes on for 64 + nv/16 and an exact
// one to exhaustion. Under the longer rule, over the 90 calls of the
// perfbench corpus-mix workload (the 30 scale-2 corpus matrices at
// p ∈ {2, 8, 16}, inline), 85% of the FM moves on levels of at most 256
// vertices were rolled back, and 96% of the new best states came at most
// 16 non-improving moves after the previous one. The short exit cut the
// tries' FM moves from 637k to 245k and initial partitioning's time from
// 712 to 405 ms (medians of eight runs) for 0.07% more summed volume.
//
// The winner is not refined again on the coarsest level. Its try ran FM
// there until a pass stopped improving (2.7 passes per try, on coarsest
// levels of 104 vertices on average, over the calls above), and a
// second run there lowered the cut in 21 of 635 bisections, by 58 nets
// in all, for 4% of the calls' inline time. Bipartition therefore
// projects the winner and refines it first on the next finer level. An
// input that did not coarsen is its own coarsest level, so its winner
// is refined once more under the input's own rule.
//
// # The refinement engine
//
// FM refinement is the package's hot path — it runs at every
// recursive-bisection node, every multilevel uncoarsening step, and
// every iterative-refinement round — and is built as three
// layers over the textbook algorithm: two constant-factor reductions
// of the serial work (locked-net pruning, boundary-driven passes), and
// one way to spend idle workers inside a single refine call (coarse-
// level try racing), all on a zero-allocation scratch substrate:
//
// Locked-net pruning (always on, bit-identical). bipState tracks, per
// net and side, how many pins are locked in the current pass
// (netState packs pin counts and locked counts into one 16-byte record
// per net). A net with locked pins on both sides can never change cut
// state again, so a move skips its gain-update pin scans entirely and
// only applies the pin-count deltas; a lone critical pin on a side
// that holds a lock is that locked pin, so the scan that would find it
// is skipped too. Every skipped update is provably a no-op — locked
// vertices have left the gain buckets — so pruning never moves a
// result bit.
//
// Boundary-driven passes (whenever the state is feasible). An exact
// pass seeds its gain buckets from all nv vertices and moves each at
// most once to exhaustion. A boundary pass instead seeds from the
// boundary — the pins of cut nets — grows the bucket set incrementally
// as moves cut new nets (move() reports the newly-boundary vertices,
// which enter with from-scratch gains), and bounds the exhaustive tail
// with an adaptive early exit (64 + nv/16 consecutive non-improving
// moves; measured on the bench corpus, ~96% of exhaustive-pass moves
// were rolled-back tail). An infeasible state gets exact passes until
// a pass restores balance — only interior vertices may be able to fix
// it — and every pass rolls back to its best state under
// feasibility-first ordering, so boundary passes never yield a less
// feasible result.
//
// Coarse-level try racing (Config.ParallelFM). Refine calls on
// hypergraphs of at most raceMaxVerts vertices — the cheap coarse
// levels, where workers would otherwise idle through the serial
// upstroke — race raceTries FM pass sequences, each on its own parts
// copy and a private Scratch, and keep the best by (overload, cut,
// lowest try index). Try 0 is the serial continuation (the sole consumer of the
// caller's RNG, drawing exactly as a plain refine would); the extra
// tries explore substreams seeded from a hash of the input partition,
// so they displace the serial result only when strictly better and
// never move the caller's stream off its serial-mode trajectory.
// Redundant work buys quality (best-of-K) and occupancy at once.
//
// Determinism contract: every layer is bit-identical per seed at every
// worker count, pool size, and scheduling (try seeds are fixed, never
// derived from the live pool). ParallelFM is a mode switch — per-seed
// results differ between the modes, never within one, and a nil pool
// runs the racing tries inline.
//
// Zero-allocation pass setup. All per-pass working memory — the
// permutation (a scratch-backed Fisher–Yates reproducing rand.Perm's
// exact draws), gain buckets, locked flags, boundary marks and
// worklist, and the per-net counter records — lives in Scratch and is
// reused level to level; Scratch.reserve grows everything once per
// multilevel run at the finest dimensions. Passes restore their
// buffers on exit (buckets drained, locks and marks lowered via the
// move log), so acquisition needs no O(nv) or O(numNets) clearing.
package hgpart

// gainBuckets is the classical FM bucket structure: a doubly linked list
// of vertices per gain value, per side. Gains lie in [-maxDeg, maxDeg],
// maxDeg being the hypergraph's largest weighted degree, because every
// incident net contributes at most ± its weight.
type gainBuckets struct {
	maxDeg  int
	heads   [2][]int32 // heads[side][gain+maxDeg] -> first vertex or -1
	next    []int32    // per-vertex forward link
	prev    []int32    // per-vertex backward link
	gain    []int32    // current gain per vertex
	side    []int8     // which side's list the vertex is in
	in      []bool     // whether the vertex is currently listed
	maxGain [2]int     // lazy upper bound on occupied gain index per side
	count   [2]int
}

// insert adds vertex v with the given gain to the list of side s.
// New vertices go to the front, giving LIFO tie-breaking, the variant
// Fiduccia–Mattheyses found to work well.
func (g *gainBuckets) insert(v int32, s int, gain int32) {
	idx := int(gain) + g.maxDeg
	g.gain[v] = gain
	g.side[v] = int8(s)
	g.in[v] = true
	head := g.heads[s][idx]
	g.next[v] = head
	g.prev[v] = -1
	if head >= 0 {
		g.prev[head] = v
	}
	g.heads[s][idx] = v
	if idx > g.maxGain[s] {
		g.maxGain[s] = idx
	}
	g.count[s]++
}

// remove unlinks vertex v from its bucket.
func (g *gainBuckets) remove(v int32) {
	if !g.in[v] {
		return
	}
	s := int(g.side[v])
	idx := int(g.gain[v]) + g.maxDeg
	if g.prev[v] >= 0 {
		g.next[g.prev[v]] = g.next[v]
	} else {
		g.heads[s][idx] = g.next[v]
	}
	if g.next[v] >= 0 {
		g.prev[g.next[v]] = g.prev[v]
	}
	g.in[v] = false
	g.count[s]--
}

// adjust moves vertex v to a new gain bucket by the given delta. It is
// the FM update's inner operation — one call per free pin of every
// critical net — so it relinks in place instead of paying remove+insert:
// side, membership, and counts are unchanged, only the list links and
// the gain move. The result is exactly remove(v) followed by
// insert(v, side, gain+delta): v leaves its old bucket and becomes the
// head of the new one (the LIFO tie-break order of insert).
func (g *gainBuckets) adjust(v int32, delta int32) {
	if !g.in[v] || delta == 0 {
		return
	}
	s := int(g.side[v])
	oldIdx := int(g.gain[v]) + g.maxDeg
	if g.prev[v] >= 0 {
		g.next[g.prev[v]] = g.next[v]
	} else {
		g.heads[s][oldIdx] = g.next[v]
	}
	if g.next[v] >= 0 {
		g.prev[g.next[v]] = g.prev[v]
	}
	newGain := g.gain[v] + delta
	idx := int(newGain) + g.maxDeg
	g.gain[v] = newGain
	head := g.heads[s][idx]
	g.next[v] = head
	g.prev[v] = -1
	if head >= 0 {
		g.prev[head] = v
	}
	g.heads[s][idx] = v
	if idx > g.maxGain[s] {
		g.maxGain[s] = idx
	}
}

// bestFeasible scans side s from the highest occupied gain downward and
// returns the first vertex whose weight fits within budget (the room
// left on the receiving side; pass math.MaxInt64 to accept any vertex).
// The weight test is inlined rather than a callback — this scan runs
// once per FM move. Returns -1 when the side has no acceptable vertex.
func (g *gainBuckets) bestFeasible(s int, wt []int64, budget int64) int32 {
	for idx := g.maxGain[s]; idx >= 0; idx-- {
		v := g.heads[s][idx]
		if v < 0 {
			if idx == g.maxGain[s] {
				g.maxGain[s] = idx - 1 // lazy max pointer decay
			}
			continue
		}
		for ; v >= 0; v = g.next[v] {
			if wt[v] <= budget {
				return v
			}
		}
	}
	return -1
}

// drain unlinks every remaining vertex, restoring the all-empty state
// (heads -1, in false everywhere). fmPass drains on exit so the next
// reinit pays O(touched) instead of O(numVerts + maxDeg) clears —
// boundary-only passes touch a fraction of either.
func (g *gainBuckets) drain() {
	for s := 0; s < 2; s++ {
		// Indexes above maxGain are empty by the insert invariant.
		for idx := g.maxGain[s]; idx >= 0; idx-- {
			for v := g.heads[s][idx]; v >= 0; {
				next := g.next[v]
				g.in[v] = false
				v = next
			}
			g.heads[s][idx] = -1
		}
		g.maxGain[s] = -1
		g.count[s] = 0
	}
}

// peekGain returns the highest occupied gain of side s and whether the
// side is non-empty.
func (g *gainBuckets) peekGain(s int) (int32, bool) {
	for idx := g.maxGain[s]; idx >= 0; idx-- {
		if g.heads[s][idx] >= 0 {
			g.maxGain[s] = idx
			return int32(idx - g.maxDeg), true
		}
	}
	g.maxGain[s] = -1
	return 0, false
}
