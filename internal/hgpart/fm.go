package hgpart

import (
	"context"
	"math"
	"math/rand"

	"mediumgrain/internal/hypergraph"
	"mediumgrain/internal/pool"
)

// fmCancelStride is how many FM moves run between context checks inside
// one pass; a pass over millions of vertices stays cancellable in
// microseconds while the check itself never shows up in a profile.
const fmCancelStride = 4096

// netState packs one net's FM counters into a single 16-byte record:
// the pin counts per side (indices 0, 1) and the locked-pin counts per
// side (indices 2, 3). The move loop touches every net of the moving
// vertex; packing turns each touch into one cache line instead of four
// parallel-array accesses.
type netState [4]int32

// bipState tracks the incremental quantities FM needs: per-net pin and
// locked-pin counts on each side, part weights, and the current cut —
// the summed weight of the cut nets. Every gain and cut change FM
// counts per net is that net's weight, which merged nets of coarse
// levels carry (1 on a hypergraph without net weights).
type bipState struct {
	h      *hypergraph.Hypergraph
	parts  []int
	partWt [2]int64
	maxW   [2]int64
	// net[n][s] counts the pins of net n on side s; net[n][2+s] counts
	// the ones locked there during the current FM pass. Locked pins
	// never move again within a pass, so a net with locked pins on both
	// sides is cut forever: move() skips its gain-update pin scans
	// entirely (only the pin-count deltas remain), and a lone critical
	// pin that is locked is recognized without scanning for it. All
	// locked counts are zero outside fmPass.
	net []netState
	cut int64
	// trackBoundary makes move() record the free pins of nets that turn
	// cut into newBoundary, so a boundary-only pass can insert them into
	// the gain buckets as the boundary grows.
	trackBoundary bool
	newBoundary   []int32
}

// newBipState builds the FM state of parts, drawing the per-net
// pin-count and locked-count arrays from sc. The state is only valid
// until the next state is created from the same Scratch.
func newBipState(h *hypergraph.Hypergraph, parts []int, maxW [2]int64, sc *Scratch) *bipState {
	s := &bipState{h: h, parts: parts, maxW: maxW}
	s.net = sc.netStates(h.NumNets)
	for v := 0; v < h.NumVerts; v++ {
		s.partWt[parts[v]] += h.VertWt[v]
	}
	// The loop below visits every net record exactly once, so resetting
	// in place fuses the scratch clear into the counting pass.
	for n := 0; n < h.NumNets; n++ {
		st := &s.net[n]
		*st = netState{}
		for _, v := range h.NetPins(n) {
			st[parts[v]]++
		}
		if st[0] > 0 && st[1] > 0 {
			s.cut += int64(h.NetWeight(n))
		}
	}
	return s
}

// feasible reports whether both parts respect their weight caps.
func (s *bipState) feasible() bool {
	return s.partWt[0] <= s.maxW[0] && s.partWt[1] <= s.maxW[1]
}

// overload returns the total weight exceeding the caps; 0 when feasible.
func (s *bipState) overload() int64 {
	var o int64
	if s.partWt[0] > s.maxW[0] {
		o += s.partWt[0] - s.maxW[0]
	}
	if s.partWt[1] > s.maxW[1] {
		o += s.partWt[1] - s.maxW[1]
	}
	return o
}

// overloadOf computes the overload of a bipartition directly from the
// part weights — what a full bipState would report, without paying its
// O(pins) pin-count construction. The initial-partition winner scan
// only needs this scalar.
func overloadOf(h *hypergraph.Hypergraph, parts []int, maxW [2]int64) int64 {
	var wt [2]int64
	for v := 0; v < h.NumVerts; v++ {
		wt[parts[v]] += h.VertWt[v]
	}
	var o int64
	for s := 0; s < 2; s++ {
		if wt[s] > maxW[s] {
			o += wt[s] - maxW[s]
		}
	}
	return o
}

// gainOf computes the FM gain of moving v to the other side from scratch.
func (s *bipState) gainOf(v int32) int32 {
	from := s.parts[v]
	to := 1 - from
	var gain int32
	for _, n := range s.h.NetsOf(int(v)) {
		st := &s.net[n]
		if st[from] == 1 {
			gain += s.h.NetWeight(int(n))
		}
		if st[to] == 0 {
			gain -= s.h.NetWeight(int(n))
		}
	}
	return gain
}

// move flips vertex v to the other side, updating pin counts, weights,
// the cut, and — when buckets/locked are non-nil — the gains of the
// affected free vertices per the classical FM update rules. The
// buckets-path caller must have marked v locked (locked[v] = true)
// before the call; move counts v's lock on its landing side.
//
// Locked-net pruning (bit-identical to the unpruned update): adjust()
// on a locked vertex was always a no-op — locked vertices leave the
// buckets when they move — so any pin scan whose every candidate is
// locked can be skipped outright. lockCt identifies those scans without
// touching pins: a net with locked pins on both sides can never change
// cut state again (skip everything but the pinCt deltas), and a lone
// critical pin on a side with a locked pin is that locked pin (skip the
// scan that would search for it).
func (s *bipState) move(v int32, buckets *gainBuckets, locked []bool) {
	from := s.parts[v]
	to := 1 - from
	if buckets == nil {
		// Bare path (rollback, tests): pin-count and cut bookkeeping
		// only. Rollback discards the pass's locks with it — the
		// vertices being rolled back are locked, and zeroing here (a
		// no-op outside a pass) spares unlockNets a second walk over
		// the rolled-back majority of the move log.
		for _, n := range s.h.NetsOf(int(v)) {
			st := &s.net[n]
			ctF, ctT := st[from], st[to]
			st[from], st[to] = ctF-1, ctT+1
			st[2], st[3] = 0, 0
			// Cut delta: net is cut after the move iff pins remain on
			// 'from'; it was cut before iff any pin was on 'to' (ctF >= 1
			// always held, v itself is there).
			before := ctT > 0
			after := ctF > 1
			if before && !after {
				s.cut -= int64(s.h.NetWeight(int(n)))
			} else if !before && after {
				s.cut += int64(s.h.NetWeight(int(n)))
			}
		}
		s.parts[v] = to
		s.partWt[from] -= s.h.VertWt[v]
		s.partWt[to] += s.h.VertWt[v]
		return
	}
	for _, n := range s.h.NetsOf(int(v)) {
		st := &s.net[n]
		ctF, ctT := st[from], st[to]
		if st[2+from] > 0 && st[2+to] > 0 {
			// Saturated net: locked pins on both sides keep it cut for
			// the rest of the pass, so neither the cut nor any free
			// pin's gain can change — the pin-count deltas are all that
			// is left of the update.
			st[from], st[to] = ctF-1, ctT+1
			st[2+to]++
			continue
		}
		w := s.h.NetWeight(int(n))
		if ctT == 0 {
			// Net was entirely on 'from'; every free pin now gains from
			// following v. If pins remain behind (ctF > 1) the net just
			// became cut: its free pins are new boundary vertices. When
			// every pin but v is already locked (ctF-1 == locked-on-from)
			// there is no free pin to update and the scan is skipped.
			if ctF-1 > st[2+from] {
				newlyCut := s.trackBoundary && ctF > 1
				for _, u := range s.h.NetPins(int(n)) {
					if !locked[u] {
						buckets.adjust(u, +w)
						if newlyCut && !buckets.in[u] {
							s.newBoundary = append(s.newBoundary, u)
						}
					}
				}
			}
		} else if ctT == 1 && st[2+to] == 0 {
			// The lone 'to'-side pin loses its escape gain; with a lock
			// on 'to' it would be the locked pin, and the scan is skipped.
			for _, u := range s.h.NetPins(int(n)) {
				if !locked[u] && s.parts[u] == to {
					buckets.adjust(u, -w)
					break
				}
			}
		}
		st[from], st[to] = ctF-1, ctT+1
		before := ctT > 0
		after := ctF > 1
		if before && !after {
			s.cut -= int64(w)
		} else if !before && after {
			s.cut += int64(w)
		}
		if ctF == 1 {
			// Net has left 'from' entirely; every free pin loses the
			// gain of following v — unless they are all locked
			// (to-side pins ctT == locked-on-to; v itself is locked too).
			if ctT > st[2+to] {
				for _, u := range s.h.NetPins(int(n)) {
					if !locked[u] {
						buckets.adjust(u, -w)
					}
				}
			}
		} else if ctF == 2 && st[2+from] == 0 {
			// The lone remaining 'from' pin gains its escape; with a
			// lock on 'from' it would be the locked pin — skip the scan.
			for _, u := range s.h.NetPins(int(n)) {
				if !locked[u] && s.parts[u] == from {
					buckets.adjust(u, +w)
					break
				}
			}
		}
		st[2+to]++
	}
	s.parts[v] = to
	s.partWt[from] -= s.h.VertWt[v]
	s.partWt[to] += s.h.VertWt[v]
}

// unlockNets re-zeroes the locked-pin counters touched by a pass: every
// lock was counted on a net of a moved vertex, so scanning the kept
// prefix of the move log (rollback already zeroed the rest) restores
// the all-zero invariant in time proportional to the pass's own work
// instead of O(numNets).
func (s *bipState) unlockNets(moves []int32) {
	for _, v := range moves {
		for _, n := range s.h.NetsOf(int(v)) {
			s.net[n][2] = 0
			s.net[n][3] = 0
		}
	}
}

// fmPass runs one Fiduccia–Mattheyses pass: every eligible vertex is
// moved at most once; the pass ends at exhaustion, after cfg.EarlyExit
// consecutive moves without a new best state, or when ctx is canceled,
// and rolls back to the best visited state (so even a canceled pass
// leaves a consistent bipState). Returns true if the pass improved the
// cut or the balance.
//
// With boundaryOnly set, the gain buckets start from the boundary
// vertices only — the pins of cut nets — instead of all nv, and grow
// incrementally as moves cut new nets; an interior vertex (no incident
// cut net) has gain <= 0 and only matters for balance repair, so
// restricting the candidate set trades those rebalancing moves (and the
// tail of exploratory interior moves) for pass setup and move-loop time
// proportional to the boundary instead of the whole hypergraph.
func fmPass(ctx context.Context, s *bipState, rng *rand.Rand, cfg Config, sc *Scratch, boundaryOnly bool) bool {
	h := s.h
	nv := h.NumVerts
	if nv == 0 {
		return false
	}
	maxDeg := h.MaxWeightedDegree()
	slack := h.MaxVertWt()
	buckets, locked, moves := sc.fmBuffers(nv, maxDeg)
	defer func() { sc.keepMoves(moves) }()
	if boundaryOnly {
		// Seed the buckets from the boundary only — the pins of cut
		// nets — inserting in permutation order so tie-breaking stays
		// seed-deterministic (and the rng advances by the same draws as
		// an exact pass over the same hypergraph).
		bnd := sc.boundaryMarks(nv)
		for n := 0; n < h.NumNets; n++ {
			if st := &s.net[n]; st[0] > 0 && st[1] > 0 {
				for _, u := range h.NetPins(n) {
					bnd[u] = true
				}
			}
		}
		for _, v := range sc.perm(rng, nv) {
			if bnd[v] {
				buckets.insert(int32(v), s.parts[v], s.gainOf(int32(v)))
				bnd[v] = false // restore the all-false invariant
			}
		}
		s.trackBoundary = true
		s.newBoundary = sc.boundaryWork()
		defer func() {
			s.trackBoundary = false
			sc.keepBoundaryWork(s.newBoundary)
			s.newBoundary = nil
		}()
	} else {
		for _, v := range sc.perm(rng, nv) {
			buckets.insert(int32(v), s.parts[v], s.gainOf(int32(v)))
		}
	}

	startCut, startOver := s.cut, s.overload()
	bestCut, bestOver := startCut, startOver
	bestPrefix := 0
	sinceBest := 0
	earlyExit := cfg.EarlyExit
	if boundaryOnly && earlyExit == 0 {
		// Boundary passes default to an adaptive early exit: measured on
		// the bench corpus, ~96% of an exhaustive pass's moves are
		// rolled-back tail behind the best prefix, so a bounded
		// no-improvement streak keeps the hill-climbing window without
		// paying for the full exhaustion. An explicit cfg.EarlyExit
		// overrides it.
		earlyExit = 64 + nv/16
	}

	for buckets.count[0]+buckets.count[1] > 0 {
		if len(moves)%fmCancelStride == 0 && ctx.Err() != nil {
			break
		}
		v := selectMove(s, buckets, slack)
		if v < 0 {
			break
		}
		buckets.remove(v)
		locked[v] = true
		s.move(v, buckets, locked)
		moves = append(moves, v)
		if boundaryOnly && len(s.newBoundary) > 0 {
			// Nets cut by this move widened the boundary; admit their
			// free pins with from-scratch gains (the incremental updates
			// only reach vertices already in the buckets).
			for _, u := range s.newBoundary {
				if !locked[u] && !buckets.in[u] {
					buckets.insert(u, s.parts[u], s.gainOf(u))
				}
			}
			s.newBoundary = s.newBoundary[:0]
		}

		over := s.overload()
		if better(s.cut, over, bestCut, bestOver) {
			bestCut, bestOver = s.cut, over
			bestPrefix = len(moves)
			sinceBest = 0
		} else {
			sinceBest++
			if earlyExit > 0 && sinceBest >= earlyExit {
				break
			}
		}
	}

	// Roll back to the best prefix (which also zeroes the rolled-back
	// moves' lock counters), then restore the kept prefix's.
	for i := len(moves) - 1; i >= bestPrefix; i-- {
		s.move(moves[i], nil, nil)
	}
	s.unlockNets(moves[:bestPrefix])
	// Leave the shared buffers the way fmBuffers assumes: buckets
	// drained and locked flags false — O(touched), where the acquisition
	// clears they replace were O(numVerts) per pass.
	buckets.drain()
	for _, v := range moves {
		locked[v] = false
	}
	return better(bestCut, bestOver, startCut, startOver)
}

// better orders states by feasibility first (less overload), then cut.
func better(cut, over, refCut, refOver int64) bool {
	if over != refOver {
		return over < refOver
	}
	return cut < refCut
}

// selectMove picks the next vertex to move: the higher-gain feasible move
// of the two sides; when the partition is overloaded, moves off the
// overloaded side are forced so FM restores balance first.
//
// Moves may exceed the cap by `slack` (one maximum vertex weight): FM
// must be able to pass through slightly infeasible intermediate states —
// otherwise a partition sitting exactly at the caps could never move any
// vertex — and the best-prefix rollback guarantees the final state is
// never less feasible than the start.
func selectMove(s *bipState, buckets *gainBuckets, slack int64) int32 {
	// Forced rebalancing: if a side is overweight, move from it,
	// accepting growth of the other side.
	for side := 0; side < 2; side++ {
		if s.partWt[side] > s.maxW[side] {
			return buckets.bestFeasible(side, s.h.VertWt, math.MaxInt64)
		}
	}
	// budget(from) is the weight the receiving side can still take.
	budget := func(from int) int64 {
		to := 1 - from
		return s.maxW[to] + slack - s.partWt[to]
	}
	g0, ok0 := buckets.peekGain(0)
	g1, ok1 := buckets.peekGain(1)
	var first, second int
	switch {
	case ok0 && ok1 && g0 >= g1:
		first, second = 0, 1
	case ok0 && ok1:
		first, second = 1, 0
	case ok0:
		first, second = 0, 0
	case ok1:
		first, second = 1, 1
	default:
		return -1
	}
	if v := buckets.bestFeasible(first, s.h.VertWt, budget(first)); v >= 0 {
		return v
	}
	if second != first {
		if v := buckets.bestFeasible(second, s.h.VertWt, budget(second)); v >= 0 {
			return v
		}
	}
	return -1
}

// refine runs FM passes until a pass yields no improvement, MaxPasses
// is reached, or ctx is canceled. It mutates parts in place and returns
// the final cut. sc supplies the reusable pin-count and bucket arrays.
//
// Passes run boundary-only whenever the state is feasible. An
// infeasible state (an overloaded seed partition) gets an exact
// all-vertex pass, because only interior vertices may be able to
// restore balance; once a pass leaves a feasible state — every pass
// rolls back to its best visited state under feasibility-first
// ordering, so feasibility is never lost again — the remaining passes
// seed their buckets from the boundary alone and their cost tracks the
// boundary size instead of the hypergraph size.
//
// With cfg.ParallelFM set, coarse levels (nv <= raceMaxVerts) race
// raceTries independent pass sequences on pl and keep the best,
// bit-identically per seed at every pool size (see refineRace); pl is
// not used otherwise, and nil runs the tries inline.
func refine(ctx context.Context, h *hypergraph.Hypergraph, parts []int, maxW [2]int64, rng *rand.Rand, cfg Config, pl *pool.Pool, sc *Scratch) int64 {
	if cfg.ParallelFM && h.NumVerts > 0 && h.NumVerts <= raceMaxVerts {
		return refineRace(ctx, h, parts, maxW, rng, cfg, pl)
	}
	s := newBipState(h, parts, maxW, sc)
	passes := cfg.MaxPasses
	if passes <= 0 {
		passes = defaultMaxPasses
	}
	for i := 0; i < passes; i++ {
		if ctx.Err() != nil {
			break
		}
		if !fmPass(ctx, s, rng, cfg, sc, s.overload() == 0) {
			break
		}
	}
	return s.cut
}

// RefineBipartition performs a single Kernighan–Lin/FM run (repeated
// passes until no improvement) on an existing bipartition — the
// refinement primitive used by the paper's iterative refinement
// (Algorithm 2, line 16) — within the per-part weight caps maxW. parts
// is modified in place; the cut-net value after refinement is returned
// and never exceeds the input's. Working arrays come from sc; nil gives
// the run a private one. A canceled ctx stops the FM passes between
// moves; parts stays a consistent bipartition either way.
func RefineBipartition(ctx context.Context, h *hypergraph.Hypergraph, parts []int, maxW [2]int64, rng *rand.Rand, cfg Config, sc *Scratch) int64 {
	if sc == nil {
		sc = new(Scratch)
	}
	return refine(ctx, h, parts, maxW, rng, cfg, nil, sc)
}

// balancedCaps returns the per-part weight caps (1+eps)·W/2, rounded so a
// perfectly even split of an odd total stays feasible.
func balancedCaps(totalWt int64, eps float64) [2]int64 {
	cap0 := int64((1 + eps) * float64(totalWt) / 2)
	min := (totalWt + 1) / 2
	if cap0 < min {
		cap0 = min
	}
	return [2]int64{cap0, cap0}
}
