package hgpart

import (
	"math/rand"
	"testing"

	"mediumgrain/internal/hypergraph"
)

// refMove is the pre-pruning FM update: no locked-pin counters, every
// critical net's pins scanned, each gain and cut change counting the
// net's weight. It is the semantic reference the locked-net pruning in
// bipState.move must be bit-identical to.
func refMove(s *bipState, v int32, buckets *gainBuckets, locked []bool) {
	from := s.parts[v]
	to := 1 - from
	for _, n := range s.h.NetsOf(int(v)) {
		pins := s.h.NetPins(int(n))
		w := s.h.NetWeight(int(n))
		st := &s.net[n]
		ctF, ctT := st[from], st[to]
		if ctT == 0 {
			for _, u := range pins {
				if !locked[u] {
					buckets.adjust(u, +w)
				}
			}
		} else if ctT == 1 {
			for _, u := range pins {
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
			for _, u := range pins {
				if !locked[u] {
					buckets.adjust(u, -w)
				}
			}
		} else if ctF == 2 {
			for _, u := range pins {
				if !locked[u] && s.parts[u] == from {
					buckets.adjust(u, +w)
					break
				}
			}
		}
	}
	s.parts[v] = to
	s.partWt[from] -= s.h.VertWt[v]
	s.partWt[to] += s.h.VertWt[v]
}

func allFreeBuckets(h *hypergraph.Hypergraph, s *bipState) *gainBuckets {
	buckets := newGainBuckets(h.NumVerts, h.MaxWeightedDegree())
	for v := 0; v < h.NumVerts; v++ {
		buckets.insert(int32(v), s.parts[v], s.gainOf(int32(v)))
	}
	return buckets
}

// TestLockedNetPruningEquivalence runs the pruned move() and the
// unpruned reference side by side through full random lock-and-move
// sequences, on unit-weight and contracted (weighted) hypergraphs:
// parts, cut, per-net pin counts, and every free vertex's bucket gain
// must stay identical after every single move.
func TestLockedNetPruningEquivalence(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := fmTestHypergraph(rng, 18, 14, seed%2 == 1)
		parts := randomBipartitionOf(rng, h)
		maxW := balancedCaps(h.TotalWeight(), 10)

		sA := newBipState(h, append([]int(nil), parts...), maxW)
		sB := newBipState(h, append([]int(nil), parts...), maxW)
		bucketsA := allFreeBuckets(h, sA)
		bucketsB := allFreeBuckets(h, sB)
		lockedA := make([]bool, h.NumVerts)
		lockedB := make([]bool, h.NumVerts)

		// Move every vertex once, in random order — by the end most
		// nets are saturated, exercising every pruning branch.
		for _, vi := range rng.Perm(h.NumVerts) {
			v := int32(vi)
			bucketsA.remove(v)
			lockedA[v] = true
			sA.move(v, bucketsA, lockedA)
			bucketsB.remove(v)
			lockedB[v] = true
			refMove(sB, v, bucketsB, lockedB)

			if sA.cut != sB.cut {
				t.Fatalf("seed %d after moving %d: cut %d != reference %d", seed, v, sA.cut, sB.cut)
			}
			for u := 0; u < h.NumVerts; u++ {
				if sA.parts[u] != sB.parts[u] {
					t.Fatalf("seed %d after moving %d: parts[%d] diverged", seed, v, u)
				}
				if !lockedA[u] && bucketsA.gain[u] != bucketsB.gain[u] {
					t.Fatalf("seed %d after moving %d: gain[%d] = %d, reference %d",
						seed, v, u, bucketsA.gain[u], bucketsB.gain[u])
				}
			}
			for n := 0; n < h.NumNets; n++ {
				if sA.net[n][0] != sB.net[n][0] || sA.net[n][1] != sB.net[n][1] {
					t.Fatalf("seed %d after moving %d: net %d pin counts %v != reference %v",
						seed, v, n, sA.net[n][:2], sB.net[n][:2])
				}
			}
		}
	}
}

// TestIncrementalGainsExactMode asserts that after long random move
// sequences with every vertex listed (the exact-pass protocol), every
// free vertex's incrementally maintained bucket gain equals a
// from-scratch gainOf recompute, with and without net weights.
func TestIncrementalGainsExactMode(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := fmTestHypergraph(rng, 20, 16, seed%2 == 1)
		parts := randomBipartitionOf(rng, h)
		s := newBipState(h, parts, balancedCaps(h.TotalWeight(), 10))
		buckets := allFreeBuckets(h, s)
		locked := make([]bool, h.NumVerts)

		order := rng.Perm(h.NumVerts)
		for _, vi := range order[:3*h.NumVerts/4+1] {
			v := int32(vi)
			buckets.remove(v)
			locked[v] = true
			s.move(v, buckets, locked)
			for u := 0; u < h.NumVerts; u++ {
				if locked[u] {
					continue
				}
				if got, want := buckets.gain[u], s.gainOf(int32(u)); got != want {
					t.Fatalf("seed %d: free vertex %d stored gain %d, recomputed %d", seed, u, got, want)
				}
			}
		}
	}
}

// TestIncrementalGainsBoundaryMode drives the boundary-pass protocol —
// buckets seeded from the pins of cut nets only, grown through the
// newly-cut worklist exactly as fmPass does — and asserts after every
// move that (a) each listed free vertex's stored gain matches a
// from-scratch recompute and (b) every free pin of every cut net is
// listed (the boundary is maintained completely), with and without net
// weights.
func TestIncrementalGainsBoundaryMode(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := fmTestHypergraph(rng, 20, 16, seed%2 == 1)
		parts := randomBipartitionOf(rng, h)
		s := newBipState(h, parts, balancedCaps(h.TotalWeight(), 10))
		buckets := newGainBuckets(h.NumVerts, h.MaxWeightedDegree())
		locked := make([]bool, h.NumVerts)

		// Boundary seed: pins of cut nets.
		bnd := make([]bool, h.NumVerts)
		for n := 0; n < h.NumNets; n++ {
			if s.net[n][0] > 0 && s.net[n][1] > 0 {
				for _, u := range h.NetPins(n) {
					bnd[u] = true
				}
			}
		}
		for v := 0; v < h.NumVerts; v++ {
			if bnd[v] {
				buckets.insert(int32(v), s.parts[v], s.gainOf(int32(v)))
			}
		}
		s.trackBoundary = true
		s.newBoundary = s.newBoundary[:0]

		for moves := 0; moves < h.NumVerts; moves++ {
			v := selectMove(s, buckets, h.MaxVertWt())
			if v < 0 {
				break
			}
			buckets.remove(v)
			locked[v] = true
			s.move(v, buckets, locked)
			for _, u := range s.newBoundary {
				if !locked[u] && !buckets.in[u] {
					buckets.insert(u, s.parts[u], s.gainOf(u))
				}
			}
			s.newBoundary = s.newBoundary[:0]

			for u := 0; u < h.NumVerts; u++ {
				if locked[u] || !buckets.in[u] {
					continue
				}
				if got, want := buckets.gain[u], s.gainOf(int32(u)); got != want {
					t.Fatalf("seed %d: listed vertex %d stored gain %d, recomputed %d", seed, u, got, want)
				}
			}
			for n := 0; n < h.NumNets; n++ {
				if s.net[n][0] > 0 && s.net[n][1] > 0 {
					for _, u := range h.NetPins(n) {
						if !locked[u] && !buckets.in[u] {
							t.Fatalf("seed %d: free pin %d of cut net %d not listed", seed, u, n)
						}
					}
				}
			}
		}
		s.trackBoundary = false
	}
}
