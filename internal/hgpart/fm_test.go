package hgpart

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"mediumgrain/internal/hypergraph"
)

// randomHypergraph builds a random hypergraph with unit weights.
func randomHypergraph(rng *rand.Rand, maxVerts, maxNets int) *hypergraph.Hypergraph {
	nv := 2 + rng.Intn(maxVerts-1)
	wt := make([]int64, nv)
	for v := range wt {
		wt[v] = 1
	}
	b := hypergraph.NewBuilder(nv, wt)
	nn := 1 + rng.Intn(maxNets)
	for n := 0; n < nn; n++ {
		sz := 1 + rng.Intn(nv)
		b.AddNetInts(rng.Perm(nv)[:sz])
	}
	return b.Build()
}

// fmTestHypergraph returns randomHypergraph(rng, maxVerts, maxNets) or,
// when weighted is set, a random hypergraph of about four times the
// size contracted twice: its nets carry merged weights, as on a coarse
// multilevel level, and its vertex count is about the same.
func fmTestHypergraph(rng *rand.Rand, maxVerts, maxNets int, weighted bool) *hypergraph.Hypergraph {
	if !weighted {
		return randomHypergraph(rng, maxVerts, maxNets)
	}
	h := randomHypergraph(rng, 4*maxVerts, 6*maxNets)
	for i := 0; i < 2; i++ {
		vmap, numCoarse := match(h, rng, ConfigMondriaanLike(), h.TotalWeight(), nil)
		h = contract(h, vmap, numCoarse, nil)
	}
	return h
}

// hasMergedNet reports whether some net of h weighs more than 1.
func hasMergedNet(h *hypergraph.Hypergraph) bool {
	for n := 0; n < h.NumNets; n++ {
		if h.NetWeight(n) > 1 {
			return true
		}
	}
	return false
}

func randomBipartitionOf(rng *rand.Rand, h *hypergraph.Hypergraph) []int {
	parts := make([]int, h.NumVerts)
	for v := range parts {
		parts[v] = rng.Intn(2)
	}
	return parts
}

func TestBipStateCut(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		merged := false
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			h := fmTestHypergraph(rng, 15, 12, weighted)
			merged = merged || hasMergedNet(h)
			parts := randomBipartitionOf(rng, h)
			s := newBipState(h, parts, balancedCaps(h.TotalWeight(), 1))
			return s.cut == h.ConnectivityMinusOne(parts, 2) && s.cut == h.CutNets(parts)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatalf("weighted=%v: %v", weighted, err)
		}
		if weighted && !merged {
			t.Fatal("no contracted instance carried a merged net")
		}
	}
}

func TestGainOfMatchesCutDelta(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			h := fmTestHypergraph(rng, 12, 10, weighted)
			parts := randomBipartitionOf(rng, h)
			s := newBipState(h, parts, balancedCaps(h.TotalWeight(), 10))
			v := int32(rng.Intn(h.NumVerts))
			gain := s.gainOf(v)
			before := s.cut
			s.move(v, nil, nil)
			return before-s.cut == int64(gain) && s.cut == h.ConnectivityMinusOne(s.parts, 2)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
			t.Fatalf("weighted=%v: %v", weighted, err)
		}
	}
}

func TestMoveIsInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomHypergraph(rng, 12, 10)
		parts := randomBipartitionOf(rng, h)
		s := newBipState(h, parts, balancedCaps(h.TotalWeight(), 10))
		cut0, wt0 := s.cut, s.partWt
		v := int32(rng.Intn(h.NumVerts))
		s.move(v, nil, nil)
		s.move(v, nil, nil)
		return s.cut == cut0 && s.partWt == wt0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMoveGainUpdates verifies the incremental FM gain updates against
// from-scratch recomputation after every move, with and without net
// weights.
func TestMoveGainUpdates(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := fmTestHypergraph(rng, 10, 8, seed%2 == 1)
		parts := randomBipartitionOf(rng, h)
		s := newBipState(h, parts, balancedCaps(h.TotalWeight(), 10))

		buckets := newGainBuckets(h.NumVerts, h.MaxWeightedDegree())
		locked := make([]bool, h.NumVerts)
		for v := 0; v < h.NumVerts; v++ {
			buckets.insert(int32(v), s.parts[v], s.gainOf(int32(v)))
		}
		order := rng.Perm(h.NumVerts)
		for _, vi := range order[:h.NumVerts/2+1] {
			v := int32(vi)
			buckets.remove(v)
			locked[v] = true
			s.move(v, buckets, locked)
			// every free vertex's stored gain must match recomputation
			for u := 0; u < h.NumVerts; u++ {
				if locked[u] {
					continue
				}
				if got, want := buckets.gain[u], s.gainOf(int32(u)); got != want {
					t.Fatalf("seed %d: vertex %d stored gain %d, recomputed %d", seed, u, got, want)
				}
			}
		}
	}
}

func TestFMPassNeverWorsens(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomHypergraph(rng, 20, 15)
		parts := randomBipartitionOf(rng, h)
		maxW := balancedCaps(h.TotalWeight(), 0.2)
		s := newBipState(h, parts, maxW)
		cut0, over0 := s.cut, s.overload()
		fmPass(context.Background(), s, rng, Config{}, nil, false)
		// state must be no worse in (overload, cut) order
		return !better(cut0, over0, s.cut, s.overload())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRefineRestoresBalance(t *testing.T) {
	// start with everything on side 0: FM must move weight across
	rng := rand.New(rand.NewSource(9))
	h := randomHypergraph(rng, 30, 20)
	parts := make([]int, h.NumVerts)
	maxW := balancedCaps(h.TotalWeight(), 0.1)
	refine(context.Background(), h, parts, maxW, rng, Config{}, nil, nil)
	s := newBipState(h, parts, maxW)
	if s.overload() != 0 {
		t.Fatalf("refine left overload %d (weights %v, caps %v)", s.overload(), s.partWt, maxW)
	}
}

func TestRefineBipartitionMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomHypergraph(rng, 25, 20)
		parts := randomBipartitionOf(rng, h)
		before := h.ConnectivityMinusOne(parts, 2)
		caps := balancedCaps(h.TotalWeight(), 0.5)
		feasBefore := newBipState(h, append([]int(nil), parts...), caps).overload() == 0
		after := refineBipartition(h, parts, 0.5, rng, Config{})
		if after != h.ConnectivityMinusOne(parts, 2) {
			return false // returned cut must match the partition
		}
		// When the start is feasible the cut never increases; when it is
		// infeasible FM may trade cut for balance, but the result must
		// then be feasible-or-no-worse.
		if feasBefore {
			return after <= before
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRefineFindsObviousImprovement(t *testing.T) {
	// Chain hypergraph: nets {0,1},{1,2},...,{n-2,n-1}. The partition
	// alternating sides cuts every net; FM should reach the 1-cut
	// contiguous split.
	n := 16
	wt := make([]int64, n)
	for i := range wt {
		wt[i] = 1
	}
	b := hypergraph.NewBuilder(n, wt)
	for i := 0; i+1 < n; i++ {
		b.AddNetInts([]int{i, i + 1})
	}
	h := b.Build()
	parts := make([]int, n)
	for i := range parts {
		parts[i] = i % 2
	}
	rng := rand.New(rand.NewSource(1))
	cut := refineBipartition(h, parts, 0.0, rng, Config{})
	if cut != 1 {
		t.Fatalf("refined chain cut = %d, want 1", cut)
	}
}

func TestBalancedCaps(t *testing.T) {
	caps := balancedCaps(100, 0.03)
	if caps[0] != 51 || caps[1] != 51 {
		t.Fatalf("caps = %v, want [51 51]", caps)
	}
	// odd totals keep the even split feasible even at eps=0
	caps = balancedCaps(7, 0)
	if caps[0] < 4 {
		t.Fatalf("caps = %v, must allow 4", caps)
	}
}

func TestEmptyHypergraphPass(t *testing.T) {
	b := hypergraph.NewBuilder(0, nil)
	h := b.Build()
	s := newBipState(h, nil, [2]int64{1, 1})
	if fmPass(context.Background(), s, rand.New(rand.NewSource(1)), Config{}, nil, false) {
		t.Fatal("empty pass reported improvement")
	}
}
