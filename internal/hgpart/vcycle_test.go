package hgpart

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mediumgrain/internal/pool"
)

func TestVCycleMonotoneAndConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomHypergraph(rng, 60, 40)
		parts := randomBipartitionOf(rng, h)
		maxW := balancedCaps(h.TotalWeight(), 0.3)
		feasBefore := newBipState(h, append([]int(nil), parts...), maxW).overload() == 0
		before := h.ConnectivityMinusOne(parts, 2)
		after := VCycleRefine(context.Background(), h, parts, maxW, rng, ConfigMondriaanLike(), nil)
		if after != h.ConnectivityMinusOne(parts, 2) {
			return false
		}
		if feasBefore && after > before {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestVCycleRestrictedMatchingPreservesSides(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := randomHypergraph(rng, 50, 30)
	parts := randomBipartitionOf(rng, h)
	vmap, numCoarse := matchRestricted(h, parts, rng, ConfigMondriaanLike(), h.TotalWeight(), nil)
	// a coarse vertex's constituents must share a side
	sideOf := make([]int, numCoarse)
	for i := range sideOf {
		sideOf[i] = -1
	}
	for v := 0; v < h.NumVerts; v++ {
		cv := vmap[v]
		if sideOf[cv] == -1 {
			sideOf[cv] = parts[v]
		} else if sideOf[cv] != parts[v] {
			t.Fatalf("coarse vertex %d mixes sides", cv)
		}
	}
}

func TestVCycleImprovesChain(t *testing.T) {
	h := gridHypergraph(400)
	parts := make([]int, h.NumVerts)
	for v := range parts {
		parts[v] = v % 2 // worst case: every net cut
	}
	rng := rand.New(rand.NewSource(4))
	maxW := balancedCaps(h.TotalWeight(), 0.03)
	after := VCycleRefine(context.Background(), h, parts, maxW, rng, ConfigMondriaanLike(), nil)
	if after > 10 {
		t.Fatalf("v-cycle left chain cut at %d", after)
	}
	s := newBipState(h, parts, maxW)
	if s.overload() != 0 {
		t.Fatal("v-cycle broke balance")
	}
}

func TestVCycleSmallHypergraph(t *testing.T) {
	// below the coarsening threshold the v-cycle is just FM
	rng := rand.New(rand.NewSource(5))
	h := randomHypergraph(rng, 10, 8)
	parts := randomBipartitionOf(rng, h)
	before := h.ConnectivityMinusOne(parts, 2)
	after := VCycleRefine(context.Background(), h, parts, balancedCaps(h.TotalWeight(), 1.0), rng, ConfigMondriaanLike(), nil)
	if after > before {
		t.Fatalf("cut rose %d -> %d", before, after)
	}
}

// TestVCycleRefinePoolDeterministicAcrossPools: the restricted matching
// runs as proposal rounds; like every parallel algorithm here, the
// result must be identical for every pool size (including nil =
// inline), and still monotone in the cut.
func TestVCycleRefinePoolDeterministicAcrossPools(t *testing.T) {
	cfg := ConfigMondriaanLike()
	h := gridHypergraph(400)
	base := make([]int, h.NumVerts)
	for v := range base {
		base[v] = v % 2
	}
	maxW := balancedCaps(h.TotalWeight(), 0.03)
	before := h.ConnectivityMinusOne(base, 2)

	run := func(pl *pool.Pool) ([]int, int64) {
		parts := append([]int(nil), base...)
		cut := VCycleRefine(context.Background(), h, parts, maxW, rand.New(rand.NewSource(9)), cfg, pl)
		return parts, cut
	}
	refParts, refCut := run(nil)
	if refCut > before {
		t.Fatalf("v-cycle increased cut %d -> %d", before, refCut)
	}
	for _, workers := range []int{1, 2, 4} {
		parts, cut := run(pool.New(workers))
		if cut != refCut || !reflect.DeepEqual(parts, refParts) {
			t.Errorf("workers=%d: restricted-proposal v-cycle differs from inline run", workers)
		}
	}
}

// TestVCycleRestrictedProposalPreservesSides checks the restricted
// proposal-round matcher on a multi-worker pool: no coarse vertex may
// mix sides.
func TestVCycleRestrictedProposalPreservesSides(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	h := randomHypergraph(rng, 80, 50)
	parts := randomBipartitionOf(rng, h)
	cfg := ConfigMondriaanLike()
	vmap, numCoarse := matchRestricted(h, parts, rng, cfg, h.TotalWeight(), pool.New(3))
	sideOf := make([]int, numCoarse)
	for i := range sideOf {
		sideOf[i] = -1
	}
	for v := 0; v < h.NumVerts; v++ {
		cv := vmap[v]
		if sideOf[cv] == -1 {
			sideOf[cv] = parts[v]
		} else if sideOf[cv] != parts[v] {
			t.Fatalf("coarse vertex %d mixes sides under proposal matching", cv)
		}
	}
}
