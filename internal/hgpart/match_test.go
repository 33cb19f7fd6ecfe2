package hgpart

import (
	"math/rand"
	"reflect"
	"testing"

	"mediumgrain/internal/hypergraph"
	"mediumgrain/internal/pool"
)

// parmatchHypergraph builds a connected-ish random hypergraph for the
// matching and pool-equivalence tests.
func parmatchHypergraph(seed int64, nv, nets, maxPins int) *hypergraph.Hypergraph {
	rng := rand.New(rand.NewSource(seed))
	b := hypergraph.NewBuilder(nv, nil)
	for i := 0; i < nv; i++ {
		// Chain net keeps the hypergraph connected.
		if i+1 < nv {
			b.AddNetInts([]int{i, i + 1})
		}
	}
	for n := 0; n < nets; n++ {
		sz := 2 + rng.Intn(maxPins-1)
		seen := map[int32]bool{}
		pins := make([]int32, 0, sz)
		for len(pins) < sz {
			v := int32(rng.Intn(nv))
			if !seen[v] {
				seen[v] = true
				pins = append(pins, v)
			}
		}
		b.AddNet(pins)
	}
	h := b.Build()
	for v := range h.VertWt {
		h.VertWt[v] = 1
	}
	return h
}

// TestMatchProposalMatchesMostVertices guards against the greedy
// heavy-connectivity sweep degenerating: on a structured hypergraph
// most vertices should pair up, into a valid (symmetric) matching.
func TestMatchProposalMatchesMostVertices(t *testing.T) {
	h := parmatchHypergraph(1, 1000, 800, 5)
	mate := make([]int32, h.NumVerts)
	for i := range mate {
		mate[i] = -1
	}
	order := rand.New(rand.NewSource(3)).Perm(h.NumVerts)
	matchHeavy(h, order, mate, nil, defaultMatchingNetLimit, h.TotalWeight(), nil)
	matched := 0
	for v, m := range mate {
		if m >= 0 {
			matched++
			if mate[m] != int32(v) {
				t.Fatalf("mate[%d]=%d but mate[%d]=%d", v, m, m, mate[m])
			}
		}
	}
	if frac := float64(matched) / float64(h.NumVerts); frac < 0.5 {
		t.Errorf("heavy-connectivity matching paired only %.0f%% of vertices", 100*frac)
	}
}

// TestBipartitionCapsPoolEquivalence verifies the full multilevel
// pipeline: identical parts and cut for nil pool and any pool size, on
// both engine presets.
func TestBipartitionCapsPoolEquivalence(t *testing.T) {
	h := parmatchHypergraph(9, 800, 500, 6)
	for _, preset := range []struct {
		name string
		cfg  Config
	}{
		{"mondriaan", ConfigMondriaanLike()},
		{"alt", ConfigAlt()},
	} {
		cfg := preset.cfg
		maxW := balancedCaps(h.TotalWeight(), 0.05)
		refParts, refCut := BipartitionCapsPool(h, maxW, rand.New(rand.NewSource(13)), cfg, nil)
		for _, workers := range []int{1, 3, 8} {
			parts, cut := BipartitionCapsPool(h, maxW, rand.New(rand.NewSource(13)), cfg, pool.New(workers))
			if cut != refCut || !reflect.DeepEqual(parts, refParts) {
				t.Errorf("%s/workers=%d: pooled bipartition differs (cut %d vs %d)", preset.name, workers, cut, refCut)
			}
		}
	}
}
