package hgpart

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mediumgrain/internal/gen"
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

// heavyMates runs heavy-connectivity matching on h under one level seed
// and fails the test unless the result is a valid (symmetric) matching:
// each paired vertex's mate is another vertex that points back at it.
func heavyMates(t *testing.T, h *hypergraph.Hypergraph, seed uint64) []int32 {
	t.Helper()
	mate := make([]int32, h.NumVerts)
	for v := range mate {
		mate[v] = -1
	}
	matchHeavy(h, seed, mate, defaultMatchingNetLimit, h.TotalWeight(), nil)
	for v, m := range mate {
		if m >= 0 && (m == int32(v) || mate[m] != int32(v)) {
			t.Fatalf("seed %d: vertex %d pairs with %d, whose mate is %d", seed, v, m, mate[m])
		}
	}
	return mate
}

// TestMatchProposalMatchesMostVertices guards the greedy
// heavy-connectivity sweep. On a structured hypergraph most vertices
// pair up into a valid (symmetric) matching, coarse ids ascend with each
// cluster's smallest fine vertex, and one level seed gives one vmap
// whether or not the buffers come from a used Scratch. On a mesh, level
// seeds must matter and pairs must not line up along the grid rows, as
// they would if ties went to the smaller id (same-row share 1.00; a
// random order gives about 0.27).
func TestMatchProposalMatchesMostVertices(t *testing.T) {
	h := parmatchHypergraph(1, 1000, 800, 5)
	matched := 0
	for _, m := range heavyMates(t, h, 3) {
		if m >= 0 {
			matched++
		}
	}
	if frac := float64(matched) / float64(h.NumVerts); frac < 0.5 {
		t.Errorf("heavy-connectivity matching paired only %.0f%% of vertices", 100*frac)
	}

	cfg := ConfigMondriaanLike()
	vmap, _ := match(h, rand.New(rand.NewSource(3)), cfg, h.TotalWeight(), nil)
	next := int32(0)
	for v, c := range vmap {
		if c == next {
			next++
		} else if c > next {
			t.Fatalf("vertex %d opens coarse id %d, want %d: ids must ascend with each cluster's smallest vertex", v, c, next)
		}
	}

	// A used scratch: its level workspace holds a contraction's table.
	var sc Scratch
	vm, nc := match(h, rand.New(rand.NewSource(4)), cfg, h.TotalWeight(), &sc)
	contract(h, vm, nc, &sc)
	if got, _ := match(h, rand.New(rand.NewSource(3)), cfg, h.TotalWeight(), &sc); !slices.Equal(got, vmap) {
		t.Error("the same level seed gave a different vmap with a scratch")
	}

	const side = 40
	mesh := hypergraph.RowNet(gen.Laplacian2D(side, side))
	var mates [2][]int32
	for i, seed := range []uint64{1, 2} {
		mate := heavyMates(t, mesh, seed)
		pairs, sameRow := 0, 0
		for v, m := range mate {
			if int32(v) < m {
				pairs++
				if v/side == int(m)/side {
					sameRow++
				}
			}
		}
		if share := float64(sameRow) / float64(pairs); share >= 0.5 {
			t.Errorf("seed %d: %.2f of %d pairs lie along a grid row, want below 0.5", seed, share, pairs)
		}
		mates[i] = mate
	}
	if slices.Equal(mates[0], mates[1]) {
		t.Error("two level seeds gave the same matching")
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
