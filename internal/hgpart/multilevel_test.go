package hgpart

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"mediumgrain/internal/gen"
	"mediumgrain/internal/hypergraph"
	"mediumgrain/internal/sparse"
)

// gridHypergraph returns the row-net hypergraph of a 2D Laplacian-like
// banded matrix — a structured instance with known good bisections.
func gridHypergraph(n int) *hypergraph.Hypergraph {
	a := sparse.New(n, n)
	for i := 0; i < n; i++ {
		a.AppendPattern(i, i)
		if i > 0 {
			a.AppendPattern(i, i-1)
		}
		if i < n-1 {
			a.AppendPattern(i, i+1)
		}
	}
	a.Canonicalize()
	return hypergraph.RowNet(a)
}

// bipartition is Bipartition at an even split with imbalance eps, inline
// and without a scratch: the one-shot form most tests need.
func bipartition(h *hypergraph.Hypergraph, eps float64, rng *rand.Rand, cfg Config) ([]int, int64) {
	return Bipartition(context.Background(), h, balancedCaps(h.TotalWeight(), eps), rng, cfg, nil, nil)
}

// refineBipartition is RefineBipartition at an even split with imbalance
// eps, without a scratch.
func refineBipartition(h *hypergraph.Hypergraph, parts []int, eps float64, rng *rand.Rand, cfg Config) int64 {
	return RefineBipartition(context.Background(), h, parts, balancedCaps(h.TotalWeight(), eps), rng, cfg, nil)
}

func TestBipartitionReturnsConsistentCut(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomHypergraph(rng, 40, 30)
		parts, cut := bipartition(h, 0.1, rng, ConfigMondriaanLike())
		if len(parts) != h.NumVerts {
			return false
		}
		for _, p := range parts {
			if p != 0 && p != 1 {
				return false
			}
		}
		return cut == h.ConnectivityMinusOne(parts, 2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBipartitionRespectsBalance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomHypergraph(rng, 60, 40)
		eps := 0.1
		parts, _ := bipartition(h, eps, rng, ConfigMondriaanLike())
		w := h.PartWeights(parts, 2)
		caps := balancedCaps(h.TotalWeight(), eps)
		return w[0] <= caps[0] && w[1] <= caps[1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBipartitionDeterministicPerSeed(t *testing.T) {
	h := gridHypergraph(200)
	p1, c1 := bipartition(h, 0.03, rand.New(rand.NewSource(5)), ConfigMondriaanLike())
	p2, c2 := bipartition(h, 0.03, rand.New(rand.NewSource(5)), ConfigMondriaanLike())
	if c1 != c2 {
		t.Fatalf("cuts differ: %d vs %d", c1, c2)
	}
	for v := range p1 {
		if p1[v] != p2[v] {
			t.Fatal("partitions differ for equal seeds")
		}
	}
}

func TestBipartitionChainQuality(t *testing.T) {
	// A 1D chain has a 1-cut bisection; the multilevel engine must find
	// something very close.
	h := gridHypergraph(500)
	_, cut := bipartition(h, 0.03, rand.New(rand.NewSource(3)), ConfigMondriaanLike())
	if cut > 4 {
		t.Fatalf("chain cut = %d, want <= 4", cut)
	}
}

func TestBipartitionAltConfig(t *testing.T) {
	h := gridHypergraph(300)
	parts, cut := bipartition(h, 0.03, rand.New(rand.NewSource(4)), ConfigAlt())
	if cut != h.ConnectivityMinusOne(parts, 2) {
		t.Fatal("alt config cut inconsistent")
	}
	if cut > 6 {
		t.Fatalf("alt config chain cut = %d, want <= 6", cut)
	}
	w := h.PartWeights(parts, 2)
	caps := balancedCaps(h.TotalWeight(), 0.03)
	if w[0] > caps[0] || w[1] > caps[1] {
		t.Fatalf("alt config violates balance: %v > %v", w, caps)
	}
}

func TestBipartitionCapsUneven(t *testing.T) {
	h := gridHypergraph(300)
	total := h.TotalWeight()
	// 1/4 - 3/4 split
	maxW := [2]int64{total/4 + total/40, 3*total/4 + total/40}
	parts, _ := Bipartition(context.Background(), h, maxW, rand.New(rand.NewSource(6)), ConfigMondriaanLike(), nil, nil)
	w := h.PartWeights(parts, 2)
	if w[0] > maxW[0] || w[1] > maxW[1] {
		t.Fatalf("uneven caps violated: %v > %v", w, maxW)
	}
	if w[0] == 0 || w[1] == 0 {
		t.Fatalf("degenerate uneven split: %v", w)
	}
}

func TestBipartitionEmptyAndTiny(t *testing.T) {
	empty := hypergraph.NewBuilder(0, nil).Build()
	parts, cut := bipartition(empty, 0.03, rand.New(rand.NewSource(1)), Config{})
	if len(parts) != 0 || cut != 0 {
		t.Fatal("empty hypergraph mishandled")
	}

	single := hypergraph.NewBuilder(1, []int64{5}).Build()
	parts, cut = bipartition(single, 0.03, rand.New(rand.NewSource(1)), Config{})
	if len(parts) != 1 || cut != 0 {
		t.Fatal("single vertex mishandled")
	}

	b := hypergraph.NewBuilder(2, []int64{1, 1})
	b.AddNetInts([]int{0, 1})
	two := b.Build()
	parts, cut = bipartition(two, 0.03, rand.New(rand.NewSource(1)), Config{})
	// the only balanced bipartition cuts the single net
	if parts[0] == parts[1] {
		t.Fatalf("two-vertex hypergraph not split: %v", parts)
	}
	if cut != 1 {
		t.Fatalf("cut = %d, want 1", cut)
	}
}

func TestMatchProducesValidPairs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomHypergraph(rng, 30, 20)
		vmap, numCoarse := match(h, rng, ConfigMondriaanLike(), h.TotalWeight(), nil)
		if numCoarse > h.NumVerts || numCoarse < (h.NumVerts+1)/2 {
			return false
		}
		// every coarse id in range, each coarse vertex has 1 or 2 fines
		counts := make([]int, numCoarse)
		for _, cv := range vmap {
			if cv < 0 || int(cv) >= numCoarse {
				return false
			}
			counts[cv]++
		}
		for _, c := range counts {
			if c < 1 || c > 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMatchRandomProducesValidPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := randomHypergraph(rng, 40, 25)
	cfg := ConfigAlt()
	vmap, numCoarse := match(h, rng, cfg, h.TotalWeight(), nil)
	counts := make([]int, numCoarse)
	for _, cv := range vmap {
		counts[cv]++
	}
	for _, c := range counts {
		if c < 1 || c > 2 {
			t.Fatalf("coarse cluster size %d", c)
		}
	}
}

// TestContractPreservesWeightAndCut contracts a random hypergraph
// twice, so the second contraction merges nets that already carry
// weights, and checks every coarse level against the fine hypergraph:
// vertex weight is preserved, the coarse cut of any partition equals
// the fine cut of its projection, no two coarse nets share a pin set,
// and the total net weight counts the fine nets that keep at least two
// coarse pins.
func TestContractPreservesWeightAndCut(t *testing.T) {
	merged := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomHypergraph(rng, 40, 60)
		// fineToCoarse maps each fine vertex through every level so far.
		fineToCoarse := make([]int32, h.NumVerts)
		for v := range fineToCoarse {
			fineToCoarse[v] = int32(v)
		}
		cur := h
		for lvl := 0; lvl < 2; lvl++ {
			vmap, numCoarse := match(cur, rng, ConfigMondriaanLike(), cur.TotalWeight(), nil)
			coarse := contract(cur, vmap, numCoarse, nil)
			for v := range fineToCoarse {
				fineToCoarse[v] = vmap[fineToCoarse[v]]
			}
			if err := coarse.Validate(); err != nil {
				t.Logf("seed %d level %d: %v", seed, lvl, err)
				return false
			}
			if coarse.TotalWeight() != h.TotalWeight() {
				return false
			}
			// A coarse partition induces a fine partition with equal cut
			// (single-pin coarse nets were dropped because they are
			// uncut; merged nets count once per fine net they absorbed).
			for trial := 0; trial < 4; trial++ {
				cparts := randomBipartitionOf(rng, coarse)
				fparts := make([]int, h.NumVerts)
				for v := range fparts {
					fparts[v] = cparts[fineToCoarse[v]]
				}
				if coarse.ConnectivityMinusOne(cparts, 2) != h.ConnectivityMinusOne(fparts, 2) {
					t.Logf("seed %d level %d: coarse cut differs from projected fine cut", seed, lvl)
					return false
				}
			}
			seen := make(map[string]bool, coarse.NumNets)
			var totalWt int64
			for n := 0; n < coarse.NumNets; n++ {
				pins := append([]int32(nil), coarse.NetPins(n)...)
				slices.Sort(pins)
				key := fmt.Sprint(pins)
				if seen[key] {
					t.Logf("seed %d level %d: pin set %s kept twice", seed, lvl, key)
					return false
				}
				seen[key] = true
				totalWt += int64(coarse.NetWeight(n))
				if coarse.NetWeight(n) > 1 {
					merged++
				}
			}
			var surviving int64
			for n := 0; n < h.NumNets; n++ {
				set := map[int32]bool{}
				for _, v := range h.NetPins(n) {
					set[fineToCoarse[v]] = true
				}
				if len(set) >= 2 {
					surviving++
				}
			}
			if totalWt != surviving {
				t.Logf("seed %d level %d: net weight %d, surviving fine nets %d", seed, lvl, totalWt, surviving)
				return false
			}
			cur = coarse
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
	if merged == 0 {
		t.Fatal("no contraction merged a net; the test exercises nothing")
	}
}

func TestMatchRespectsClusterWeightCap(t *testing.T) {
	// two heavy vertices sharing a net must not merge under a small cap
	b := hypergraph.NewBuilder(2, []int64{10, 10})
	b.AddNetInts([]int{0, 1})
	h := b.Build()
	rng := rand.New(rand.NewSource(2))
	vmap, numCoarse := match(h, rng, ConfigMondriaanLike(), 15, nil)
	if numCoarse != 2 || vmap[0] == vmap[1] {
		t.Fatal("cluster weight cap violated")
	}
}

func TestCoarsenStops(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := gridHypergraph(1000)
	levels := coarsen(context.Background(), h, 0.03, rng, ConfigMondriaanLike(), nil)
	if len(levels) == 0 {
		t.Fatal("no coarsening on a 1000-vertex instance")
	}
	last := levels[len(levels)-1].coarse
	if last.NumVerts > 1000 {
		t.Fatal("coarsening grew the instance")
	}
	// each level must shrink
	prev := h.NumVerts
	for _, l := range levels {
		if l.coarse.NumVerts >= prev {
			t.Fatalf("level did not shrink: %d -> %d", prev, l.coarse.NumVerts)
		}
		prev = l.coarse.NumVerts
	}
}

func TestGreedyGrowCoversAllVertices(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	h := gridHypergraph(100)
	maxW := balancedCaps(h.TotalWeight(), 0.03)
	parts := greedyGrow(h, maxW, rng)
	var w [2]int64
	for v, p := range parts {
		if p != 0 && p != 1 {
			t.Fatalf("vertex %d part %d", v, p)
		}
		w[p] += h.VertWt[v]
	}
	if w[0] == 0 || w[1] == 0 {
		t.Fatalf("degenerate greedy growth: %v", w)
	}
	if w[0] > maxW[0] {
		t.Fatalf("grown side overweight: %d > %d", w[0], maxW[0])
	}
}

// TestGreedyGrowUnevenCaps: under the 2:1 caps of a three-part
// recursive-bisection node (and their mirror), the grown start fits both
// caps, so no try falls back to exact rebalancing passes. Growing part 0
// to half the weight overloads part 1, whose cap is about a third.
func TestGreedyGrowUnevenCaps(t *testing.T) {
	h := hypergraph.RowNet(gen.Laplacian2D(30, 30))
	total := float64(h.TotalWeight())
	wide, narrow := int64(1.03*total*2/3), int64(1.03*total/3)
	for _, maxW := range [][2]int64{{wide, narrow}, {narrow, wide}} {
		for seed := int64(1); seed <= 5; seed++ {
			parts := greedyGrow(h, maxW, rand.New(rand.NewSource(seed)))
			if over := overloadOf(h, parts, maxW); over != 0 {
				t.Errorf("caps %v, seed %d: grown start overloaded by %d (part weights %v)", maxW, seed, over, h.PartWeights(parts, 2))
			}
		}
	}
}

func TestCapsToEps(t *testing.T) {
	h := gridHypergraph(10)
	tw := h.TotalWeight()
	eps := capsToEps(h, [2]int64{tw, tw})
	if eps < 0.9 { // caps = total => eps ≈ 1
		t.Fatalf("eps = %g, want ~1", eps)
	}
	if e := capsToEps(h, [2]int64{tw / 4, tw / 4}); e != 0 {
		t.Fatalf("infeasible caps eps = %g, want clamp to 0", e)
	}
}

func TestZeroWeightVerticesHandled(t *testing.T) {
	// isolated zero-weight vertices (pruned dummies) must not break
	// partitioning
	b := hypergraph.NewBuilder(5, []int64{0, 3, 3, 0, 3})
	b.AddNetInts([]int{1, 2})
	b.AddNetInts([]int{2, 4})
	h := b.Build()
	parts, cut := bipartition(h, 0.2, rand.New(rand.NewSource(3)), ConfigMondriaanLike())
	if cut != h.ConnectivityMinusOne(parts, 2) {
		t.Fatal("cut inconsistent with zero-weight vertices")
	}
}
