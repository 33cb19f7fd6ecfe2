package hgpart

import (
	"context"
	"math/rand"
	"testing"

	"mediumgrain/internal/gen"
	"mediumgrain/internal/hypergraph"
)

func benchHypergraph(b *testing.B) *hypergraph.Hypergraph {
	b.Helper()
	a := gen.PowerLawGraph(rand.New(rand.NewSource(1)), 2000, 4)
	return hypergraph.RowNet(a)
}

func BenchmarkBipartitionMondriaanLike(b *testing.B) {
	h := benchHypergraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bipartition(h, 0.03, rand.New(rand.NewSource(int64(i))), ConfigMondriaanLike())
	}
}

func BenchmarkBipartitionAlt(b *testing.B) {
	h := benchHypergraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bipartition(h, 0.03, rand.New(rand.NewSource(int64(i))), ConfigAlt())
	}
}

// BenchmarkInitialPartition times initial partitioning alone: the
// greedy tries and their FM on the coarsest level of benchHypergraph,
// which is coarsened once outside the timer. Every iteration draws the
// tries' seeds from the same RNG seed, and cut/op reports the winning
// try's cut.
func BenchmarkInitialPartition(b *testing.B) {
	h := benchHypergraph(b)
	cfg := ConfigMondriaanLike()
	maxW := balancedCaps(h.TotalWeight(), 0.03)
	var sc Scratch
	sc.reserve(h.NumVerts, h.NumNets)
	levels := coarsen(context.Background(), h, 0.03, rand.New(rand.NewSource(4)), cfg, &sc)
	coarsest := levels[len(levels)-1].coarse
	var parts []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts = initialPartition(context.Background(), coarsest, maxW, rand.New(rand.NewSource(5)), cfg, nil)
	}
	b.StopTimer()
	b.ReportMetric(float64(coarsest.ConnectivityMinusOne(parts, 2)), "cut/op")
}

func BenchmarkFMPass(b *testing.B) {
	h := benchHypergraph(b)
	rng := rand.New(rand.NewSource(2))
	parts := make([]int, h.NumVerts)
	for v := range parts {
		parts[v] = v % 2
	}
	maxW := balancedCaps(h.TotalWeight(), 0.03)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := newBipState(h, append([]int(nil), parts...), maxW)
		b.StartTimer()
		fmPass(context.Background(), s, rng, Config{}, nil, false)
	}
}

func BenchmarkCoarsenOneLevel(b *testing.B) {
	h := benchHypergraph(b)
	rng := rand.New(rand.NewSource(3))
	cfg := ConfigMondriaanLike()
	maxClusterWt := balancedCaps(h.TotalWeight(), 0.03)[0] / 3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vmap, numCoarse := match(h, rng, cfg, maxClusterWt, nil)
		contract(h, vmap, numCoarse, nil)
	}
}

// BenchmarkCoarsenHierarchy runs the whole coarsening hierarchy of the
// fine-grain model of a 120x120 Laplacian, as one multilevel bipartition
// does before initial partitioning. Unlike the row-net model above,
// this instance fills its coarse levels with nets that share a pin set,
// so the coarse-pins metric (summed over every coarse level) shows how
// much each level hands to the next.
func BenchmarkCoarsenHierarchy(b *testing.B) {
	h := hypergraph.FineGrain(gen.Laplacian2D(120, 120))
	cfg := ConfigMondriaanLike()
	var sc Scratch
	var pins int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.reserve(h.NumVerts, h.NumNets)
		levels := coarsen(context.Background(), h, 0.03, rand.New(rand.NewSource(3)), cfg, &sc)
		for _, l := range levels {
			pins += l.coarse.NumPins()
		}
	}
	b.ReportMetric(float64(pins)/float64(b.N), "coarse-pins/op")
}
