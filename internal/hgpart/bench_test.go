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
		fmPass(context.Background(), s, rng, Config{}, nil, nil, false)
	}
}

func BenchmarkCoarsenOneLevel(b *testing.B) {
	h := benchHypergraph(b)
	rng := rand.New(rand.NewSource(3))
	cfg := ConfigMondriaanLike()
	maxClusterWt := balancedCaps(h.TotalWeight(), 0.03)[0] / 3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vmap, numCoarse := match(h, rng, cfg, maxClusterWt, nil, nil)
		contract(h, vmap, numCoarse, nil, nil)
	}
}

func BenchmarkVCycleRefine(b *testing.B) {
	h := benchHypergraph(b)
	maxW := balancedCaps(h.TotalWeight(), 0.03)
	base, _ := bipartition(h, 0.03, rand.New(rand.NewSource(4)), ConfigMondriaanLike())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts := append([]int(nil), base...)
		VCycleRefine(context.Background(), h, parts, maxW, rand.New(rand.NewSource(int64(i))), ConfigMondriaanLike(), nil)
	}
}
