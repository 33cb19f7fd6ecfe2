package core

import (
	"context"
	"math/rand"
	"testing"

	"mediumgrain/internal/corpus"
	"mediumgrain/internal/gen"
	"mediumgrain/internal/metrics"
)

func BenchmarkSplitAlgorithm1(b *testing.B) {
	a := gen.PowerLawGraph(rand.New(rand.NewSource(1)), 5000, 4)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Split(a, SplitNNZ, rng)
	}
}

func BenchmarkSplitParallel(b *testing.B) {
	a := gen.PowerLawGraph(rand.New(rand.NewSource(1)), 5000, 4)
	for _, workers := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "w1", 2: "w2", 4: "w4"}[workers], func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			for i := 0; i < b.N; i++ {
				SplitParallel(a, rng, workers)
			}
		})
	}
}

// benchmarkRecursive times Engine.Partition at the given p and worker
// count; workers=1 is the sequential execution of the pool, so the
// w1-vs-wN sub-benchmark ratio is the engine's parallel speedup, and w0
// is the same algorithm inline with no pool at all.
func benchmarkRecursive(b *testing.B, p, workers int) {
	a := gen.Laplacian2D(90, 90)
	eng := NewEngine(workers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Partition(context.Background(), a, p, MethodMediumGrain, DefaultOptions(), rand.New(rand.NewSource(42))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRootBisection times the root bisection of a mesh-huge call:
// Engine.Bipartition of the 330x330 Laplacian (543,180 nonzeros) with MG
// on an inline engine. Every Partition of that mesh runs this bisection
// before its two halves can fork, so it is the serial critical path of
// the call at any worker count. Iteration i uses seed i+1.
func BenchmarkRootBisection(b *testing.B) {
	a := gen.Laplacian2D(330, 330)
	eng := NewEngine(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Bipartition(context.Background(), a, MethodMediumGrain, DefaultOptions(), rand.New(rand.NewSource(int64(i+1)))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitionCorpusMix partitions the inputs of perfbench's
// corpus-mix workload once per iteration: the 30 scale-2 corpus matrices
// (corpus seed 1) at p ∈ {2, 8, 16} with MG on one two-worker engine,
// input k with seed k+1. The inputs are small and cache-resident, so a
// bisection node's fixed cost shows. It reports the summed volume.
func BenchmarkPartitionCorpusMix(b *testing.B) {
	instances := corpus.Build(corpus.Options{Scale: 2, Seed: 1})
	eng := NewEngine(2)
	var vol int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vol = 0
		seed := int64(1)
		for _, in := range instances {
			for _, p := range []int{2, 8, 16} {
				res, err := eng.Partition(context.Background(), in.A, p, MethodMediumGrain, DefaultOptions(), rand.New(rand.NewSource(seed)))
				if err != nil {
					b.Fatal(err)
				}
				vol += res.Volume
				seed++
			}
		}
	}
	b.ReportMetric(float64(vol), "volume")
}

func BenchmarkRecursiveP16(b *testing.B) {
	b.Run("w0", func(b *testing.B) { benchmarkRecursive(b, 16, 0) })
	b.Run("w1", func(b *testing.B) { benchmarkRecursive(b, 16, 1) })
	b.Run("wmax", func(b *testing.B) { benchmarkRecursive(b, 16, -1) })
}

func BenchmarkRecursiveP64(b *testing.B) {
	b.Run("w0", func(b *testing.B) { benchmarkRecursive(b, 64, 0) })
	b.Run("w1", func(b *testing.B) { benchmarkRecursive(b, 64, 1) })
	b.Run("wmax", func(b *testing.B) { benchmarkRecursive(b, 64, -1) })
}

func BenchmarkBuildBModel(b *testing.B) {
	a := gen.PowerLawGraph(rand.New(rand.NewSource(3)), 3000, 4)
	inRow := Split(a, SplitNNZ, rand.New(rand.NewSource(4)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildBModel(a, inRow); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIterativeRefine runs Algorithm 2 from the same weak
// row-net bipartition of a power-law graph and reports the refined
// volume.
func BenchmarkIterativeRefine(b *testing.B) {
	a := gen.PowerLawGraph(rand.New(rand.NewSource(5)), 1200, 4)
	base, err := bipartitionInline(a, MethodRowNet, DefaultOptions(), rand.New(rand.NewSource(6)))
	if err != nil {
		b.Fatal(err)
	}
	var vol int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts := iterativeRefineInline(a, base.Parts, DefaultOptions(), rand.New(rand.NewSource(int64(i))))
		vol = metrics.Volume(a, parts, 2)
	}
	b.ReportMetric(float64(vol), "volume")
}
