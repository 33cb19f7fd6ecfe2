package core

import (
	"context"
	"math/rand"
	"testing"

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

// BenchmarkRefinementFlavors contrasts Algorithm 2 (flat KL/FM) with the
// hMetis-style V-cycle refinement on the same weak starting partition —
// the ablation behind the paper's §III-C discussion.
func BenchmarkRefinementFlavors(b *testing.B) {
	a := gen.PowerLawGraph(rand.New(rand.NewSource(5)), 1200, 4)
	base, err := bipartitionInline(a, MethodRowNet, DefaultOptions(), rand.New(rand.NewSource(6)))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("algorithm2", func(b *testing.B) {
		var vol int64
		for i := 0; i < b.N; i++ {
			parts := iterativeRefineInline(a, base.Parts, DefaultOptions(), rand.New(rand.NewSource(int64(i))))
			vol = metrics.Volume(a, parts, 2)
		}
		b.ReportMetric(float64(vol), "volume")
	})
	b.Run("vcycle", func(b *testing.B) {
		var vol int64
		for i := 0; i < b.N; i++ {
			parts := vCycleRefineInline(a, base.Parts, DefaultOptions(), rand.New(rand.NewSource(int64(i))))
			vol = metrics.Volume(a, parts, 2)
		}
		b.ReportMetric(float64(vol), "volume")
	})
}

func BenchmarkFullIterative(b *testing.B) {
	a := gen.PowerLawGraph(rand.New(rand.NewSource(7)), 800, 4)
	for i := 0; i < b.N; i++ {
		if _, err := fullIterativeInline(a, 3, DefaultOptions(), rand.New(rand.NewSource(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}
