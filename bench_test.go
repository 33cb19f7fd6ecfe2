// Benchmarks regenerating each table and figure of the paper at reduced
// scale (cmd/mgexp, whose command comment lists every experiment, runs
// the full-scale versions). Custom metrics are attached via b.ReportMetric so
// `go test -bench` output records the reproduced quantities:
//
//   - vol-rel-LB:  geometric-mean communication volume relative to the
//     localbest baseline (Table I / Table II rows);
//   - time-rel-LB: geometric-mean partitioning time relative to localbest;
//   - frac@1.2:    performance-profile fraction of MG+IR at τ = 1.2
//     (the headline reading of Fig. 4a).
package mediumgrain_test

import (
	"context"
	"math/rand"
	"testing"

	"mediumgrain"
	"mediumgrain/internal/corpus"
	"mediumgrain/internal/experiments"
	"mediumgrain/internal/gen"
	"mediumgrain/internal/hgpart"
)

// benchCorpus returns a reduced instance set so each benchmark iteration
// stays in the hundreds of milliseconds.
func benchCorpus(b *testing.B, n int) []corpus.Instance {
	b.Helper()
	instances := corpus.Build(corpus.DefaultOptions())
	if n > len(instances) {
		n = len(instances)
	}
	return instances[:n]
}

func sweep(b *testing.B, cfg hgpart.Config, p int, instances []corpus.Instance) []experiments.MatrixResult {
	b.Helper()
	opts := experiments.DefaultRunOptions()
	opts.Runs = 1
	opts.Config = cfg
	opts.P = p
	results, err := experiments.Run(instances, experiments.PaperMethods(), opts)
	if err != nil {
		b.Fatal(err)
	}
	return results
}

// BenchmarkFig3GD97Like regenerates the Fig. 3 anecdote: best volume over
// repeated runs of each method on the gd97_b stand-in.
func BenchmarkFig3GD97Like(b *testing.B) {
	var mgBest int64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3(10, 7, 0.03, hgpart.ConfigMondriaanLike())
		if err != nil {
			b.Fatal(err)
		}
		mgBest = res.BestVolume["mediumgrain"]
	}
	b.ReportMetric(float64(mgBest), "MG-best-vol")
}

// BenchmarkFig4Profiles regenerates the Fig. 4(a) volume profile and
// reports MG+IR's fraction at τ = 1.2 (≈0.9 in the paper).
func BenchmarkFig4Profiles(b *testing.B) {
	instances := benchCorpus(b, 8)
	var frac float64
	for i := 0; i < b.N; i++ {
		results := sweep(b, hgpart.ConfigMondriaanLike(), 2, instances)
		vt := experiments.VolumeTable(results, experiments.MethodNames(experiments.PaperMethods()))
		profiles := vt.Profiles([]float64{1.2})
		frac = profiles[3].Fraction[0] // MG+IR column
	}
	b.ReportMetric(frac, "frac@1.2")
}

// BenchmarkFig5TimeProfile regenerates the Fig. 5 partitioning-time
// profile, reporting the geometric-mean time of MG relative to LB
// (≈0.62 in the paper).
func BenchmarkFig5TimeProfile(b *testing.B) {
	instances := benchCorpus(b, 8)
	var rel float64
	for i := 0; i < b.N; i++ {
		results := sweep(b, hgpart.ConfigMondriaanLike(), 2, instances)
		tt := experiments.TimeTable(results, experiments.MethodNames(experiments.PaperMethods()))
		rel = tt.GeoMeanNormalized(0)[2] // MG column
	}
	b.ReportMetric(rel, "time-rel-LB")
}

// BenchmarkTable1GeoMeans regenerates Table I, reporting MG+IR's
// normalized volume over all matrices (0.73 in the paper).
func BenchmarkTable1GeoMeans(b *testing.B) {
	instances := benchCorpus(b, 8)
	var rel float64
	for i := 0; i < b.N; i++ {
		results := sweep(b, hgpart.ConfigMondriaanLike(), 2, instances)
		vt := experiments.VolumeTable(results, experiments.MethodNames(experiments.PaperMethods()))
		rel = vt.GeoMeanNormalized(0)[3] // MG+IR column
	}
	b.ReportMetric(rel, "vol-rel-LB")
}

// BenchmarkFig6AltPartitioner regenerates Fig. 6(a): volume profiles
// under the alternative ("PaToH-like") engine.
func BenchmarkFig6AltPartitioner(b *testing.B) {
	instances := benchCorpus(b, 6)
	var rel float64
	for i := 0; i < b.N; i++ {
		results := sweep(b, hgpart.ConfigAlt(), 2, instances)
		vt := experiments.VolumeTable(results, experiments.MethodNames(experiments.PaperMethods()))
		rel = vt.GeoMeanNormalized(0)[3]
	}
	b.ReportMetric(rel, "vol-rel-LB")
}

// BenchmarkTable2BSPCost regenerates Table II: BSP cost at p = 64 under
// the alternative engine (MG+IR ≈ 0.68 in the paper).
func BenchmarkTable2BSPCost(b *testing.B) {
	instances := benchCorpus(b, 4)
	var rel float64
	for i := 0; i < b.N; i++ {
		results := sweep(b, hgpart.ConfigAlt(), 64, instances)
		bt := experiments.BSPTable(results, experiments.MethodNames(experiments.PaperMethods()))
		rel = bt.GeoMeanNormalized(0)[3]
	}
	b.ReportMetric(rel, "cost-rel-LB")
}

// --- Ablations ---

// BenchmarkAblationInitialSplit compares Algorithm 1 against random and
// degenerate splits: the nnz-score split should produce lower volume.
func BenchmarkAblationInitialSplit(b *testing.B) {
	a := gen.PowerLawGraph(rand.New(rand.NewSource(1)), 600, 4)
	for _, s := range []struct {
		name  string
		split mediumgrain.SplitStrategy
	}{
		{"nnz", mediumgrain.SplitNNZ},
		{"random", mediumgrain.SplitRandom},
		{"allAc", mediumgrain.SplitAllAc},
	} {
		b.Run(s.name, func(b *testing.B) {
			var vol int64
			for i := 0; i < b.N; i++ {
				res, err := inline.Bipartition(context.Background(), mediumgrain.Request{
					Matrix: a, Method: mediumgrain.MethodMediumGrain, Seed: int64(i), Strategy: s.split,
				})
				if err != nil {
					b.Fatal(err)
				}
				vol = res.Volume
			}
			b.ReportMetric(float64(vol), "volume")
		})
	}
}

// BenchmarkAblationRefinement measures the cost/benefit of IR (paper:
// ~10% slower, ~20% lower volume).
func BenchmarkAblationRefinement(b *testing.B) {
	a := gen.PowerLawGraph(rand.New(rand.NewSource(21)), 900, 4)
	for _, refine := range []struct {
		name string
		on   bool
	}{{"withoutIR", false}, {"withIR", true}} {
		b.Run(refine.name, func(b *testing.B) {
			var vol int64
			for i := 0; i < b.N; i++ {
				res, err := inline.Bipartition(context.Background(), mediumgrain.Request{
					Matrix: a, Method: mediumgrain.MethodMediumGrain, Seed: int64(i), Refine: refine.on,
				})
				if err != nil {
					b.Fatal(err)
				}
				vol = res.Volume
			}
			b.ReportMetric(float64(vol), "volume")
		})
	}
}

// BenchmarkMethodSpeed times one bipartitioning run per method on a
// common matrix — the microscopic version of Fig. 5 (MG should be the
// fastest hypergraph method, FG the slowest).
func BenchmarkMethodSpeed(b *testing.B) {
	a := gen.PowerLawGraph(rand.New(rand.NewSource(2)), 1500, 4)
	for _, m := range []mediumgrain.Method{
		mediumgrain.MethodLocalBest, mediumgrain.MethodMediumGrain, mediumgrain.MethodFineGrain,
	} {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := inline.Bipartition(context.Background(), mediumgrain.Request{Matrix: a, Method: m, Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecursiveP64 times a full 64-way medium-grain partitioning.
func BenchmarkRecursiveP64(b *testing.B) {
	a := gen.Laplacian2D(40, 40)
	for i := 0; i < b.N; i++ {
		if _, err := inline.Partition(context.Background(), mediumgrain.Request{Matrix: a, P: 64, Method: mediumgrain.MethodMediumGrain, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpMV times the parallel SpMV substrate on a partitioned mesh.
func BenchmarkSpMV(b *testing.B) {
	a := gen.WithRandomValues(mediumgrain.NewRNG(3), gen.Laplacian2D(40, 40))
	res, err := inline.Partition(context.Background(), mediumgrain.Request{Matrix: a, P: 4, Method: mediumgrain.MethodMediumGrain, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	dist, err := mediumgrain.NewDistribution(a, res.Parts, 4)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, a.Cols)
	for j := range x {
		x[j] = float64(j)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := mediumgrain.RunSpMV(a, dist, x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIterativeRefine times IR as a standalone post-process.
func BenchmarkIterativeRefine(b *testing.B) {
	a := gen.PowerLawGraph(rand.New(rand.NewSource(5)), 1000, 4)
	base, err := inline.Bipartition(context.Background(), mediumgrain.Request{Matrix: a, Method: mediumgrain.MethodRowNet, Seed: 6})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inline.Refine(context.Background(), mediumgrain.Request{Matrix: a, Parts: base.Parts, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationKWay measures direct k-way refinement after recursive
// bisection: volume before vs after the greedy λ−1 pass.
func BenchmarkAblationKWay(b *testing.B) {
	a := gen.PowerLawGraph(rand.New(rand.NewSource(8)), 1200, 4)
	res, err := inline.Partition(context.Background(), mediumgrain.Request{Matrix: a, P: 16, Method: mediumgrain.MethodMediumGrain, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	var after int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref, err := inline.Refine(context.Background(), mediumgrain.Request{Matrix: a, P: 16, Parts: res.Parts, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		after = ref.Volume
	}
	b.ReportMetric(float64(res.Volume), "vol-before")
	b.ReportMetric(float64(after), "vol-after")
}

// BenchmarkAblationVectorOpt measures the BSP-cost gain of vector-owner
// local search over the greedy distribution.
func BenchmarkAblationVectorOpt(b *testing.B) {
	a := gen.Laplacian2D(40, 40)
	res, err := inline.Partition(context.Background(), mediumgrain.Request{Matrix: a, P: 16, Method: mediumgrain.MethodMediumGrain, Seed: 10})
	if err != nil {
		b.Fatal(err)
	}
	dist, err := mediumgrain.NewDistribution(a, res.Parts, 16)
	if err != nil {
		b.Fatal(err)
	}
	before := mediumgrain.BSPCost(a, res.Parts, 16)
	var after int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, after = mediumgrain.OptimizeVectorDistribution(a, res.Parts, 16, dist.Vector, 0)
	}
	b.ReportMetric(float64(before), "cost-before")
	b.ReportMetric(float64(after), "cost-after")
}

// BenchmarkLargeMesh bipartitions a ~1.25M-nonzero grid Laplacian — the
// paper's matrix-size regime (500 to 5M nonzeros) — with the
// medium-grain method.
func BenchmarkLargeMesh(b *testing.B) {
	a := gen.Laplacian2D(500, 500)
	b.ResetTimer()
	var vol int64
	for i := 0; i < b.N; i++ {
		res, err := inline.Bipartition(context.Background(), mediumgrain.Request{Matrix: a, Method: mediumgrain.MethodMediumGrain, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		vol = res.Volume
	}
	b.ReportMetric(float64(vol), "volume")
}
