package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mediumgrain/internal/gen"
	"mediumgrain/internal/hgpart"
	"mediumgrain/internal/metrics"
	"mediumgrain/internal/pool"
	"mediumgrain/internal/sparse"
)

func parallelTestMatrices() map[string]*sparse.Matrix {
	rng := rand.New(rand.NewSource(99))
	return map[string]*sparse.Matrix{
		"lap2d":    gen.Laplacian2D(18, 18),
		"powerlaw": gen.PowerLawGraph(rng, 300, 4),
		"rect":     gen.ErdosRenyi(rng, 150, 260, 0.012),
	}
}

// partitionInline, bipartitionInline and the other *Inline helpers run
// one request on an inline engine (a nil pool) — the same algorithm every
// pool size runs — for tests that do not exercise concurrency.
func partitionInline(a *sparse.Matrix, p int, method Method, opts Options, rng *rand.Rand) (*Result, error) {
	return NewEngine(0).Partition(context.Background(), a, p, method, opts, rng)
}

func bipartitionInline(a *sparse.Matrix, method Method, opts Options, rng *rand.Rand) (*Result, error) {
	return NewEngine(0).Bipartition(context.Background(), a, method, opts, rng)
}

func iterativeRefineInline(a *sparse.Matrix, parts []int, opts Options, rng *rand.Rand) []int {
	out, _, _ := NewEngine(0).IterativeRefine(context.Background(), a, parts, opts, rng)
	return out
}

// TestPartitionParallelEquivalence is the determinism contract of the
// one partitioning algorithm: for every method, FM mode (default,
// ParallelFM) and refinement setting, Engine.Partition returns
// bit-identical parts per seed at every worker count — 0 (inline)
// included — and every result is a valid p-way partitioning within ε
// whose reported volume matches an independent recount.
func TestPartitionParallelEquivalence(t *testing.T) {
	const p = 8
	methods := []Method{MethodRowNet, MethodColNet, MethodLocalBest, MethodFineGrain, MethodMediumGrain}
	modes := map[string]func(*hgpart.Config){
		"default":    func(*hgpart.Config) {},
		"parallelfm": func(c *hgpart.Config) { c.ParallelFM = true },
	}
	workerCounts := []int{0, 1, 2, 8}
	engines := make([]*Engine, len(workerCounts))
	for i, w := range workerCounts {
		engines[i] = NewEngine(w)
	}
	seeds := []int64{1, 17}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for name, a := range parallelTestMatrices() {
		for _, method := range methods {
			for mode, set := range modes {
				for _, refine := range []bool{false, true} {
					for _, seed := range seeds {
						opts := DefaultOptions()
						set(&opts.Config)
						opts.Refine = refine
						tag := fmt.Sprintf("%s/%v/%s/refine=%v/seed=%d", name, method, mode, refine, seed)
						var ref *Result
						for i, eng := range engines {
							res, err := eng.Partition(context.Background(), a, p, method, opts, rand.New(rand.NewSource(seed)))
							if err != nil {
								t.Fatalf("%s/w=%d: %v", tag, workerCounts[i], err)
							}
							if ref == nil {
								ref = res
								if err := metrics.ValidateParts(a, res.Parts, p); err != nil {
									t.Errorf("%s: %v", tag, err)
								}
								if err := metrics.CheckBalance(res.Parts, p, opts.Eps); err != nil {
									t.Errorf("%s: %v", tag, err)
								}
								if v := metrics.Volume(a, res.Parts, p); v != res.Volume {
									t.Errorf("%s: reported volume %d != recount %d", tag, res.Volume, v)
								}
								continue
							}
							if !reflect.DeepEqual(res.Parts, ref.Parts) || res.Volume != ref.Volume {
								t.Errorf("%s: workers=%d differs from workers=%d (volume %d vs %d)",
									tag, workerCounts[i], workerCounts[0], res.Volume, ref.Volume)
							}
						}
					}
				}
			}
		}
	}
}

// TestPartitionParallelValid checks the engine against the paper's
// constraints: every partitioning on a GOMAXPROCS pool must be a valid
// p-way assignment within the balance budget, for non-power-of-two p
// too.
func TestPartitionParallelValid(t *testing.T) {
	eng := NewEngine(-1)
	for name, a := range parallelTestMatrices() {
		for _, p := range []int{2, 5, 16} {
			opts := DefaultOptions()
			res, err := eng.Partition(context.Background(), a, p, MethodMediumGrain, opts, rand.New(rand.NewSource(3)))
			if err != nil {
				t.Fatalf("%s/p=%d: %v", name, p, err)
			}
			if err := metrics.ValidateParts(a, res.Parts, p); err != nil {
				t.Errorf("%s/p=%d: %v", name, p, err)
			}
			if err := metrics.CheckBalance(res.Parts, p, opts.Eps); err != nil {
				t.Errorf("%s/p=%d: %v", name, p, err)
			}
			if got := metrics.Volume(a, res.Parts, p); got != res.Volume {
				t.Errorf("%s/p=%d: reported volume %d != recomputed %d", name, p, res.Volume, got)
			}
		}
	}
}

// TestBipartitionParallelEquivalence covers the p = 2 entry point, where
// the pool accelerates only the split, the multilevel partitioner and
// the metric evaluation.
func TestBipartitionParallelEquivalence(t *testing.T) {
	for name, a := range parallelTestMatrices() {
		for _, seed := range []int64{2, 29} {
			ref, err := bipartitionInline(a, MethodMediumGrain, DefaultOptions(), rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				got, err := NewEngine(workers).Bipartition(context.Background(), a, MethodMediumGrain, DefaultOptions(), rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Parts, ref.Parts) || got.Volume != ref.Volume {
					t.Errorf("%s/seed=%d: workers=%d bipartition differs from inline", name, seed, workers)
				}
			}
		}
	}
}

// TestSplitParallelPoolBitIdentical is the regression guard of the
// paper's §V claim as implemented here: SplitParallel (and its
// pool-sharing variant) stays bit-identical to the sequential Split for
// equal seeds, across worker counts and matrix shapes.
func TestSplitParallelPoolBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mats := map[string]*sparse.Matrix{
		"square": gen.PowerLawGraph(rng, 400, 4),
		"tall":   gen.ErdosRenyi(rng, 500, 90, 0.02),
		"wide":   gen.ErdosRenyi(rng, 90, 500, 0.02),
	}
	for name, a := range mats {
		for _, seed := range []int64{1, 2, 77} {
			seq := Split(a, SplitNNZ, rand.New(rand.NewSource(seed)))
			for _, workers := range []int{1, 2, 5} {
				par := SplitParallel(a, rand.New(rand.NewSource(seed)), workers)
				if !reflect.DeepEqual(par, seq) {
					t.Errorf("%s/seed=%d/workers=%d: SplitParallel differs from Split", name, seed, workers)
				}
			}
			pooled := SplitParallelPool(a, rand.New(rand.NewSource(seed)), pool.New(3))
			if !reflect.DeepEqual(pooled, seq) {
				t.Errorf("%s/seed=%d: SplitParallelPool differs from Split", name, seed)
			}
			nilPool := SplitParallelPool(a, rand.New(rand.NewSource(seed)), nil)
			if !reflect.DeepEqual(nilPool, seq) {
				t.Errorf("%s/seed=%d: SplitParallelPool(nil) differs from Split", name, seed)
			}
		}
	}
}
