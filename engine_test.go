package mediumgrain_test

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"

	"mediumgrain"
	"mediumgrain/internal/gen"
)

// TestEngineReuseIsStateless: back-to-back and repeated calls on one
// engine must not influence each other through the reused scratches.
func TestEngineReuseIsStateless(t *testing.T) {
	a := gen.Laplacian2D(16, 16)
	eng := mediumgrain.New(mediumgrain.EngineConfig{Workers: 2})
	req := mediumgrain.Request{Matrix: a, P: 4, Method: mediumgrain.MethodMediumGrain, Seed: 9}
	first, err := eng.Partition(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave other work that dirties the scratch pool.
	if _, err := eng.Partition(context.Background(), mediumgrain.Request{
		Matrix: gen.Laplacian2D(11, 23), P: 8, Method: mediumgrain.MethodFineGrain, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	second, err := eng.Partition(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Volume != second.Volume {
		t.Fatalf("repeat call changed volume: %d != %d", first.Volume, second.Volume)
	}
	for k := range first.Parts {
		if first.Parts[k] != second.Parts[k] {
			t.Fatalf("repeat call changed parts at %d", k)
		}
	}
}

// TestEngineRefineAndEvaluate: Refine never worsens the volume and
// Evaluate agrees with the free metric functions.
func TestEngineRefineAndEvaluate(t *testing.T) {
	a := gen.Laplacian2D(12, 12)
	eng := mediumgrain.New(mediumgrain.EngineConfig{Workers: 2})
	ctx := context.Background()

	res, err := eng.Partition(ctx, mediumgrain.Request{
		Matrix: a, P: 4, Method: mediumgrain.MethodRowNet, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := eng.Refine(ctx, mediumgrain.Request{Matrix: a, P: 4, Seed: 6, Parts: res.Parts})
	if err != nil {
		t.Fatal(err)
	}
	if refined.Volume > res.Volume {
		t.Fatalf("refine worsened volume: %d -> %d", res.Volume, refined.Volume)
	}
	ev, err := eng.Evaluate(ctx, mediumgrain.Request{Matrix: a, P: 4, Parts: refined.Parts})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Volume != mediumgrain.Volume(a, refined.Parts, 4) {
		t.Fatalf("evaluate volume %d != metric %d", ev.Volume, mediumgrain.Volume(a, refined.Parts, 4))
	}
	if ev.Imbalance != mediumgrain.Imbalance(refined.Parts, 4) {
		t.Fatal("evaluate imbalance disagrees with the metric function")
	}
	// Bipartition refine path (p = 2 runs Algorithm 2).
	bi, err := eng.Bipartition(ctx, mediumgrain.Request{Matrix: a, Method: mediumgrain.MethodColNet, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ir, err := eng.Refine(ctx, mediumgrain.Request{Matrix: a, Seed: 8, Parts: bi.Parts})
	if err != nil {
		t.Fatal(err)
	}
	if ir.Volume > bi.Volume {
		t.Fatalf("iterative refine worsened volume: %d -> %d", bi.Volume, ir.Volume)
	}
}

// TestEngineProgressEvents: the optional Progress callback sees every
// nonzero exactly once across partition events plus a final done event.
func TestEngineProgressEvents(t *testing.T) {
	a := gen.Laplacian2D(16, 16)
	eng := mediumgrain.New(mediumgrain.EngineConfig{Workers: 2})
	var leafNNZ atomic.Int64
	var doneSeen atomic.Bool
	_, err := eng.Partition(context.Background(), mediumgrain.Request{
		Matrix: a, P: 8, Method: mediumgrain.MethodMediumGrain, Seed: 3,
		Progress: func(ev mediumgrain.Event) {
			switch ev.Stage {
			case "partition":
				// CompletedNNZ is a running total; keep the max seen
				// (events from different workers may arrive out of
				// order).
				for {
					cur := leafNNZ.Load()
					if int64(ev.CompletedNNZ) <= cur || leafNNZ.CompareAndSwap(cur, int64(ev.CompletedNNZ)) {
						break
					}
				}
			case "done":
				doneSeen.Store(true)
			}
			if ev.TotalNNZ != a.NNZ() {
				t.Errorf("event total %d != nnz %d", ev.TotalNNZ, a.NNZ())
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := leafNNZ.Load(); got != int64(a.NNZ()) {
		t.Fatalf("partition events covered %d of %d nonzeros", got, a.NNZ())
	}
	if !doneSeen.Load() {
		t.Fatal("no done event")
	}
}

// TestEngineRequestValidation: nil matrices and mismatched parts are
// rejected, not partially executed.
func TestEngineRequestValidation(t *testing.T) {
	eng := mediumgrain.New(mediumgrain.EngineConfig{})
	ctx := context.Background()
	if _, err := eng.Partition(ctx, mediumgrain.Request{}); err == nil {
		t.Fatal("nil matrix accepted")
	}
	a := gen.Laplacian2D(6, 6)
	if _, err := eng.Refine(ctx, mediumgrain.Request{Matrix: a, Parts: []int{0, 1}}); err == nil {
		t.Fatal("short parts accepted by Refine")
	}
	if _, err := eng.Evaluate(ctx, mediumgrain.Request{Matrix: a, Parts: []int{0}}); err == nil {
		t.Fatal("short parts accepted by Evaluate")
	}
}

// TestEngineCancellationReturnsError: a pre-canceled context must stop
// the engine before any work and surface context.Canceled.
func TestEngineCancellationReturnsError(t *testing.T) {
	a := gen.Laplacian2D(20, 20)
	for _, workers := range []int{0, 2} {
		eng := mediumgrain.New(mediumgrain.EngineConfig{Workers: workers})
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := eng.Partition(ctx, mediumgrain.Request{
			Matrix: a, P: 8, Method: mediumgrain.MethodMediumGrain, Seed: 1,
		}); err != context.Canceled {
			t.Fatalf("workers=%d: want context.Canceled, got %v", workers, err)
		}
		if _, err := eng.Refine(ctx, mediumgrain.Request{
			Matrix: a, P: 4, Seed: 1, Parts: make([]int, a.NNZ()),
		}); err != context.Canceled {
			t.Fatalf("workers=%d refine: want context.Canceled, got %v", workers, err)
		}
	}
}

// TestEngineParallelFMDeterministic drives the ParallelFM knob through
// the public surface: for a fixed seed, engines at Workers ∈ {0, 1, 2,
// max} must produce identical parts vectors, with the flag both on and
// off.
func TestEngineParallelFMDeterministic(t *testing.T) {
	a := gen.Laplacian2D(40, 40)
	maxW := runtime.GOMAXPROCS(0)
	if maxW < 4 {
		maxW = 4
	}
	for _, parallelFM := range []bool{false, true} {
		pcfg := mediumgrain.MondriaanLikeConfig()
		pcfg.ParallelFM = parallelFM
		var ref *mediumgrain.Result
		for _, workers := range []int{0, 1, 2, maxW} {
			eng := mediumgrain.New(mediumgrain.EngineConfig{Workers: workers, Partitioner: pcfg})
			res, err := eng.Partition(context.Background(), mediumgrain.Request{
				Matrix: a, P: 8, Method: mediumgrain.MethodMediumGrain, Seed: 7,
			})
			if err != nil {
				t.Fatalf("parallelFM=%v workers=%d: %v", parallelFM, workers, err)
			}
			if ref == nil {
				ref = res
				continue
			}
			if res.Volume != ref.Volume {
				t.Fatalf("parallelFM=%v workers=%d: volume %d != %d", parallelFM, workers, res.Volume, ref.Volume)
			}
			for i := range res.Parts {
				if res.Parts[i] != ref.Parts[i] {
					t.Fatalf("parallelFM=%v workers=%d: parts diverge at %d", parallelFM, workers, i)
				}
			}
		}
	}
}
