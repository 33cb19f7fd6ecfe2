package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"mediumgrain/internal/gen"
)

// waitGoroutines polls until the goroutine count drops back to at most
// base (+slack for runtime helpers), failing the test otherwise.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC() // nudge finished goroutines off the scheduler
		if n := runtime.NumGoroutine(); n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, started with %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEngineCancelPromptCleanExit is the cancellation acceptance test:
// a mid-partition cancel on a large instance returns context.Canceled in
// well under the uncanceled wall time, leaks no goroutines, and leaves
// the engine's scratch free list balanced. Runs under -race in CI.
func TestEngineCancelPromptCleanExit(t *testing.T) {
	n := 180 // ~161k nonzeros
	if testing.Short() {
		n = 120 // keep the -race CI job fast; still >70k nonzeros
	}
	a := gen.Laplacian2D(n, n)
	eng := NewEngine(4)
	opts := DefaultOptions()
	baseGoroutines := runtime.NumGoroutine()

	// Reference wall time for the full computation.
	start := time.Now()
	if _, err := eng.Partition(context.Background(), a, 32, MethodMediumGrain, opts, rand.New(rand.NewSource(7))); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)
	if out := eng.scratchesOutstanding(); out != 0 {
		t.Fatalf("scratch free list unbalanced after full run: %d outstanding", out)
	}

	// Cancel early into the computation.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(full / 20)
		cancel()
	}()
	start = time.Now()
	res, err := eng.Partition(ctx, a, 32, MethodMediumGrain, opts, rand.New(rand.NewSource(7)))
	canceledAfter := time.Since(start)
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got res=%v err=%v", res, err)
	}
	// "Promptly": well under the uncanceled wall time. The bound is
	// deliberately loose (half) so slow CI machines never flake; in
	// practice the return lands within milliseconds of the cancel.
	if canceledAfter >= full/2 {
		t.Fatalf("canceled run took %v, uncanceled %v — cancellation is not prompt", canceledAfter, full)
	}
	if out := eng.scratchesOutstanding(); out != 0 {
		t.Fatalf("scratch free list unbalanced after cancel: %d outstanding", out)
	}
	waitGoroutines(t, baseGoroutines)

	// The engine stays usable after a canceled run, with bit-identical
	// results to an engine that never saw a cancel.
	again, err := eng.Partition(context.Background(), a, 32, MethodMediumGrain, opts, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewEngine(4).Partition(context.Background(), a, 32, MethodMediumGrain, opts, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if again.Volume != fresh.Volume {
		t.Fatalf("post-cancel volume %d != fresh engine %d", again.Volume, fresh.Volume)
	}
}

// TestEngineCancelSequential: the inline engine (workers 0) observes the
// context too (at bisection-node and FM boundaries).
func TestEngineCancelSequential(t *testing.T) {
	a := gen.Laplacian2D(100, 100)
	eng := NewEngine(0)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, err := eng.Partition(ctx, a, 64, MethodMediumGrain, DefaultOptions(), rand.New(rand.NewSource(3)))
	if err != context.Canceled {
		// A fast machine may legitimately finish first; only a wrong
		// error value is a failure.
		if err != nil {
			t.Fatalf("want context.Canceled or success, got %v", err)
		}
	}
}

// TestEngineCancelRefinePaths: IterativeRefine, KWayRefine, and Volume
// surface ctx.Err() when canceled beforehand.
func TestEngineCancelRefinePaths(t *testing.T) {
	a := gen.Laplacian2D(20, 20)
	eng := NewEngine(2)
	res, err := eng.Partition(context.Background(), a, 4, MethodMediumGrain, DefaultOptions(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := eng.IterativeRefine(ctx, a, res.Parts, DefaultOptions(), rand.New(rand.NewSource(2))); err != context.Canceled {
		t.Fatalf("IterativeRefine: want context.Canceled, got %v", err)
	}
	if _, err := eng.KWayRefine(ctx, a, append([]int(nil), res.Parts...), 4, 0.03, rand.New(rand.NewSource(2))); err != context.Canceled {
		t.Fatalf("KWayRefine: want context.Canceled, got %v", err)
	}
	if _, err := eng.Volume(ctx, a, res.Parts, 4); err != context.Canceled {
		t.Fatalf("Volume: want context.Canceled, got %v", err)
	}
}

// TestEngineConcurrentRunsIndependent: concurrent Partition calls on a
// shared engine (the mgserve pattern) produce the same bits as isolated
// runs, and canceling one run does not disturb the others.
func TestEngineConcurrentRunsIndependent(t *testing.T) {
	a := gen.Laplacian2D(40, 40)
	eng := NewEngine(4)
	want, err := eng.Partition(context.Background(), a, 8, MethodMediumGrain, DefaultOptions(), rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}

	const runs = 8
	type out struct {
		vol int64
		err error
	}
	results := make([]out, runs)
	canceledCtx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan int, runs)
	for i := 0; i < runs; i++ {
		go func(i int) {
			ctx := context.Background()
			if i%3 == 2 {
				ctx = canceledCtx
			}
			res, err := eng.Partition(ctx, a, 8, MethodMediumGrain, DefaultOptions(), rand.New(rand.NewSource(11)))
			if res != nil {
				results[i] = out{res.Volume, err}
			} else {
				results[i] = out{-1, err}
			}
			done <- i
		}(i)
	}
	for i := 0; i < runs; i++ {
		<-done
	}
	for i, r := range results {
		if i%3 == 2 {
			if r.err != context.Canceled {
				t.Fatalf("run %d: want context.Canceled, got %v", i, r.err)
			}
			continue
		}
		if r.err != nil {
			t.Fatalf("run %d: %v", i, r.err)
		}
		if r.vol != want.Volume {
			t.Fatalf("run %d: volume %d != %d — concurrent runs interfered", i, r.vol, want.Volume)
		}
	}
	if outst := eng.scratchesOutstanding(); outst != 0 {
		t.Fatalf("scratch free list unbalanced: %d outstanding", outst)
	}
}
