package mediumgrain_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"mediumgrain"
	"mediumgrain/internal/gen"
)

// TestEngineSearchDeterministicWinner: a Search request returns a
// bit-identical winner across repeated runs and across Workers {1, max}.
func TestEngineSearchDeterministicWinner(t *testing.T) {
	a := gen.Laplacian2D(30, 30)
	maxW := runtime.GOMAXPROCS(0)
	if maxW < 2 {
		maxW = 4
	}
	req := mediumgrain.Request{
		Matrix: a, P: 4, Method: mediumgrain.MethodMediumGrain, Seed: 42,
		Search: mediumgrain.Search{Tries: 5},
	}
	var want *mediumgrain.Result
	for _, workers := range []int{1, maxW} {
		eng := mediumgrain.New(mediumgrain.EngineConfig{Workers: workers})
		for run := 0; run < 2; run++ {
			res, err := eng.Partition(context.Background(), req)
			if err != nil {
				t.Fatalf("workers=%d run=%d: %v", workers, run, err)
			}
			if want == nil {
				want = res
				continue
			}
			if res.Volume != want.Volume {
				t.Fatalf("workers=%d run=%d: volume %d != %d", workers, run, res.Volume, want.Volume)
			}
			for k := range want.Parts {
				if res.Parts[k] != want.Parts[k] {
					t.Fatalf("workers=%d run=%d: parts diverge at nonzero %d", workers, run, k)
				}
			}
		}
	}
}

// TestEngineSearchNeverWorseThanSingle: try 0 of the race runs the
// request's own seed, so the winner can only match or beat the plain
// single-run partitioning.
func TestEngineSearchNeverWorseThanSingle(t *testing.T) {
	a := gen.Laplacian2D(26, 26)
	eng := mediumgrain.New(mediumgrain.EngineConfig{Workers: 4})
	req := mediumgrain.Request{Matrix: a, P: 4, Method: mediumgrain.MethodMediumGrain, Seed: 11}
	single, err := eng.Partition(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	req.Search = mediumgrain.Search{Tries: 6}
	raced, err := eng.Partition(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if raced.Volume > single.Volume {
		t.Fatalf("search volume %d worse than single run %d", raced.Volume, single.Volume)
	}
}

// TestEngineSearchEvents: search progress events carry 1-based Try
// indices and a BestVolume stream ending at the winner's volume, and the
// final StageDone event names the winning try.
func TestEngineSearchEvents(t *testing.T) {
	a := gen.Laplacian2D(20, 20)
	eng := mediumgrain.New(mediumgrain.EngineConfig{Workers: 2})
	const tries = 4
	var (
		mu        sync.Mutex
		done      *mediumgrain.Event
		sawTry    = map[int]bool{}
		badTry    bool
		afterDone bool
	)
	res, err := eng.Partition(context.Background(), mediumgrain.Request{
		Matrix: a, P: 4, Method: mediumgrain.MethodMediumGrain, Seed: 2,
		Search: mediumgrain.Search{Tries: tries},
		Progress: func(ev mediumgrain.Event) {
			mu.Lock()
			defer mu.Unlock()
			if done != nil {
				afterDone = true
			}
			if ev.Try < 1 || ev.Try > tries {
				badTry = true
			} else {
				sawTry[ev.Try] = true
			}
			if ev.Stage == mediumgrain.StageDone {
				e := ev
				done = &e
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if badTry {
		t.Fatal("event with Try outside [1, Tries]")
	}
	if len(sawTry) != tries {
		t.Fatalf("events covered %d tries, want %d", len(sawTry), tries)
	}
	if done == nil {
		t.Fatal("no StageDone event")
	}
	if afterDone {
		t.Fatal("events delivered after StageDone")
	}
	if done.BestVolume != res.Volume {
		t.Fatalf("done event BestVolume %d != result volume %d", done.BestVolume, res.Volume)
	}
	if done.CompletedNNZ != a.NNZ() || done.TotalNNZ != a.NNZ() {
		t.Fatalf("done event counts %d/%d, want %d/%d", done.CompletedNNZ, done.TotalNNZ, a.NNZ(), a.NNZ())
	}
}

// TestEngineSearchCancel: canceling mid-race surfaces context.Canceled
// and leaves the engine usable (root-level mirror of the core test).
func TestEngineSearchCancel(t *testing.T) {
	a := gen.Laplacian2D(48, 48)
	eng := mediumgrain.New(mediumgrain.EngineConfig{Workers: 2})
	req := mediumgrain.Request{
		Matrix: a, P: 16, Method: mediumgrain.MethodMediumGrain, Seed: 1,
		Search: mediumgrain.Search{Tries: 4},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Partition(ctx, req); err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, err := eng.Partition(context.Background(), req); err != nil {
		t.Fatalf("engine unusable after canceled search: %v", err)
	}
}

// TestEngineTypedErrors: the exported error types let callers branch on
// kind — ErrNoMatrix, *PartsLengthError, *BipartitionPError.
func TestEngineTypedErrors(t *testing.T) {
	eng := mediumgrain.New(mediumgrain.EngineConfig{})
	ctx := context.Background()
	a := gen.Laplacian2D(6, 6)

	for name, err := range map[string]error{
		"Partition":   firstErr(eng.Partition(ctx, mediumgrain.Request{})),
		"Bipartition": firstErr(eng.Bipartition(ctx, mediumgrain.Request{})),
	} {
		if !errors.Is(err, mediumgrain.ErrNoMatrix) {
			t.Fatalf("%s without matrix: want ErrNoMatrix, got %v", name, err)
		}
	}
	var ple *mediumgrain.PartsLengthError
	_, err := eng.Refine(ctx, mediumgrain.Request{Matrix: a, Parts: []int{0, 1}})
	if !errors.As(err, &ple) {
		t.Fatalf("Refine short parts: want *PartsLengthError, got %v", err)
	}
	if ple.Got != 2 || ple.Want != a.NNZ() {
		t.Fatalf("PartsLengthError fields %+v, want Got=2 Want=%d", ple, a.NNZ())
	}
	_, err = eng.Evaluate(ctx, mediumgrain.Request{Matrix: a, Parts: []int{0}})
	if !errors.As(err, &ple) {
		t.Fatalf("Evaluate short parts: want *PartsLengthError, got %v", err)
	}
	var bpe *mediumgrain.BipartitionPError
	_, err = eng.Bipartition(ctx, mediumgrain.Request{Matrix: a, P: 4})
	if !errors.As(err, &bpe) {
		t.Fatalf("Bipartition P=4: want *BipartitionPError, got %v", err)
	}
	if bpe.P != 4 {
		t.Fatalf("BipartitionPError.P = %d, want 4", bpe.P)
	}
	// P <= 2 stays accepted.
	for _, p := range []int{0, 1, 2} {
		if _, err := eng.Bipartition(ctx, mediumgrain.Request{Matrix: a, P: p, Seed: 1}); err != nil {
			t.Fatalf("Bipartition P=%d rejected: %v", p, err)
		}
	}
}

func firstErr[T any](_ T, err error) error { return err }
