package core

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"mediumgrain/internal/gen"
)

// searchEqual fails the test unless the two results are bit-identical.
func searchEqual(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Volume != b.Volume {
		t.Fatalf("%s: volume %d != %d", label, a.Volume, b.Volume)
	}
	for k := range a.Parts {
		if a.Parts[k] != b.Parts[k] {
			t.Fatalf("%s: parts diverge at nonzero %d: %d != %d", label, k, a.Parts[k], b.Parts[k])
		}
	}
}

// TestSearchDeterministicAcrossRunsAndWorkers is the tentpole's core
// acceptance test: a Tries-N search returns a bit-identical winner (and
// winner try) across repeated runs and across worker counts, pruning
// included — a try that could still tie the incumbent is never pruned,
// so the race outcome does not depend on scheduling.
func TestSearchDeterministicAcrossRunsAndWorkers(t *testing.T) {
	a := gen.Laplacian2D(36, 36)
	spec := SearchSpec{Tries: 6}
	workers := []int{1, runtime.GOMAXPROCS(0)}
	if workers[1] < 2 {
		workers[1] = 4
	}

	var want *Result
	var wantTry int
	for _, w := range workers {
		eng := NewEngine(w)
		for run := 0; run < 3; run++ {
			res, rep, err := eng.PartitionSearch(context.Background(), a, 4, MethodMediumGrain, DefaultOptions(), 42, spec, nil)
			if err != nil {
				t.Fatalf("workers=%d run=%d: %v", w, run, err)
			}
			if rep.Tries != spec.Tries || rep.WinnerTry < 1 || rep.WinnerTry > spec.Tries {
				t.Fatalf("workers=%d run=%d: bad report %+v", w, run, rep)
			}
			if want == nil {
				want, wantTry = res, rep.WinnerTry
				continue
			}
			if rep.WinnerTry != wantTry {
				t.Fatalf("workers=%d run=%d: winner try %d != %d", w, run, rep.WinnerTry, wantTry)
			}
			searchEqual(t, "winner", res, want)
		}
		if out := eng.scratchesOutstanding(); out != 0 {
			t.Fatalf("workers=%d: scratch free list unbalanced: %d outstanding", w, out)
		}
	}
}

// TestSearchWinnerIsBestSingleRun: the search winner equals the best of
// the individual per-seed runs, under the lowest-volume-then-lowest-try
// tie-break — i.e. racing never returns a worse (or different) result
// than exhaustively running every variant.
func TestSearchWinnerIsBestSingleRun(t *testing.T) {
	a := gen.Laplacian2D(28, 28)
	const tries = 5
	const seed = 7
	eng := NewEngine(4)

	bestVol, bestTry := int64(-1), -1
	for i := 0; i < tries; i++ {
		res, err := eng.Partition(context.Background(), a, 4, MethodMediumGrain, DefaultOptions(), rand.New(rand.NewSource(seed+int64(i))))
		if err != nil {
			t.Fatal(err)
		}
		if bestTry < 0 || res.Volume < bestVol {
			bestVol, bestTry = res.Volume, i
		}
	}

	res, rep, err := eng.PartitionSearch(context.Background(), a, 4, MethodMediumGrain, DefaultOptions(), seed, SearchSpec{Tries: tries}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Volume != bestVol {
		t.Fatalf("search volume %d != best individual volume %d", res.Volume, bestVol)
	}
	if rep.WinnerTry != bestTry+1 {
		t.Fatalf("winner try %d != lowest best-volume try %d", rep.WinnerTry, bestTry+1)
	}
}

// TestSearchSingleTryMatchesPartition: Tries <= 1 degenerates to one
// plain run with the same bits as Engine.Partition on the same seed.
func TestSearchSingleTryMatchesPartition(t *testing.T) {
	a := gen.Laplacian2D(24, 24)
	eng := NewEngine(3)
	want, err := eng.Partition(context.Background(), a, 4, MethodMediumGrain, DefaultOptions(), rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tries := range []int{0, 1} {
		res, rep, err := eng.PartitionSearch(context.Background(), a, 4, MethodMediumGrain, DefaultOptions(), 9, SearchSpec{Tries: tries}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.WinnerTry != 1 || rep.Tries != 1 {
			t.Fatalf("tries=%d: report %+v, want single try", tries, rep)
		}
		searchEqual(t, "single-try", res, want)
	}
}

// TestSearchHooksObserveRace: OnTry fires once per try, the incumbent
// stream is monotone non-increasing, and pruned tries report volume -1
// while the report's Pruned count matches.
func TestSearchHooksObserveRace(t *testing.T) {
	a := gen.Laplacian2D(30, 30)
	eng := NewEngine(4)
	const tries = 6
	var (
		mu      sync.Mutex
		done    int
		pruned  int
		lastInc = int64(-1)
	)
	hooks := &SearchHooks{
		OnTry: func(try int, vol, best int64, bestTry int) {
			mu.Lock()
			defer mu.Unlock()
			done++
			if try < 1 || try > tries {
				t.Errorf("OnTry: try %d out of range", try)
			}
			if vol < 0 {
				pruned++
			}
			if best >= 0 && lastInc >= 0 && best > lastInc {
				t.Errorf("incumbent rose from %d to %d", lastInc, best)
			}
			if best >= 0 {
				lastInc = best
			}
		},
	}
	res, rep, err := eng.PartitionSearch(context.Background(), a, 8, MethodMediumGrain, DefaultOptions(), 3, SearchSpec{Tries: tries}, hooks)
	if err != nil {
		t.Fatal(err)
	}
	if done != tries {
		t.Fatalf("OnTry fired %d times, want %d", done, tries)
	}
	// Budgetless searches only ever report -1 for pruned tries.
	if pruned != rep.Pruned {
		t.Fatalf("hooks saw %d pruned tries, report says %d", pruned, rep.Pruned)
	}
	if lastInc != res.Volume {
		t.Fatalf("final incumbent %d != winner volume %d", lastInc, res.Volume)
	}
}

// TestSearchVaryFM: with VaryFM the race still returns the best variant
// deterministically, now over (seed, FM-mode) pairs.
func TestSearchVaryFM(t *testing.T) {
	a := gen.Laplacian2D(30, 30)
	eng := NewEngine(4)
	spec := SearchSpec{Tries: 4, VaryFM: true}
	first, rep1, err := eng.PartitionSearch(context.Background(), a, 4, MethodMediumGrain, DefaultOptions(), 5, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, rep2, err := eng.PartitionSearch(context.Background(), a, 4, MethodMediumGrain, DefaultOptions(), 5, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.WinnerTry != rep2.WinnerTry {
		t.Fatalf("VaryFM winner try unstable: %d then %d", rep1.WinnerTry, rep2.WinnerTry)
	}
	searchEqual(t, "vary-fm", first, second)
}

// TestSearchCancelPromptCleanExit mirrors TestEngineCancelPromptCleanExit
// for the race: a mid-race cancel stops every try promptly, returns
// context.Canceled, leaks no goroutines, leaves the scratch free list
// balanced, and the engine stays usable with bit-identical results.
func TestSearchCancelPromptCleanExit(t *testing.T) {
	n := 120
	if testing.Short() {
		n = 80
	}
	a := gen.Laplacian2D(n, n)
	eng := NewEngine(4)
	spec := SearchSpec{Tries: 6}
	baseGoroutines := runtime.NumGoroutine()

	start := time.Now()
	want, _, err := eng.PartitionSearch(context.Background(), a, 16, MethodMediumGrain, DefaultOptions(), 7, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)
	if out := eng.scratchesOutstanding(); out != 0 {
		t.Fatalf("scratch free list unbalanced after full search: %d outstanding", out)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(full / 20)
		cancel()
	}()
	start = time.Now()
	res, _, err := eng.PartitionSearch(ctx, a, 16, MethodMediumGrain, DefaultOptions(), 7, spec, nil)
	canceledAfter := time.Since(start)
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got res=%v err=%v", res, err)
	}
	if canceledAfter >= full/2 {
		t.Fatalf("canceled search took %v, uncanceled %v — cancellation is not prompt", canceledAfter, full)
	}
	if out := eng.scratchesOutstanding(); out != 0 {
		t.Fatalf("scratch free list unbalanced after cancel: %d outstanding", out)
	}
	waitGoroutines(t, baseGoroutines)

	again, _, err := eng.PartitionSearch(context.Background(), a, 16, MethodMediumGrain, DefaultOptions(), 7, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	searchEqual(t, "post-cancel", again, want)
}

// TestSearchBudget: an expiring budget returns the best completed try
// (flagging TimedOut) rather than an error, as long as one try finished;
// a budget that cannot fit any try yields context.DeadlineExceeded.
func TestSearchBudget(t *testing.T) {
	a := gen.Laplacian2D(60, 60)
	eng := NewEngine(2)

	// Far too tight for even one try on this instance.
	_, _, err := eng.PartitionSearch(context.Background(), a, 16, MethodMediumGrain, DefaultOptions(), 7, SearchSpec{Tries: 4, Budget: time.Nanosecond}, nil)
	if err != context.DeadlineExceeded {
		t.Fatalf("want context.DeadlineExceeded on hopeless budget, got %v", err)
	}
	if out := eng.scratchesOutstanding(); out != 0 {
		t.Fatalf("scratch free list unbalanced after budget expiry: %d outstanding", out)
	}

	// A generous budget changes nothing about the winner.
	want, _, err := eng.PartitionSearch(context.Background(), a, 4, MethodMediumGrain, DefaultOptions(), 7, SearchSpec{Tries: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, rep, err := eng.PartitionSearch(context.Background(), a, 4, MethodMediumGrain, DefaultOptions(), 7, SearchSpec{Tries: 3, Budget: time.Hour}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TimedOut {
		t.Fatal("generous budget reported TimedOut")
	}
	searchEqual(t, "budgeted", res, want)
}

// TestSearchSequentialEngine: an inline (workers 0) engine races tries
// one at a time, stays deterministic, and crowns the same winner as a
// pooled engine.
func TestSearchSequentialEngine(t *testing.T) {
	a := gen.Laplacian2D(20, 20)
	eng := NewEngine(0)
	spec := SearchSpec{Tries: 3}
	first, rep1, err := eng.PartitionSearch(context.Background(), a, 4, MethodMediumGrain, DefaultOptions(), 1, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, rep2, err := eng.PartitionSearch(context.Background(), a, 4, MethodMediumGrain, DefaultOptions(), 1, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.WinnerTry != rep2.WinnerTry {
		t.Fatalf("sequential winner try unstable: %d then %d", rep1.WinnerTry, rep2.WinnerTry)
	}
	searchEqual(t, "sequential", first, second)
	pooled, rep3, err := NewEngine(2).PartitionSearch(context.Background(), a, 4, MethodMediumGrain, DefaultOptions(), 1, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.WinnerTry != rep1.WinnerTry {
		t.Fatalf("pooled winner try %d != inline %d", rep3.WinnerTry, rep1.WinnerTry)
	}
	searchEqual(t, "pooled", pooled, first)
}
