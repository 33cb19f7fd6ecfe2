package hgpart

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mediumgrain/internal/hypergraph"
	"mediumgrain/internal/pool"
)

// runBip runs one full multilevel bipartition with the given pool,
// returning the parts vector and cut.
func runBip(h *hypergraph.Hypergraph, cfg Config, pl *pool.Pool, seed int64) ([]int, int64) {
	rng := rand.New(rand.NewSource(seed))
	maxW := balancedCaps(h.TotalWeight(), 0.05)
	return Bipartition(context.Background(), h, maxW, rng, cfg, pl, &Scratch{})
}

// TestParallelFMDeterministicAcrossPoolSizes is the core contract of the
// ParallelFM mode: for a fixed seed the parts vector is bit-identical at
// every pool size (nil, 1, 2, 8) — in both ParallelFM settings. The
// instance is large enough (nv > raceMaxVerts) that the fine levels run
// serial passes and the coarse levels run try racing.
func TestParallelFMDeterministicAcrossPoolSizes(t *testing.T) {
	h := gridHypergraph(3 * raceMaxVerts / 2)
	for _, parallelFM := range []bool{false, true} {
		cfg := ConfigMondriaanLike()
		cfg.ParallelFM = parallelFM
		refParts, refCut := runBip(h, cfg, nil, 42)
		for _, workers := range []int{1, 2, 8} {
			parts, cut := runBip(h, cfg, pool.New(workers), 42)
			if cut != refCut || !reflect.DeepEqual(parts, refParts) {
				t.Fatalf("ParallelFM=%v: pool size %d diverged from nil pool (cut %d vs %d)",
					parallelFM, workers, cut, refCut)
			}
		}
	}
}

// TestParallelFMDeterministicRandomInstances fans the same contract over
// random hypergraphs small enough that refineRace handles every level.
func TestParallelFMDeterministicRandomInstances(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomHypergraph(rng, 200, 150)
		cfg := ConfigMondriaanLike()
		cfg.ParallelFM = true
		refParts, refCut := runBip(h, cfg, nil, seed)
		for _, workers := range []int{2, 5} {
			parts, cut := runBip(h, cfg, pool.New(workers), seed)
			if cut != refCut || !reflect.DeepEqual(parts, refParts) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelFMOffUnchanged guards the default path: with ParallelFM
// off no racing may fire, so a run must equal itself across pool sizes.
func TestParallelFMOffUnchanged(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomHypergraph(rng, 150, 100)
		cfg := ConfigMondriaanLike()
		refParts, refCut := runBip(h, cfg, nil, seed)
		parts, cut := runBip(h, cfg, pool.New(4), seed)
		return cut == refCut && reflect.DeepEqual(parts, refParts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestRefineRaceImprovesOrMatchesSerial checks the winner semantics of
// try racing: try 0 is the serial continuation, so from the same RNG state
// the raced result is never worse than a plain serial refine by
// (overload, cut), the caller's stream ends at exactly the serial-mode
// state, and the result is a consistent cut with feasible weights when
// the input was feasible.
func TestRefineRaceImprovesOrMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomHypergraph(rng, 100, 80)
		maxW := balancedCaps(h.TotalWeight(), 0.2)
		parts := randomBipartitionOf(rng, h)
		cfg := ConfigMondriaanLike()
		cfg.ParallelFM = true

		// Twin RNG streams: rngRace feeds refineRace, rngSerial feeds a
		// plain refine from the identical state and input partition.
		fork := rng.Int63()
		rngRace := rand.New(rand.NewSource(fork))
		rngSerial := rand.New(rand.NewSource(fork))
		serialParts := make([]int, len(parts))
		copy(serialParts, parts)
		scfg := cfg
		scfg.ParallelFM = false
		serialCut := refine(context.Background(), h, serialParts, maxW, rngSerial, scfg, nil, &Scratch{})
		serialOver := overloadOf(h, serialParts, maxW)

		cut := refineRace(context.Background(), h, parts, maxW, rngRace, cfg, nil)
		if cut != h.ConnectivityMinusOne(parts, 2) {
			return false
		}
		over := overloadOf(h, parts, maxW)
		if better(serialCut, serialOver, cut, over) {
			return false // racing lost to its own serial continuation
		}
		if rngRace.Int63() != rngSerial.Int63() {
			return false // the race moved the caller's stream
		}
		w := h.PartWeights(parts, 2)
		return w[0] <= maxW[0] && w[1] <= maxW[1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelFMStressRace hammers the concurrent racing tries on a
// real pool. Run under -race, any write overlap between tries, or
// between a try and the winner scan, is a detector hit.
func TestParallelFMStressRace(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	h := gridHypergraph(2 * raceMaxVerts)
	cfg := ConfigMondriaanLike()
	cfg.ParallelFM = true
	pl := pool.New(8)
	var refParts []int
	for i := 0; i < 4; i++ {
		parts, _ := runBip(h, cfg, pl, 7)
		if refParts == nil {
			refParts = parts
		} else if !reflect.DeepEqual(parts, refParts) {
			t.Fatalf("iteration %d diverged from iteration 0", i)
		}
	}
}
