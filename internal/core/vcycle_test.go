package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mediumgrain/internal/gen"
	"mediumgrain/internal/metrics"
)

func TestVCycleRefineMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomPattern(rng, 2+rng.Intn(12), 2+rng.Intn(12), 80)
		if a.NNZ() < 2 {
			return true
		}
		parts := feasibleRandomParts(rng, a.NNZ())
		before := metrics.Volume(a, parts, 2)
		refined := vCycleRefineInline(a, parts, DefaultOptions(), rng)
		after := metrics.Volume(a, refined, 2)
		return after <= before && metrics.CheckBalance(refined, 2, 0.03) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestVCycleRefineImprovesMesh(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := gen.Laplacian2D(16, 16)
	parts := feasibleRandomParts(rng, a.NNZ())
	before := metrics.Volume(a, parts, 2)
	refined := vCycleRefineInline(a, parts, DefaultOptions(), rng)
	after := metrics.Volume(a, refined, 2)
	if after >= before {
		t.Fatalf("V-cycle made no progress: %d -> %d", before, after)
	}
}

func TestVCycleRefineDoesNotTouchInput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := gen.Laplacian2D(8, 8)
	parts := feasibleRandomParts(rng, a.NNZ())
	orig := append([]int(nil), parts...)
	vCycleRefineInline(a, parts, DefaultOptions(), rng)
	for k := range parts {
		if parts[k] != orig[k] {
			t.Fatal("VCycleRefine mutated its input")
		}
	}
}

func TestVCycleVsFlatIR(t *testing.T) {
	// Both refinements are monotone; from the same weak start, neither
	// may end worse than the start, and both should land in the same
	// ballpark on a structured mesh.
	rng := rand.New(rand.NewSource(4))
	a := gen.Laplacian2D(14, 14)
	parts := feasibleRandomParts(rng, a.NNZ())
	before := metrics.Volume(a, parts, 2)
	flat := metrics.Volume(a, iterativeRefineInline(a, parts, DefaultOptions(), rand.New(rand.NewSource(5))), 2)
	vc := metrics.Volume(a, vCycleRefineInline(a, parts, DefaultOptions(), rand.New(rand.NewSource(5))), 2)
	if flat > before || vc > before {
		t.Fatalf("refinement regressed: start %d, flat %d, vcycle %d", before, flat, vc)
	}
}
