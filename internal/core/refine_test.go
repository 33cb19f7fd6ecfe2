package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"mediumgrain/internal/gen"
	"mediumgrain/internal/metrics"
	"mediumgrain/internal/sparse"
)

// feasibleRandomParts produces a random bipartition respecting the ε
// balance constraint.
func feasibleRandomParts(rng *rand.Rand, n int) []int {
	parts := make([]int, n)
	for k := range parts {
		parts[k] = k % 2 // perfectly balanced
	}
	rng.Shuffle(n, func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
	return parts
}

// TestIterativeRefineMonotone: the whole procedure is monotonically
// non-increasing in communication volume (paper §III-C).
func TestIterativeRefineMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomPattern(rng, 2+rng.Intn(15), 2+rng.Intn(15), 100)
		if a.NNZ() < 2 {
			return true
		}
		parts := feasibleRandomParts(rng, a.NNZ())
		before := metrics.Volume(a, parts, 2)
		refined := iterativeRefineInline(a, parts, DefaultOptions(), rng)
		after := metrics.Volume(a, refined, 2)
		return after <= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestIterativeRefineKeepsBalance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomPattern(rng, 2+rng.Intn(12), 2+rng.Intn(12), 80)
		if a.NNZ() < 2 {
			return true
		}
		parts := feasibleRandomParts(rng, a.NNZ())
		refined := iterativeRefineInline(a, parts, DefaultOptions(), rng)
		return metrics.CheckBalance(refined, 2, 0.03) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestIterativeRefineDoesNotTouchInput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := gen.Laplacian2D(8, 8)
	parts := feasibleRandomParts(rng, a.NNZ())
	orig := append([]int(nil), parts...)
	iterativeRefineInline(a, parts, DefaultOptions(), rng)
	for k := range parts {
		if parts[k] != orig[k] {
			t.Fatal("IterativeRefine mutated its input")
		}
	}
}

func TestIterativeRefineImprovesRandomPartition(t *testing.T) {
	// a random balanced partition of a mesh is terrible; IR must improve
	// it substantially (it runs full FM on the B hypergraph).
	rng := rand.New(rand.NewSource(6))
	a := gen.Laplacian2D(16, 16)
	parts := feasibleRandomParts(rng, a.NNZ())
	before := metrics.Volume(a, parts, 2)
	refined := iterativeRefineInline(a, parts, DefaultOptions(), rng)
	after := metrics.Volume(a, refined, 2)
	if after >= before {
		t.Fatalf("IR made no progress on a random mesh partition: %d -> %d", before, after)
	}
	if float64(after) > 0.8*float64(before) {
		t.Fatalf("IR improvement too small: %d -> %d", before, after)
	}
}

func TestIterativeRefineFixedPoint(t *testing.T) {
	// running IR twice must not find further improvement the second time
	// beyond what a fresh IR of the refined partition finds trivially
	// (both directions exhausted ⇒ volume stable).
	rng := rand.New(rand.NewSource(7))
	a := gen.PowerLawGraph(rng, 150, 3)
	parts := feasibleRandomParts(rng, a.NNZ())
	once := iterativeRefineInline(a, parts, DefaultOptions(), rng)
	v1 := metrics.Volume(a, once, 2)
	twice := iterativeRefineInline(a, once, DefaultOptions(), rng)
	v2 := metrics.Volume(a, twice, 2)
	if v2 > v1 {
		t.Fatalf("second IR increased volume: %d -> %d", v1, v2)
	}
}

func TestIterativeRefineZeroVolumeStable(t *testing.T) {
	// block-diagonal matrix split along blocks: volume 0 must stay 0.
	a := sparse.New(4, 4)
	a.AppendPattern(0, 0)
	a.AppendPattern(0, 1)
	a.AppendPattern(1, 0)
	a.AppendPattern(1, 1)
	a.AppendPattern(2, 2)
	a.AppendPattern(2, 3)
	a.AppendPattern(3, 2)
	a.AppendPattern(3, 3)
	a.Canonicalize()
	parts := make([]int, a.NNZ())
	for k := range parts {
		if a.RowIdx[k] >= 2 {
			parts[k] = 1
		}
	}
	if metrics.Volume(a, parts, 2) != 0 {
		t.Fatal("setup: expected zero volume")
	}
	rng := rand.New(rand.NewSource(8))
	refined := iterativeRefineInline(a, parts, DefaultOptions(), rng)
	if v := metrics.Volume(a, refined, 2); v != 0 {
		t.Fatalf("IR broke a perfect partition: volume %d", v)
	}
	if err := metrics.CheckBalance(refined, 2, 0.03); err != nil {
		t.Fatal(err)
	}
}

func TestIterativeRefineTinyInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// empty
	a := sparse.New(2, 2)
	if got := iterativeRefineInline(a, nil, DefaultOptions(), rng); len(got) != 0 {
		t.Fatal("empty refine produced parts")
	}
	// single nonzero
	b := sparse.New(2, 2)
	b.AppendPattern(0, 0)
	got := iterativeRefineInline(b, []int{0}, DefaultOptions(), rng)
	if len(got) != 1 {
		t.Fatal("single-nonzero refine wrong length")
	}
}

// TestRefineOnceBothDirections: one Algorithm 2 iteration in either
// direction never raises the volume, and the volume it returns (the FM
// run's cut) is the recount of the parts it decodes to.
func TestRefineOnceBothDirections(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := gen.Laplacian2D(10, 10)
	parts := feasibleRandomParts(rng, a.NNZ())
	v0 := metrics.Volume(a, parts, 2)
	sc := new(scratch)
	ix := sc.index(a)
	for dir := 0; dir < 2; dir++ {
		next, vol, ok := refineOnce(context.Background(), a, parts, dir, DefaultOptions(), rng, ix, sc)
		if !ok {
			t.Fatalf("refineOnce dir=%d failed", dir)
		}
		v := metrics.Volume(a, next, 2)
		if v > v0 {
			t.Fatalf("refineOnce dir=%d increased volume %d -> %d", dir, v0, v)
		}
		if vol != v {
			t.Fatalf("refineOnce dir=%d returned volume %d, recount %d", dir, vol, v)
		}
	}
}
