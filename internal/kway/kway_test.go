package kway_test

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"mediumgrain/internal/core"
	"mediumgrain/internal/gen"
	"mediumgrain/internal/metrics"
	"mediumgrain/internal/sparse"

	. "mediumgrain/internal/kway"
)

func randomPattern(rng *rand.Rand, rows, cols, maxNNZ int) *sparse.Matrix {
	a := sparse.New(rows, cols)
	n := rng.Intn(maxNNZ + 1)
	for k := 0; k < n; k++ {
		a.AppendPattern(rng.Intn(rows), rng.Intn(cols))
	}
	a.Canonicalize()
	return a
}

func balancedRandomParts(rng *rand.Rand, n, p int) []int {
	parts := make([]int, n)
	for k := range parts {
		parts[k] = k % p
	}
	rng.Shuffle(n, func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
	return parts
}

func TestRefineMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomPattern(rng, 2+rng.Intn(15), 2+rng.Intn(15), 100)
		if a.NNZ() < 4 {
			return true
		}
		p := 2 + rng.Intn(4)
		parts := balancedRandomParts(rng, a.NNZ(), p)
		before := metrics.Volume(a, parts, p)
		after := RefineOn(context.Background(), a, parts, p, Options{Eps: 0.03}, rng, nil)
		if after != metrics.Volume(a, parts, p) {
			return false
		}
		return after <= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRefineKeepsBalance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomPattern(rng, 2+rng.Intn(12), 2+rng.Intn(12), 80)
		if a.NNZ() < 4 {
			return true
		}
		p := 2 + rng.Intn(3)
		parts := balancedRandomParts(rng, a.NNZ(), p)
		RefineOn(context.Background(), a, parts, p, Options{Eps: 0.03}, rng, nil)
		return metrics.CheckBalance(parts, p, 0.03) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRefineImprovesRandomPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := gen.Laplacian2D(16, 16)
	parts := balancedRandomParts(rng, a.NNZ(), 4)
	before := metrics.Volume(a, parts, 4)
	after := RefineOn(context.Background(), a, parts, 4, Options{Eps: 0.03}, rng, nil)
	if after >= before {
		t.Fatalf("no improvement: %d -> %d", before, after)
	}
	if float64(after) > 0.9*float64(before) {
		t.Fatalf("improvement too small: %d -> %d", before, after)
	}
}

func TestRefineAfterRecursiveBisection(t *testing.T) {
	// k-way refinement must never hurt the recursive-bisection result
	// and usually trims a little volume.
	rng := rand.New(rand.NewSource(2))
	a := gen.PowerLawGraph(rng, 300, 4)
	res, err := core.NewEngine(0).Partition(context.Background(), a, 8, core.MethodMediumGrain, core.DefaultOptions(), rng)
	if err != nil {
		t.Fatal(err)
	}
	parts := append([]int(nil), res.Parts...)
	after := RefineOn(context.Background(), a, parts, 8, Options{Eps: 0.03}, rng, nil)
	if after > res.Volume {
		t.Fatalf("k-way refinement worsened volume %d -> %d", res.Volume, after)
	}
	if err := metrics.CheckBalance(parts, 8, 0.03); err != nil {
		t.Fatal(err)
	}
}

func TestRefineTrivialInputs(t *testing.T) {
	a := sparse.New(3, 3)
	if v := RefineOn(context.Background(), a, nil, 4, Options{Eps: 0.03}, rand.New(rand.NewSource(3)), nil); v != 0 {
		t.Fatal("empty refine nonzero volume")
	}
	b := gen.Tridiagonal(10)
	parts := make([]int, b.NNZ())
	if v := RefineOn(context.Background(), b, parts, 1, Options{Eps: 0.03}, rand.New(rand.NewSource(3)), nil); v != 0 {
		t.Fatal("p=1 refine nonzero volume")
	}
}

func TestRefinePerfectPartitionStable(t *testing.T) {
	// disconnected blocks already perfectly split: volume stays 0
	a := gen.BlockDiagonal(rand.New(rand.NewSource(4)), 20, 2, 0)
	parts := make([]int, a.NNZ())
	for k := range parts {
		if a.RowIdx[k] >= 10 {
			parts[k] = 1
		}
	}
	if metrics.Volume(a, parts, 2) != 0 {
		t.Fatal("setup broken")
	}
	after := RefineOn(context.Background(), a, parts, 2, Options{Eps: 0.03}, rand.New(rand.NewSource(5)), nil)
	if after != 0 {
		t.Fatalf("perfect partition disturbed: volume %d", after)
	}
}

func TestRefineDefaultPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := gen.Laplacian2D(8, 8)
	parts := balancedRandomParts(rng, a.NNZ(), 2)
	// MaxPasses 0 coerces to the default
	RefineOn(context.Background(), a, parts, 2, Options{Eps: 0.03, MaxPasses: 0}, rng, nil)
	if err := metrics.CheckBalance(parts, 2, 0.03); err != nil {
		t.Fatal(err)
	}
}
