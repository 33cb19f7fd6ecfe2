package spmv

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mediumgrain/internal/core"
	"mediumgrain/internal/gen"
	"mediumgrain/internal/metrics"
	"mediumgrain/internal/sparse"
)

func randomValuedMatrix(rng *rand.Rand, rows, cols, maxNNZ int) *sparse.Matrix {
	a := sparse.New(rows, cols)
	n := rng.Intn(maxNNZ + 1)
	for k := 0; k < n; k++ {
		a.AppendPattern(rng.Intn(rows), rng.Intn(cols))
	}
	a.Canonicalize()
	a.Val = make([]float64, a.NNZ())
	for k := range a.Val {
		a.Val[k] = rng.NormFloat64()
	}
	return a
}

func randomVec(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func randomParts(rng *rand.Rand, n, p int) []int {
	parts := make([]int, n)
	for k := range parts {
		parts[k] = rng.Intn(p)
	}
	return parts
}

func TestNewDistributionValidates(t *testing.T) {
	a := randomValuedMatrix(rand.New(rand.NewSource(1)), 5, 5, 20)
	if a.NNZ() == 0 {
		t.Skip("degenerate sample")
	}
	if _, err := NewDistribution(a, make([]int, a.NNZ()+1), 2); err == nil {
		t.Fatal("wrong-length parts accepted")
	}
	bad := make([]int, a.NNZ())
	bad[0] = 5
	if _, err := NewDistribution(a, bad, 2); err == nil {
		t.Fatal("out-of-range part accepted")
	}
}

func TestRunRejectsBadVector(t *testing.T) {
	a := randomValuedMatrix(rand.New(rand.NewSource(2)), 4, 6, 15)
	dist, err := NewDistribution(a, make([]int, a.NNZ()), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Run(a, dist, make([]float64, 3)); err == nil {
		t.Fatal("wrong-length x accepted")
	}
}

// TestParallelMatchesSequential: the BSP SpMV must produce exactly the
// same result as the sequential CSR reference for any distribution.
func TestParallelMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomValuedMatrix(rng, 1+rng.Intn(12), 1+rng.Intn(12), 60)
		p := 1 + rng.Intn(5)
		parts := randomParts(rng, a.NNZ(), p)
		dist, err := NewDistribution(a, parts, p)
		if err != nil {
			return false
		}
		x := randomVec(rng, a.Cols)
		y, _, err := Run(a, dist, x)
		if err != nil {
			return false
		}
		ref := a.ToCSR().MulVec(x)
		for i := range y {
			if math.Abs(y[i]-ref[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestTrafficEqualsVolume: total observed traffic equals the model's
// communication volume (paper eqn (3)) under the greedy distribution.
func TestTrafficEqualsVolume(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomValuedMatrix(rng, 1+rng.Intn(12), 1+rng.Intn(12), 60)
		p := 2 + rng.Intn(4)
		parts := randomParts(rng, a.NNZ(), p)
		dist, err := NewDistribution(a, parts, p)
		if err != nil {
			return false
		}
		_, stats, err := Run(a, dist, randomVec(rng, a.Cols))
		if err != nil {
			return false
		}
		return stats.TotalWords() == metrics.Volume(a, parts, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestStatsBSPCostMatchesMetrics: the h-relations measured during the run
// agree with the statically computed BSP cost for the same distribution.
func TestStatsBSPCostMatchesMetrics(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomValuedMatrix(rng, 1+rng.Intn(10), 1+rng.Intn(10), 50)
		p := 2 + rng.Intn(3)
		parts := randomParts(rng, a.NNZ(), p)
		dist, err := NewDistribution(a, parts, p)
		if err != nil {
			return false
		}
		_, stats, err := Run(a, dist, randomVec(rng, a.Cols))
		if err != nil {
			return false
		}
		want := metrics.BSPCostWithDistribution(a, parts, p, dist.Vector)
		return stats.BSPCost() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleProcessorNoTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomValuedMatrix(rng, 10, 10, 40)
	dist, err := NewDistribution(a, make([]int, a.NNZ()), 1)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := Run(a, dist, randomVec(rng, a.Cols))
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalWords() != 0 || stats.BSPCost() != 0 {
		t.Fatalf("single processor communicated: %+v", stats)
	}
}

func TestLocalMultsMatchPartSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randomValuedMatrix(rng, 12, 12, 70)
	p := 3
	parts := randomParts(rng, a.NNZ(), p)
	dist, err := NewDistribution(a, parts, p)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := Run(a, dist, randomVec(rng, a.Cols))
	if err != nil {
		t.Fatal(err)
	}
	sizes := metrics.PartSizes(parts, p)
	for i := range sizes {
		if stats.LocalMults[i] != sizes[i] {
			t.Fatalf("proc %d did %d mults, owns %d nonzeros", i, stats.LocalMults[i], sizes[i])
		}
	}
}

func TestPartitionedSpMVEndToEnd(t *testing.T) {
	// full pipeline: generate, partition with medium-grain, distribute,
	// multiply, verify numerics and traffic
	rng := rand.New(rand.NewSource(7))
	a := gen.WithRandomValues(rng, gen.Laplacian2D(12, 12))
	res, err := core.NewEngine(0).Partition(context.Background(), a, 4, core.MethodMediumGrain, core.DefaultOptions(), rng)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := NewDistribution(a, res.Parts, 4)
	if err != nil {
		t.Fatal(err)
	}
	x := randomVec(rng, a.Cols)
	y, stats, err := Run(a, dist, x)
	if err != nil {
		t.Fatal(err)
	}
	ref := a.ToCSR().MulVec(x)
	for i := range y {
		if math.Abs(y[i]-ref[i]) > 1e-9 {
			t.Fatalf("y[%d] = %g, want %g", i, y[i], ref[i])
		}
	}
	if stats.TotalWords() != res.Volume {
		t.Fatalf("measured %d words, model volume %d", stats.TotalWords(), res.Volume)
	}
}

func TestEmptyMatrixRun(t *testing.T) {
	a := sparse.New(3, 3)
	dist, err := NewDistribution(a, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	y, stats, err := Run(a, dist, make([]float64, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range y {
		if v != 0 {
			t.Fatal("empty matrix produced nonzero output")
		}
	}
	if stats.TotalWords() != 0 {
		t.Fatal("empty matrix communicated")
	}
}
