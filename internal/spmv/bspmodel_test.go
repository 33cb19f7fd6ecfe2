package spmv

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mediumgrain/internal/core"
	"mediumgrain/internal/gen"
)

func TestPredictSingleProcessor(t *testing.T) {
	a := gen.Tridiagonal(100)
	parts := make([]int, a.NNZ())
	pred, err := Predict(a, parts, 1, Machine{G: 10, L: 100})
	if err != nil {
		t.Fatal(err)
	}
	if pred.CommWords != 0 {
		t.Fatalf("single processor communicates %d words", pred.CommWords)
	}
	if pred.CompFlops != 2*int64(a.NNZ()) {
		t.Fatalf("comp = %d, want %d", pred.CompFlops, 2*a.NNZ())
	}
	// speedup < 1 because of the sync overhead
	if pred.Speedup > 1 {
		t.Fatalf("p=1 speedup %g > 1", pred.Speedup)
	}
}

func TestPredictValidates(t *testing.T) {
	a := gen.Tridiagonal(10)
	if _, err := Predict(a, make([]int, 3), 2, Machine{}); err == nil {
		t.Fatal("bad parts accepted")
	}
	if _, err := Predict(a, make([]int, a.NNZ()), 2, Machine{G: -1}); err == nil {
		t.Fatal("negative g accepted")
	}
}

func TestPredictSpeedupGrowsWithGoodPartitioning(t *testing.T) {
	a := gen.Laplacian2D(24, 24)
	rng := rand.New(rand.NewSource(1))
	res, err := core.NewEngine(0).Partition(context.Background(), a, 4, core.MethodMediumGrain, core.DefaultOptions(), rng)
	if err != nil {
		t.Fatal(err)
	}
	m := Machine{G: 5, L: 50}
	good, err := Predict(a, res.Parts, 4, m)
	if err != nil {
		t.Fatal(err)
	}
	// random partition of the same matrix: much more communication
	randParts := make([]int, a.NNZ())
	for k := range randParts {
		randParts[k] = rng.Intn(4)
	}
	bad, err := Predict(a, randParts, 4, m)
	if err != nil {
		t.Fatal(err)
	}
	if good.Speedup <= bad.Speedup {
		t.Fatalf("good partition speedup %.2f <= random %.2f", good.Speedup, bad.Speedup)
	}
	if good.Speedup < 1.5 {
		t.Fatalf("modelled speedup %.2f too low for a mesh on 4 procs", good.Speedup)
	}
}

func TestPredictSeconds(t *testing.T) {
	a := gen.Tridiagonal(50)
	parts := make([]int, a.NNZ())
	pred, err := Predict(a, parts, 1, Machine{FlopRate: 1e9, G: 1, L: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pred.Seconds <= 0 {
		t.Fatal("seconds not computed with FlopRate set")
	}
	pred2, err := Predict(a, parts, 1, Machine{G: 1, L: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pred2.Seconds != 0 {
		t.Fatal("seconds computed without FlopRate")
	}
}

func TestPredictMonotoneInG(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := gen.ErdosRenyi(rng, 20, 20, 0.1)
		p := 2 + rng.Intn(3)
		parts := make([]int, a.NNZ())
		for k := range parts {
			parts[k] = rng.Intn(p)
		}
		lo, err := Predict(a, parts, p, Machine{G: 1, L: 10})
		if err != nil {
			return false
		}
		hi, err := Predict(a, parts, p, Machine{G: 100, L: 10})
		if err != nil {
			return false
		}
		return hi.TotalCost >= lo.TotalCost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPredictionString(t *testing.T) {
	a := gen.Tridiagonal(10)
	pred, err := Predict(a, make([]int, a.NNZ()), 1, Machine{G: 1, L: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pred.String(), "speedup") {
		t.Fatal("String() broken")
	}
}
