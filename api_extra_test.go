package mediumgrain_test

import (
	"context"
	"testing"

	"mediumgrain"
	"mediumgrain/internal/gen"
)

func TestPublicCartesianPartition(t *testing.T) {
	a := gen.Laplacian2D(12, 12)
	res, err := mediumgrain.CartesianPartition(a, 2, 3, mediumgrain.DefaultOptions(), mediumgrain.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 2 || res.Q != 3 {
		t.Fatalf("grid %dx%d", res.P, res.Q)
	}
	if got := mediumgrain.Volume(a, res.Parts, 6); got != res.Volume {
		t.Fatalf("volume %d != %d", got, res.Volume)
	}
}

func TestPublicOptimizeVectorDistribution(t *testing.T) {
	a := gen.Laplacian2D(10, 10)
	res, err := inline.Partition(context.Background(), mediumgrain.Request{Matrix: a, P: 4, Method: mediumgrain.MethodMediumGrain, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := mediumgrain.NewDistribution(a, res.Parts, 4)
	if err != nil {
		t.Fatal(err)
	}
	baseCost := mediumgrain.BSPCost(a, res.Parts, 4)
	_, optCost := mediumgrain.OptimizeVectorDistribution(a, res.Parts, 4, dist.Vector, 0)
	if optCost > baseCost {
		t.Fatalf("optimizer worsened BSP cost %d -> %d", baseCost, optCost)
	}
}

func TestPublicDistributedBundleRoundTrip(t *testing.T) {
	a := gen.Laplacian2D(8, 8)
	res, err := inline.Partition(context.Background(), mediumgrain.Request{Matrix: a, P: 2, Method: mediumgrain.MethodMediumGrain, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	b, err := mediumgrain.NewDistributedBundle(a, res.Parts, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := mediumgrain.WriteDistributed(dir, "m", b); err != nil {
		t.Fatal(err)
	}
	got, err := mediumgrain.ReadDistributed(dir, "m")
	if err != nil {
		t.Fatal(err)
	}
	if got.Volume() != b.Volume() {
		t.Fatal("bundle volume changed in round trip")
	}
}

func TestPublicKWayRefine(t *testing.T) {
	a := gen.Laplacian2D(12, 12)
	res, err := inline.Partition(context.Background(), mediumgrain.Request{Matrix: a, P: 8, Method: mediumgrain.MethodMediumGrain, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := inline.Refine(context.Background(), mediumgrain.Request{Matrix: a, P: 8, Parts: res.Parts, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Volume > res.Volume {
		t.Fatalf("k-way refinement worsened %d -> %d", res.Volume, ref.Volume)
	}
	if mediumgrain.Imbalance(ref.Parts, 8) > 0.03+1e-9 {
		t.Fatal("k-way refinement broke balance")
	}
}

// TestPublicPartitionWorkers: the worker count is a throughput knob
// only — engines at Workers 0, 1 and 4 return the same parts.
func TestPublicPartitionWorkers(t *testing.T) {
	a := gen.Laplacian2D(14, 14)
	req := mediumgrain.Request{Matrix: a, P: 8, Method: mediumgrain.MethodMediumGrain, Seed: 21}
	seq, err := inline.Partition(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		par, err := mediumgrain.New(mediumgrain.EngineConfig{Workers: workers}).Partition(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if par.Volume != seq.Volume {
			t.Fatalf("Workers=%d volume %d != Workers=0 volume %d", workers, par.Volume, seq.Volume)
		}
		for k := range seq.Parts {
			if seq.Parts[k] != par.Parts[k] {
				t.Fatalf("Workers=%d parts differ from Workers=0 at nonzero %d", workers, k)
			}
		}
	}
}

func TestPublicKWayRefineParallel(t *testing.T) {
	a := gen.Laplacian2D(12, 12)
	res, err := inline.Partition(context.Background(), mediumgrain.Request{Matrix: a, P: 8, Method: mediumgrain.MethodMediumGrain, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	req := mediumgrain.Request{Matrix: a, P: 8, Parts: res.Parts, Seed: 8}
	seq, err := inline.Refine(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	par, err := mediumgrain.New(mediumgrain.EngineConfig{Workers: 4}).Refine(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if par.Volume != seq.Volume {
		t.Fatalf("parallel k-way volume %d != sequential %d", par.Volume, seq.Volume)
	}
	for k := range seq.Parts {
		if seq.Parts[k] != par.Parts[k] {
			t.Fatalf("parallel k-way parts differ at nonzero %d", k)
		}
	}
}

func TestPublicPredictSpMV(t *testing.T) {
	a := gen.Laplacian2D(10, 10)
	res, err := inline.Partition(context.Background(), mediumgrain.Request{Matrix: a, P: 4, Method: mediumgrain.MethodMediumGrain, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := mediumgrain.PredictSpMV(a, res.Parts, 4, mediumgrain.BSPMachine{G: 4, L: 100})
	if err != nil {
		t.Fatal(err)
	}
	if pred.TotalCost <= 0 || pred.Speedup <= 0 {
		t.Fatalf("degenerate prediction %+v", pred)
	}
}

func TestPublicSymmetricVolume(t *testing.T) {
	a := gen.Laplacian2D(8, 8)
	res, err := inline.Bipartition(context.Background(), mediumgrain.Request{Matrix: a, Method: mediumgrain.MethodMediumGrain, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	sv, err := mediumgrain.SymmetricVolume(a, res.Parts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sv < res.Volume {
		t.Fatalf("symmetric volume %d below free volume %d", sv, res.Volume)
	}
}
