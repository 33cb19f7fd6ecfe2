package core

import (
	"math/rand"
	"testing"

	"mediumgrain/internal/gen"
	"mediumgrain/internal/metrics"
	"mediumgrain/internal/sparse"
)

func TestPartitionBasic(t *testing.T) {
	a := gen.Laplacian2D(16, 16)
	for _, p := range []int{2, 4, 8} {
		res, err := partitionInline(a, p, MethodMediumGrain, DefaultOptions(), rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if err := metrics.ValidateParts(a, res.Parts, p); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if err := metrics.CheckBalance(res.Parts, p, 0.03); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if res.Volume != metrics.Volume(a, res.Parts, p) {
			t.Fatalf("p=%d: volume inconsistent", p)
		}
		// all parts should be populated on a mesh much larger than p
		sizes := metrics.PartSizes(res.Parts, p)
		for i, s := range sizes {
			if s == 0 {
				t.Fatalf("p=%d: part %d empty", p, i)
			}
		}
	}
}

func TestPartitionP1(t *testing.T) {
	a := gen.Tridiagonal(50)
	res, err := partitionInline(a, 1, MethodMediumGrain, DefaultOptions(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Volume != 0 {
		t.Fatalf("p=1 volume = %d", res.Volume)
	}
	for _, pt := range res.Parts {
		if pt != 0 {
			t.Fatal("p=1 used multiple parts")
		}
	}
}

func TestPartitionNonPowerOfTwo(t *testing.T) {
	a := gen.Laplacian2D(14, 14)
	for _, p := range []int{3, 5, 6, 7} {
		res, err := partitionInline(a, p, MethodMediumGrain, DefaultOptions(), rand.New(rand.NewSource(2)))
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if err := metrics.CheckBalance(res.Parts, p, 0.03); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		sizes := metrics.PartSizes(res.Parts, p)
		for i, s := range sizes {
			if s == 0 {
				t.Fatalf("p=%d: part %d empty (sizes %v)", p, i, sizes)
			}
		}
	}
}

func TestPartitionRejectsBadP(t *testing.T) {
	a := gen.Tridiagonal(10)
	if _, err := partitionInline(a, 0, MethodMediumGrain, DefaultOptions(), rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("p=0 accepted")
	}
	if _, err := partitionInline(a, -3, MethodMediumGrain, DefaultOptions(), rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("negative p accepted")
	}
}

func TestPartitionAllMethods(t *testing.T) {
	a := gen.PowerLawGraph(rand.New(rand.NewSource(3)), 120, 3)
	for _, m := range allMethods() {
		res, err := partitionInline(a, 4, m, DefaultOptions(), rand.New(rand.NewSource(4)))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if err := metrics.CheckBalance(res.Parts, 4, 0.03); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
}

func TestPartitionWithRefinement(t *testing.T) {
	a := gen.Laplacian2D(12, 12)
	opts := DefaultOptions()
	opts.Refine = true
	plain, err := partitionInline(a, 4, MethodMediumGrain, DefaultOptions(), rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	refined, err := partitionInline(a, 4, MethodMediumGrain, opts, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	// IR applies per bisection; the refined run must not be dramatically
	// worse (it is not strictly comparable because recursion paths
	// diverge, but a 2x regression would indicate a bug).
	if refined.Volume > 2*plain.Volume+4 {
		t.Fatalf("refined %d vs plain %d", refined.Volume, plain.Volume)
	}
	if err := metrics.CheckBalance(refined.Parts, 4, 0.03); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionMorePartsThanNonzeros(t *testing.T) {
	a := sparse.New(2, 2)
	a.AppendPattern(0, 0)
	a.AppendPattern(1, 1)
	a.Canonicalize()
	// p = 4 > N = 2: must not fail; some parts stay empty
	res, err := partitionInline(a, 4, MethodMediumGrain, DefaultOptions(), rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.ValidateParts(a, res.Parts, 4); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionVolumeScalesWithP(t *testing.T) {
	// more parts cannot help: V(p=8) >= V(p=2) on the same mesh (up to
	// noise; use generous factor to avoid flakiness).
	a := gen.Laplacian2D(20, 20)
	r2, err := partitionInline(a, 2, MethodMediumGrain, DefaultOptions(), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	r8, err := partitionInline(a, 8, MethodMediumGrain, DefaultOptions(), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if r8.Volume < r2.Volume {
		t.Fatalf("p=8 volume %d below p=2 volume %d", r8.Volume, r2.Volume)
	}
}
