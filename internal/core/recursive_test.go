package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
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

// TestSplitVolumesSumToVolume pins the invariant race-to-best pruning
// relies on: every bisection reports its split's volume through onSplit,
// and those volumes sum to the final p-way volume, which an independent
// recount confirms.
func TestSplitVolumesSumToVolume(t *testing.T) {
	mats := map[string]*sparse.Matrix{
		"lap2d": gen.Laplacian2D(18, 18),
		"rect":  gen.ErdosRenyi(rand.New(rand.NewSource(8)), 150, 260, 0.012),
	}
	engines := map[int]*Engine{0: NewEngine(0), 2: NewEngine(2)}
	for name, a := range mats {
		for _, m := range allMethods() {
			for _, p := range []int{2, 3, 8, 64} {
				for _, refine := range []bool{false, true} {
					for w, eng := range engines {
						opts := DefaultOptions()
						opts.Refine = refine
						var sum atomic.Int64
						hooks := &runHooks{onSplit: func(v int64) { sum.Add(v) }}
						res, err := eng.partition(context.Background(), a, p, m, opts, rand.New(rand.NewSource(9)), hooks)
						tag := fmt.Sprintf("%s/%v/p=%d/refine=%v/workers=%d", name, m, p, refine, w)
						if err != nil {
							t.Fatalf("%s: %v", tag, err)
						}
						if got, recount := sum.Load(), metrics.Volume(a, res.Parts, p); got != res.Volume || got != recount {
							t.Fatalf("%s: split volumes sum to %d, result volume %d, recount %d", tag, got, res.Volume, recount)
						}
					}
				}
			}
		}
	}
}

// TestEmptyNodesSkipped: at p far above the nonzero count, a call
// bisects only nodes that hold nonzeros — at most nnz·⌈log2 p⌉ of them,
// where recursing into every part took p − 1 — and skipping the empty
// subtrees leaves the parts bit-identical (the hash is the one the
// unskipped recursion produced) on an inline and a pooled engine.
func TestEmptyNodesSkipped(t *testing.T) {
	a := gen.Laplacian2D(6, 6)
	const p, levels = 4096, 12
	const wantHash = 0xaa83effc19ce590b
	for _, w := range []int{0, 2} {
		var splits atomic.Int64
		hooks := &runHooks{onSplit: func(int64) { splits.Add(1) }}
		res, err := NewEngine(w).partition(context.Background(), a, p, MethodMediumGrain, DefaultOptions(), rand.New(rand.NewSource(1)), hooks)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if n := splits.Load(); n >= int64(a.NNZ()*levels) {
			t.Errorf("workers=%d: %d splits for %d nonzeros at p=%d, want fewer than %d", w, n, a.NNZ(), p, a.NNZ()*levels)
		}
		if got := partsHash(res.Parts); got != wantHash {
			t.Errorf("workers=%d: parts hash %#016x, want %#016x", w, got, uint64(wantHash))
		}
		if err := metrics.ValidateParts(a, res.Parts, p); err != nil {
			t.Errorf("workers=%d: %v", w, err)
		}
	}
}
