package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mediumgrain/internal/gen"
	"mediumgrain/internal/metrics"
)

func TestFullIterativeValid(t *testing.T) {
	a := gen.PowerLawGraph(rand.New(rand.NewSource(1)), 200, 3)
	res, err := fullIterativeInline(a, 4, DefaultOptions(), rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.ValidateParts(a, res.Parts, 2); err != nil {
		t.Fatal(err)
	}
	if err := metrics.CheckBalance(res.Parts, 2, 0.03); err != nil {
		t.Fatal(err)
	}
	if res.Volume != metrics.Volume(a, res.Parts, 2) {
		t.Fatal("volume inconsistent")
	}
}

// TestFullIterativeNoWorseThanSingleRun: with the same rng stream, the
// first iteration IS a plain medium-grain run and later iterations only
// replace it on improvement, so more iterations never hurt.
func TestFullIterativeNoWorseThanSingleRun(t *testing.T) {
	f := func(seed int64) bool {
		a := gen.PowerLawGraph(rand.New(rand.NewSource(seed)), 120, 3)
		single, err := fullIterativeInline(a, 1, DefaultOptions(), rand.New(rand.NewSource(seed+1)))
		if err != nil {
			return false
		}
		multi, err := fullIterativeInline(a, 4, DefaultOptions(), rand.New(rand.NewSource(seed+1)))
		if err != nil {
			return false
		}
		return multi.Volume <= single.Volume
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestFullIterativeIterationCoercion(t *testing.T) {
	a := gen.Tridiagonal(100)
	res, err := fullIterativeInline(a, 0, DefaultOptions(), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.CheckBalance(res.Parts, 2, 0.03); err != nil {
		t.Fatal(err)
	}
}

func TestFullIterativeZeroVolumeShortCircuits(t *testing.T) {
	// two disconnected dense blocks: a zero-volume bipartition exists
	// and once found, iterations must stop improving (bestVol == 0).
	a := gen.BlockDiagonal(rand.New(rand.NewSource(4)), 40, 2, 0)
	res, err := fullIterativeInline(a, 8, DefaultOptions(), rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Volume != 0 {
		t.Fatalf("expected zero volume on disconnected blocks, got %d", res.Volume)
	}
}

func TestFullIterativeWithRefine(t *testing.T) {
	a := gen.Laplacian2D(10, 10)
	opts := DefaultOptions()
	opts.Refine = true
	res, err := fullIterativeInline(a, 3, opts, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Refined {
		t.Fatal("Refined flag lost")
	}
	if err := metrics.CheckBalance(res.Parts, 2, 0.03); err != nil {
		t.Fatal(err)
	}
}

func TestSplitParallelMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomPattern(rng, 2+rng.Intn(20), 2+rng.Intn(20), 150)
		for _, workers := range []int{1, 2, 4, 7} {
			seq := Split(a, SplitNNZ, rand.New(rand.NewSource(seed+100)))
			par := SplitParallel(a, rand.New(rand.NewSource(seed+100)), workers)
			if len(seq) != len(par) {
				return false
			}
			for k := range seq {
				if seq[k] != par[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitParallelDefaultWorkers(t *testing.T) {
	a := gen.Laplacian2D(8, 8)
	inRow := SplitParallel(a, rand.New(rand.NewSource(7)), 0)
	if len(inRow) != a.NNZ() {
		t.Fatal("wrong length")
	}
}

func TestSplitParallelEmpty(t *testing.T) {
	a := randomPattern(rand.New(rand.NewSource(8)), 3, 3, 0)
	if got := SplitParallel(a, rand.New(rand.NewSource(9)), 4); len(got) != a.NNZ() {
		t.Fatal("empty split mishandled")
	}
}
