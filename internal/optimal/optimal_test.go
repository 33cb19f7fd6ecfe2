package optimal

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"mediumgrain/internal/core"
	"mediumgrain/internal/metrics"
	"mediumgrain/internal/sparse"
)

func randomTiny(rng *rand.Rand, maxNNZ int) *sparse.Matrix {
	rows, cols := 1+rng.Intn(6), 1+rng.Intn(6)
	a := sparse.New(rows, cols)
	n := 1 + rng.Intn(maxNNZ)
	for k := 0; k < n; k++ {
		a.AppendPattern(rng.Intn(rows), rng.Intn(cols))
	}
	a.Canonicalize()
	return a
}

// bruteForce enumerates every balanced bipartitioning.
func bruteForce(a *sparse.Matrix, eps float64) int64 {
	n := a.NNZ()
	limit := int64((1 + eps) * float64(n) / 2)
	if ceil := int64((n + 1) / 2); limit < ceil {
		limit = ceil
	}
	best := int64(1) << 60
	parts := make([]int, n)
	for mask := 0; mask < 1<<n; mask++ {
		var s0, s1 int64
		for k := 0; k < n; k++ {
			parts[k] = (mask >> k) & 1
			if parts[k] == 0 {
				s0++
			} else {
				s1++
			}
		}
		if s0 > limit || s1 > limit {
			continue
		}
		if v := metrics.Volume(a, parts, 2); v < best {
			best = v
		}
	}
	return best
}

func TestOptimalMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomTiny(rng, 12)
		res, err := Bipartition(a, 0.03)
		if err != nil {
			return false
		}
		if Verify(a, res) != nil {
			return false
		}
		return res.Volume == bruteForce(a, 0.03)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimalBalance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomTiny(rng, 14)
		res, err := Bipartition(a, 0.03)
		if err != nil {
			return false
		}
		return metrics.CheckBalance(res.Parts, 2, 0.03) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimalRefusesLarge(t *testing.T) {
	a := sparse.New(10, 10)
	for i := 0; i < 10; i++ {
		for j := 0; j < 4; j++ {
			a.AppendPattern(i, j)
		}
	}
	a.Canonicalize()
	if _, err := Bipartition(a, 0.03); err == nil {
		t.Fatal("oversized search accepted")
	}
}

func TestOptimalEmptyAndSingle(t *testing.T) {
	empty := sparse.New(3, 3)
	res, err := Bipartition(empty, 0.03)
	if err != nil || res.Volume != 0 {
		t.Fatalf("empty: %v %v", res, err)
	}
	single := sparse.New(2, 2)
	single.AppendPattern(1, 0)
	res, err = Bipartition(single, 0.03)
	if err != nil || res.Volume != 0 {
		t.Fatalf("single: %v %v", res, err)
	}
}

func TestOptimalKnownInstances(t *testing.T) {
	// 2x2 dense: best balanced split is by rows (or columns): volume 2.
	dense := sparse.New(2, 2)
	dense.AppendPattern(0, 0)
	dense.AppendPattern(0, 1)
	dense.AppendPattern(1, 0)
	dense.AppendPattern(1, 1)
	dense.Canonicalize()
	res, err := Bipartition(dense, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	if res.Volume != 2 {
		t.Fatalf("2x2 dense optimum = %d, want 2", res.Volume)
	}

	// two disconnected 2x2 blocks: optimum 0
	blocks := sparse.New(4, 4)
	for _, e := range [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 2}, {2, 3}, {3, 2}, {3, 3}} {
		blocks.AppendPattern(e[0], e[1])
	}
	blocks.Canonicalize()
	res, err = Bipartition(blocks, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	if res.Volume != 0 {
		t.Fatalf("disconnected blocks optimum = %d, want 0", res.Volume)
	}
}

// TestHeuristicsReachOptimal certifies the paper's pipeline on tiny
// instances: the best of several MG+IR runs must be close to the exact
// optimum (and never below it — that would indicate a metric bug).
func TestHeuristicsReachOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		a := randomTiny(rng, 16)
		opt, err := Bipartition(a, 0.03)
		if err != nil {
			t.Fatal(err)
		}
		best := int64(1) << 60
		opts := core.DefaultOptions()
		opts.Refine = true
		for run := int64(0); run < 8; run++ {
			res, err := core.NewEngine(0).Bipartition(context.Background(), a, core.MethodMediumGrain, opts, rand.New(rand.NewSource(run)))
			if err != nil {
				t.Fatal(err)
			}
			if res.Volume < best {
				best = res.Volume
			}
		}
		if best < opt.Volume {
			t.Fatalf("heuristic volume %d below proven optimum %d — metric bug", best, opt.Volume)
		}
		if best > opt.Volume+2 {
			t.Errorf("trial %d: MG+IR best %d far from optimum %d on %v", trial, best, opt.Volume, a)
		}
	}
}

// TestEveryMethodAgainstOptimum is a differential test of every method
// against the exact optimum on seeded random instances of at most 24
// nonzeros: RN, CN, LB, FG and MG, each with and without Algorithm 2,
// on an inline engine and a two-worker one. A bipartition's Volume is
// the cut its model's last FM run tracked, never a recount, so it must
// equal metrics.Volume of its parts; and no balanced result may report
// less than the proven optimum.
func TestEveryMethodAgainstOptimum(t *testing.T) {
	methods := []core.Method{core.MethodRowNet, core.MethodColNet, core.MethodLocalBest, core.MethodFineGrain, core.MethodMediumGrain}
	engines := []*core.Engine{core.NewEngine(0), core.NewEngine(2)}
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 100; trial++ {
		a := randomTiny(rng, 24)
		opt, err := Bipartition(a, 0.03)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range methods {
			for _, refine := range []bool{false, true} {
				opts := core.DefaultOptions()
				opts.Refine = refine
				for w, eng := range engines {
					for seed := int64(1); seed <= 3; seed++ {
						res, err := eng.Bipartition(context.Background(), a, m, opts, rand.New(rand.NewSource(seed)))
						if err != nil {
							t.Fatal(err)
						}
						where := func() string {
							return fmt.Sprintf("trial %d %v refine=%t engine %d seed %d on %v", trial, m, refine, w, seed, a)
						}
						if v := metrics.Volume(a, res.Parts, 2); res.Volume != v {
							t.Errorf("%s: reported volume %d, recount %d", where(), res.Volume, v)
						}
						if metrics.CheckBalance(res.Parts, 2, opts.Eps) == nil && res.Volume < opt.Volume {
							t.Errorf("%s: balanced result reports volume %d below the optimum %d", where(), res.Volume, opt.Volume)
						}
					}
				}
			}
		}
	}
}
