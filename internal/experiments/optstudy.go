package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"mediumgrain/internal/core"
	"mediumgrain/internal/hgpart"
	"mediumgrain/internal/metrics"
	"mediumgrain/internal/optimal"
	"mediumgrain/internal/sparse"
)

// Optimality study, in the spirit of the thesis the paper cites for
// Fig. 3's "volume 11 ... shown to be optimal" ([19]): on a suite of
// tiny random matrices, compare each heuristic's best-of-R volume to the
// exact branch-and-bound optimum.

// OptStudyResult aggregates one method's gap statistics.
type OptStudyResult struct {
	Method      string
	ExactHits   int     // instances where best-of-R equals the optimum
	MeanRatio   float64 // arithmetic mean of best/optimal over instances with optimum > 0
	WorstRatio  float64
	ZeroOptSkip int // instances with optimum 0 excluded from ratios
	Infeasible  int // instances where no run satisfied the balance constraint
	Instances   int
}

// RunOptStudy generates `instances` tiny matrices (N ≤ maxNNZ ≤
// optimal.MaxNonzeros), computes exact optima, and measures best-of-runs
// volumes for LB, FG, MG, and MG+IR.
func RunOptStudy(instances, maxNNZ, runs int, seed int64, cfg hgpart.Config) ([]OptStudyResult, error) {
	if maxNNZ > optimal.MaxNonzeros {
		maxNNZ = optimal.MaxNonzeros
	}
	specs := []struct {
		name   string
		method core.Method
		refine bool
	}{
		{"LB", core.MethodLocalBest, false},
		{"FG", core.MethodFineGrain, false},
		{"MG", core.MethodMediumGrain, false},
		{"MG+IR", core.MethodMediumGrain, true},
	}
	results := make([]OptStudyResult, len(specs))
	for i, s := range specs {
		results[i] = OptStudyResult{Method: s.name, WorstRatio: 1}
	}

	rng := rand.New(rand.NewSource(seed))
	made := 0
	eng := core.NewEngine(0) // inline; results do not depend on the worker count
	for made < instances {
		a := tinyMatrix(rng, maxNNZ)
		if a.NNZ() < 4 {
			continue
		}
		opt, err := optimal.Bipartition(a, 0.03)
		if err != nil {
			return nil, err
		}
		made++
		for i, s := range specs {
			best := int64(-1)
			for r := 0; r < runs; r++ {
				o := core.Options{Eps: 0.03, Refine: s.refine, Config: cfg}
				res, err := eng.Bipartition(context.Background(), a, s.method, o, rand.New(rand.NewSource(seed+int64(made*100+r))))
				if err != nil {
					return nil, err
				}
				// 1D methods treat whole columns/rows as indivisible and
				// may miss the balance constraint on tiny matrices; only
				// feasible runs compete with the constrained optimum.
				if metrics.CheckBalance(res.Parts, 2, 0.03) != nil {
					continue
				}
				if best < 0 || res.Volume < best {
					best = res.Volume
				}
			}
			results[i].Instances++
			if best < 0 {
				results[i].Infeasible++
				continue
			}
			if best < opt.Volume {
				return nil, fmt.Errorf("optstudy: %s volume %d below optimum %d — metric bug", s.name, best, opt.Volume)
			}
			if best == opt.Volume {
				results[i].ExactHits++
			}
			if opt.Volume == 0 {
				results[i].ZeroOptSkip++
				continue
			}
			ratio := float64(best) / float64(opt.Volume)
			results[i].MeanRatio += ratio
			if ratio > results[i].WorstRatio {
				results[i].WorstRatio = ratio
			}
		}
	}
	for i := range results {
		if n := results[i].Instances - results[i].ZeroOptSkip - results[i].Infeasible; n > 0 {
			results[i].MeanRatio /= float64(n)
		} else {
			results[i].MeanRatio = 1
		}
	}
	return results, nil
}

func tinyMatrix(rng *rand.Rand, maxNNZ int) *sparse.Matrix {
	rows, cols := 2+rng.Intn(6), 2+rng.Intn(6)
	a := sparse.New(rows, cols)
	n := 4 + rng.Intn(maxNNZ-3)
	for k := 0; k < n; k++ {
		a.AppendPattern(rng.Intn(rows), rng.Intn(cols))
	}
	a.Canonicalize()
	return a
}

// OptStudyReport renders the study as a table.
func OptStudyReport(results []OptStudyResult) string {
	var b strings.Builder
	b.WriteString("Optimality study — best-of-runs vs exact optimum on tiny matrices\n")
	fmt.Fprintf(&b, "%-8s %10s %12s %12s %6s\n", "method", "exact", "mean ratio", "worst ratio", "infeas")
	for _, r := range results {
		fmt.Fprintf(&b, "%-8s %6d/%-4d %12.3f %12.3f %6d\n",
			r.Method, r.ExactHits, r.Instances, r.MeanRatio, r.WorstRatio, r.Infeasible)
	}
	return b.String()
}
