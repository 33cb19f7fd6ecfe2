package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"mediumgrain/internal/core"
	"mediumgrain/internal/corpus"
	"mediumgrain/internal/hgpart"
	"mediumgrain/internal/metrics"
	"mediumgrain/internal/sparse"
)

// Symmetric-distribution study: iterative solvers need the input and
// output vectors of a square matrix distributed identically (the setting
// of the enhanced hypergraph models of Uçar & Aykanat the paper reviews
// in §II). This experiment measures, per square corpus matrix, how much
// extra communication the symmetric constraint costs on top of the
// unconstrained volume V for a medium-grain partitioning.

// SymVecResult holds one matrix's numbers.
type SymVecResult struct {
	Name      string
	Class     sparse.Class
	Volume    int64
	SymVolume int64
}

// Overhead is SymVolume/Volume (1 when volume is zero).
func (r SymVecResult) Overhead() float64 {
	if r.Volume == 0 {
		return 1
	}
	return float64(r.SymVolume) / float64(r.Volume)
}

// RunSymVec partitions every square corpus matrix with MG+IR and
// evaluates both distribution regimes.
func RunSymVec(instances []corpus.Instance, p int, seed int64, cfg hgpart.Config) ([]SymVecResult, error) {
	var out []SymVecResult
	eng := core.NewEngine(0) // inline; results do not depend on the worker count
	for idx, in := range instances {
		if !in.A.IsSquare() {
			continue
		}
		rng := rand.New(rand.NewSource(seed + int64(idx)))
		opts := core.Options{Eps: 0.03, Refine: true, Config: cfg}
		res, err := eng.Partition(context.Background(), in.A, p, core.MethodMediumGrain, opts, rng)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.Name, err)
		}
		sv, err := metrics.SymmetricVolume(in.A, res.Parts, p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.Name, err)
		}
		out = append(out, SymVecResult{Name: in.Name, Class: in.Class, Volume: res.Volume, SymVolume: sv})
	}
	return out, nil
}

// SymVecReport renders the study.
func SymVecReport(results []SymVecResult) string {
	var b strings.Builder
	b.WriteString("Symmetric vector distribution overhead (square matrices, MG+IR)\n")
	fmt.Fprintf(&b, "%-16s %6s %10s %10s %10s\n", "matrix", "class", "volume", "sym vol", "overhead")
	var sum float64
	for _, r := range results {
		fmt.Fprintf(&b, "%-16s %6v %10d %10d %9.2fx\n", r.Name, r.Class, r.Volume, r.SymVolume, r.Overhead())
		sum += r.Overhead()
	}
	if len(results) > 0 {
		fmt.Fprintf(&b, "mean overhead: %.3fx over %d matrices\n", sum/float64(len(results)), len(results))
	}
	return b.String()
}
