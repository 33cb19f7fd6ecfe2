// Package experiments reproduces the paper's evaluation (§IV): it runs
// the six bipartitioning methods (LB, LB+IR, MG, MG+IR, FG, FG+IR) over
// the corpus, averages communication volume and partitioning time over
// repeated runs, and renders each figure and table of the paper. The
// command comment of cmd/mgexp lists every experiment.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"mediumgrain/internal/core"
	"mediumgrain/internal/corpus"
	"mediumgrain/internal/hgpart"
	"mediumgrain/internal/metrics"
	"mediumgrain/internal/profile"
	"mediumgrain/internal/sparse"
)

// MethodSpec names one method column of the evaluation.
type MethodSpec struct {
	Name   string
	Method core.Method
	Refine bool
}

// PaperMethods returns the six methods of Figs. 4–6 and Tables I–II in
// the paper's column order.
func PaperMethods() []MethodSpec {
	return []MethodSpec{
		{"LB", core.MethodLocalBest, false},
		{"LB+IR", core.MethodLocalBest, true},
		{"MG", core.MethodMediumGrain, false},
		{"MG+IR", core.MethodMediumGrain, true},
		{"FG", core.MethodFineGrain, false},
		{"FG+IR", core.MethodFineGrain, true},
	}
}

// MethodNames extracts the column labels.
func MethodNames(specs []MethodSpec) []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// RunOptions configures an evaluation sweep.
type RunOptions struct {
	// Runs per (matrix, method); results are averaged (paper: 10).
	Runs int
	// Eps is the balance constraint (paper: 0.03).
	Eps float64
	// Config selects the hypergraph engine.
	Config hgpart.Config
	// P is the number of parts (2 for bipartitioning; 64 for Fig. 6b).
	P int
	// Seed makes the sweep reproducible.
	Seed int64
	// Workers runs matrices concurrently (0 = GOMAXPROCS).
	Workers int
	// EngineWorkers sizes the pool of the sweep's shared core.Engine
	// (0 = inline, negative = GOMAXPROCS); it never changes a result.
	// Sweeps over one large matrix set Workers to 1 and EngineWorkers to
	// the core count, so the pool parallelizes inside the single
	// partitioning instead of across matrices.
	EngineWorkers int
}

// DefaultRunOptions matches the paper's protocol at test-friendly scale.
func DefaultRunOptions() RunOptions {
	return RunOptions{Runs: 3, Eps: 0.03, Config: hgpart.ConfigMondriaanLike(), P: 2, Seed: 7}
}

// MatrixResult holds per-method averages for one matrix.
type MatrixResult struct {
	Name  string
	Class sparse.Class
	// AvgVolume[m], AvgTime[m] (seconds), AvgBSP[m] are averages over
	// Runs for method column m.
	AvgVolume []float64
	AvgTime   []float64
	AvgBSP    []float64
}

// Run evaluates every method on every instance. All partitioning calls
// of one sweep share a single reusable core.Engine sized by
// opts.EngineWorkers, so concurrent matrices multiplex one worker
// budget instead of building pools per call.
func Run(instances []corpus.Instance, specs []MethodSpec, opts RunOptions) ([]MatrixResult, error) {
	if opts.Runs < 1 {
		opts.Runs = 1
	}
	if opts.P < 2 {
		opts.P = 2
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	eng := core.NewEngine(opts.EngineWorkers)

	results := make([]MatrixResult, len(instances))
	errs := make([]error, len(instances))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for idx, in := range instances {
		wg.Add(1)
		go func(idx int, in corpus.Instance) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[idx], errs[idx] = runOne(eng, in, specs, opts, opts.Seed+int64(idx)*1009)
		}(idx, in)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

func runOne(eng *core.Engine, in corpus.Instance, specs []MethodSpec, opts RunOptions, seed int64) (MatrixResult, error) {
	res := MatrixResult{
		Name:      in.Name,
		Class:     in.Class,
		AvgVolume: make([]float64, len(specs)),
		AvgTime:   make([]float64, len(specs)),
		AvgBSP:    make([]float64, len(specs)),
	}
	for m, spec := range specs {
		var sumVol, sumBSP float64
		var sumTime time.Duration
		for r := 0; r < opts.Runs; r++ {
			rng := rand.New(rand.NewSource(seed + int64(m)*131 + int64(r)*17))
			o := core.Options{Eps: opts.Eps, Refine: spec.Refine, Config: opts.Config}
			start := time.Now()
			var parts []int
			var vol int64
			if opts.P == 2 {
				out, err := eng.Bipartition(context.Background(), in.A, spec.Method, o, rng)
				if err != nil {
					return res, fmt.Errorf("%s/%s: %w", in.Name, spec.Name, err)
				}
				parts, vol = out.Parts, out.Volume
			} else {
				out, err := eng.Partition(context.Background(), in.A, opts.P, spec.Method, o, rng)
				if err != nil {
					return res, fmt.Errorf("%s/%s: %w", in.Name, spec.Name, err)
				}
				parts, vol = out.Parts, out.Volume
			}
			sumTime += time.Since(start)
			sumVol += float64(vol)
			bsp, _ := metrics.BSPCost(in.A, parts, opts.P)
			sumBSP += float64(bsp)
		}
		n := float64(opts.Runs)
		res.AvgVolume[m] = sumVol / n
		res.AvgTime[m] = sumTime.Seconds() / n
		res.AvgBSP[m] = sumBSP / n
	}
	return res, nil
}

// VolumeTable converts results into a profile.Table of average volumes.
func VolumeTable(results []MatrixResult, methods []string) *profile.Table {
	t := profile.NewTable(methods)
	for _, r := range results {
		_ = t.AddCase(r.Name, r.AvgVolume)
	}
	return t
}

// TimeTable converts results into a table of average times.
func TimeTable(results []MatrixResult, methods []string) *profile.Table {
	t := profile.NewTable(methods)
	for _, r := range results {
		_ = t.AddCase(r.Name, r.AvgTime)
	}
	return t
}

// BSPTable converts results into a table of average BSP costs.
func BSPTable(results []MatrixResult, methods []string) *profile.Table {
	t := profile.NewTable(methods)
	for _, r := range results {
		_ = t.AddCase(r.Name, r.AvgBSP)
	}
	return t
}

// classFilter returns a case filter by class for the result set.
func classFilter(results []MatrixResult, class sparse.Class) func(string) bool {
	byName := make(map[string]sparse.Class, len(results))
	for _, r := range results {
		byName[r.Name] = r.Class
	}
	return func(name string) bool { return byName[name] == class }
}

// Fig4Report renders the four performance-profile panels of Fig. 4.
func Fig4Report(results []MatrixResult, methods []string) string {
	vt := VolumeTable(results, methods)
	taus := profile.DefaultTaus()
	out := "Fig. 4(a) — communication volume profile, all matrices\n"
	out += profile.FormatProfiles(vt.Profiles(taus))
	panels := []struct {
		label string
		class sparse.Class
	}{
		{"Fig. 4(b) — square (non-symmetric) matrices", sparse.ClassSquareNonSym},
		{"Fig. 4(c) — symmetric matrices", sparse.ClassSymmetric},
		{"Fig. 4(d) — rectangular matrices", sparse.ClassRectangular},
	}
	for _, p := range panels {
		sub := vt.FilterCases(classFilter(results, p.class))
		out += "\n" + p.label + "\n" + profile.FormatProfiles(sub.Profiles(taus))
	}
	return out
}

// Fig5Report renders the partitioning-time profile of Fig. 5.
func Fig5Report(results []MatrixResult, methods []string) string {
	tt := TimeTable(results, methods)
	return "Fig. 5 — partitioning time profile, all matrices\n" +
		profile.FormatProfiles(tt.Profiles(profile.TimeTaus()))
}

// Table1Report renders Table I: geometric means of volume and time
// relative to LB (column 0), by class and over all matrices.
func Table1Report(results []MatrixResult, methods []string) string {
	vt := VolumeTable(results, methods)
	tt := TimeTable(results, methods)
	rows := map[string][]float64{}
	order := []string{"Rec", "Sym", "Sqr", "All"}
	classes := map[string]sparse.Class{
		"Rec": sparse.ClassRectangular,
		"Sym": sparse.ClassSymmetric,
		"Sqr": sparse.ClassSquareNonSym,
	}
	volOut := "Table I — geometric means of communication volume (relative to LB)\n"
	for _, label := range order {
		var sub *profile.Table
		if label == "All" {
			sub = vt
		} else {
			sub = vt.FilterCases(classFilter(results, classes[label]))
		}
		rows[label] = sub.GeoMeanNormalized(0)
	}
	volOut += profile.FormatGeoMeans(methods, rows, order)

	timeRows := map[string][]float64{}
	for _, label := range order {
		var sub *profile.Table
		if label == "All" {
			sub = tt
		} else {
			sub = tt.FilterCases(classFilter(results, classes[label]))
		}
		timeRows[label] = sub.GeoMeanNormalized(0)
	}
	return volOut + "\nTable I — geometric means of partitioning time (relative to LB)\n" +
		profile.FormatGeoMeans(methods, timeRows, order)
}

// Fig6Report renders a volume profile panel (used with ConfigAlt for
// p = 2 and p = 64).
func Fig6Report(results []MatrixResult, methods []string, label string) string {
	vt := VolumeTable(results, methods)
	return label + "\n" + profile.FormatProfiles(vt.Profiles(profile.DefaultTaus()))
}

// Table2Report renders one (Vol, Cost) row pair of Table II for the
// given p.
func Table2Report(results []MatrixResult, methods []string, p int) string {
	vt := VolumeTable(results, methods)
	bt := BSPTable(results, methods)
	rows := map[string][]float64{
		fmt.Sprintf("Vol%d", p):  vt.GeoMeanNormalized(0),
		fmt.Sprintf("Cost%d", p): bt.GeoMeanNormalized(0),
	}
	order := []string{fmt.Sprintf("Vol%d", p), fmt.Sprintf("Cost%d", p)}
	return fmt.Sprintf("Table II — geometric means relative to LB, p = %d\n", p) +
		profile.FormatGeoMeans(methods, rows, order)
}

// Fig3Result summarizes the gd97_b-style anecdote.
type Fig3Result struct {
	BestVolume map[string]int64 // best over runs per method
	MGHitsBest int              // how many MG runs matched MG's best
	Runs       int
}

// RunFig3 reproduces the Fig. 3 experiment: best volume over `runs`
// bipartitioning runs of the row-net, column-net, fine-grain, and
// medium-grain methods on the gd97_b stand-in.
func RunFig3(runs int, seed int64, eps float64, cfg hgpart.Config) (*Fig3Result, error) {
	a := corpus.GD97Like(seed)
	methods := []struct {
		name string
		m    core.Method
	}{
		{"rownet", core.MethodRowNet},
		{"colnet", core.MethodColNet},
		{"finegrain", core.MethodFineGrain},
		{"mediumgrain", core.MethodMediumGrain},
	}
	res := &Fig3Result{BestVolume: map[string]int64{}, Runs: runs}
	eng := core.NewEngine(0) // inline; results do not depend on the worker count
	var mgVols []int64
	for _, spec := range methods {
		best := int64(-1)
		for r := 0; r < runs; r++ {
			rng := rand.New(rand.NewSource(seed + int64(r)))
			out, err := eng.Bipartition(context.Background(), a, spec.m, core.Options{Eps: eps, Config: cfg}, rng)
			if err != nil {
				return nil, err
			}
			if best < 0 || out.Volume < best {
				best = out.Volume
			}
			if spec.name == "mediumgrain" {
				mgVols = append(mgVols, out.Volume)
			}
		}
		res.BestVolume[spec.name] = best
	}
	for _, v := range mgVols {
		if v == res.BestVolume["mediumgrain"] {
			res.MGHitsBest++
		}
	}
	return res, nil
}

// Fig3Report renders the anecdote.
func (r *Fig3Result) Report() string {
	out := fmt.Sprintf("Fig. 3 — gd97_b stand-in (47x47), best volume over %d runs\n", r.Runs)
	for _, name := range []string{"rownet", "colnet", "finegrain", "mediumgrain"} {
		out += fmt.Sprintf("  %-12s best volume %d\n", name, r.BestVolume[name])
	}
	out += fmt.Sprintf("  medium-grain runs matching its best: %d/%d\n", r.MGHitsBest, r.Runs)
	return out
}
