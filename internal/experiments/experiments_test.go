package experiments

import (
	"math/rand"
	"strings"
	"testing"

	"mediumgrain/internal/core"
	"mediumgrain/internal/corpus"
	"mediumgrain/internal/gen"
	"mediumgrain/internal/hgpart"
	"mediumgrain/internal/sparse"
)

// tinyInstances builds a 3-instance mini-corpus covering all classes.
func tinyInstances() []corpus.Instance {
	rng := rand.New(rand.NewSource(1))
	mk := func(name string, a *sparse.Matrix) corpus.Instance {
		return corpus.Instance{Name: name, A: a, Class: a.Classify()}
	}
	return []corpus.Instance{
		mk("sym", gen.Laplacian2D(10, 10)),
		mk("sqr", gen.Asymmetrize(rng, gen.Laplacian2D(10, 10), 0.5)),
		mk("rec", gen.RandomBipartite(rng, 120, 40, 4)),
	}
}

func TestPaperMethodsOrder(t *testing.T) {
	specs := PaperMethods()
	names := MethodNames(specs)
	want := []string{"LB", "LB+IR", "MG", "MG+IR", "FG", "FG+IR"}
	if len(names) != len(want) {
		t.Fatalf("got %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("column %d = %s, want %s", i, names[i], want[i])
		}
	}
}

func TestRunProducesCompleteResults(t *testing.T) {
	specs := PaperMethods()
	opts := DefaultRunOptions()
	opts.Runs = 1
	results, err := Run(tinyInstances(), specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if len(r.AvgVolume) != len(specs) || len(r.AvgTime) != len(specs) || len(r.AvgBSP) != len(specs) {
			t.Fatalf("%s: incomplete result", r.Name)
		}
		for m := range specs {
			if r.AvgVolume[m] < 0 || r.AvgTime[m] <= 0 || r.AvgBSP[m] < 0 {
				t.Fatalf("%s/%s: degenerate averages v=%g t=%g b=%g",
					r.Name, specs[m].Name, r.AvgVolume[m], r.AvgTime[m], r.AvgBSP[m])
			}
		}
	}
}

func TestRunIRNeverWorse(t *testing.T) {
	// the IR column must never exceed its base method's volume when both
	// use the same seed stream: IR is monotone per run, and runs pair up.
	specs := PaperMethods()
	opts := DefaultRunOptions()
	opts.Runs = 2
	results, err := Run(tinyInstances(), specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		// columns: 0 LB, 1 LB+IR, 2 MG, 3 MG+IR, 4 FG, 5 FG+IR — but
		// paired runs use different rng offsets, so allow a tiny epsilon
		// of noise only for the averaged comparison.
		pairs := [][2]int{{0, 1}, {2, 3}, {4, 5}}
		for _, pr := range pairs {
			if r.AvgVolume[pr[1]] > r.AvgVolume[pr[0]]*1.5+2 {
				t.Errorf("%s: +IR column %s much worse than %s (%g vs %g)",
					r.Name, specs[pr[1]].Name, specs[pr[0]].Name,
					r.AvgVolume[pr[1]], r.AvgVolume[pr[0]])
			}
		}
	}
}

func TestRunP64(t *testing.T) {
	specs := []MethodSpec{{"MG", PaperMethods()[2].Method, false}}
	opts := DefaultRunOptions()
	opts.Runs = 1
	opts.P = 8
	results, err := Run(tinyInstances(), specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.AvgVolume[0] <= 0 {
			t.Fatalf("%s: p=8 volume %g", r.Name, r.AvgVolume[0])
		}
	}
}

func TestReports(t *testing.T) {
	specs := PaperMethods()
	names := MethodNames(specs)
	opts := DefaultRunOptions()
	opts.Runs = 1
	results, err := Run(tinyInstances(), specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	fig4 := Fig4Report(results, names)
	for _, want := range []string{"Fig. 4(a)", "Fig. 4(b)", "Fig. 4(c)", "Fig. 4(d)", "MG+IR"} {
		if !strings.Contains(fig4, want) {
			t.Errorf("fig4 report missing %q", want)
		}
	}
	if !strings.Contains(Fig5Report(results, names), "Fig. 5") {
		t.Error("fig5 report broken")
	}
	t1 := Table1Report(results, names)
	for _, want := range []string{"Table I", "Rec", "Sym", "Sqr", "All"} {
		if !strings.Contains(t1, want) {
			t.Errorf("table1 report missing %q", want)
		}
	}
	if !strings.Contains(Fig6Report(results, names, "panel-x"), "panel-x") {
		t.Error("fig6 report broken")
	}
	t2 := Table2Report(results, names, 2)
	if !strings.Contains(t2, "Vol2") || !strings.Contains(t2, "Cost2") {
		t.Errorf("table2 report broken:\n%s", t2)
	}
}

func TestRunFig3(t *testing.T) {
	res, err := RunFig3(4, 3, 0.03, hgpart.ConfigMondriaanLike())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"rownet", "colnet", "finegrain", "mediumgrain"} {
		if res.BestVolume[name] <= 0 {
			t.Errorf("%s best volume = %d", name, res.BestVolume[name])
		}
	}
	if res.MGHitsBest < 1 {
		t.Error("no MG run matched its own best")
	}
	if !strings.Contains(res.Report(), "Fig. 3") {
		t.Error("fig3 report broken")
	}
	// the 2D methods must beat both 1D methods on this matrix
	if res.BestVolume["mediumgrain"] > res.BestVolume["rownet"] {
		t.Errorf("MG best %d worse than rownet best %d on a 2D-friendly matrix",
			res.BestVolume["mediumgrain"], res.BestVolume["rownet"])
	}
}

func TestVolumeTimeBSPTables(t *testing.T) {
	specs := PaperMethods()
	names := MethodNames(specs)
	opts := DefaultRunOptions()
	opts.Runs = 1
	results, err := Run(tinyInstances(), specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []interface{ GeoMeanNormalized(int) []float64 }{
		VolumeTable(results, names), TimeTable(results, names), BSPTable(results, names),
	} {
		gm := tbl.GeoMeanNormalized(0)
		if len(gm) != len(names) {
			t.Fatal("geomean length mismatch")
		}
	}
}

func TestRunOptionsCoercion(t *testing.T) {
	specs := []MethodSpec{PaperMethods()[2]}
	opts := RunOptions{Runs: 0, Eps: 0.03, Config: hgpart.ConfigMondriaanLike(), P: 0, Seed: 1}
	if _, err := Run(tinyInstances()[:1], specs, opts); err != nil {
		t.Fatal(err)
	}
}

func TestRunOptStudy(t *testing.T) {
	results, err := RunOptStudy(6, 14, 4, 11, hgpart.ConfigMondriaanLike())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d method rows", len(results))
	}
	for _, r := range results {
		if r.Instances != 6 {
			t.Fatalf("%s ran %d instances", r.Method, r.Instances)
		}
		if r.MeanRatio < 1 {
			t.Fatalf("%s mean ratio %g below 1 — heuristic beat the optimum", r.Method, r.MeanRatio)
		}
		if r.WorstRatio < r.MeanRatio {
			t.Fatalf("%s worst %g < mean %g", r.Method, r.WorstRatio, r.MeanRatio)
		}
	}
	out := OptStudyReport(results)
	if !strings.Contains(out, "MG+IR") || !strings.Contains(out, "exact") {
		t.Fatalf("report broken:\n%s", out)
	}
}

func TestRunSymVec(t *testing.T) {
	results, err := RunSymVec(tinyInstances(), 4, 5, hgpart.ConfigMondriaanLike())
	if err != nil {
		t.Fatal(err)
	}
	// tinyInstances has two square matrices
	if len(results) != 2 {
		t.Fatalf("got %d square results", len(results))
	}
	for _, r := range results {
		if r.SymVolume < r.Volume {
			t.Fatalf("%s: symmetric volume %d below volume %d", r.Name, r.SymVolume, r.Volume)
		}
		if r.Overhead() < 1 {
			t.Fatalf("%s: overhead %g", r.Name, r.Overhead())
		}
	}
	if !strings.Contains(SymVecReport(results), "mean overhead") {
		t.Fatal("report broken")
	}
}

// TestRunEngineWorkersDeterministic: EngineWorkers only sizes the shared
// engine's pool, and results are bit-identical for every worker count,
// so the averaged sweep results must agree exactly between EngineWorkers
// 0 (inline), 1 and 4 (single-matrix concurrency).
func TestRunEngineWorkersDeterministic(t *testing.T) {
	specs := []MethodSpec{{"MG", core.MethodMediumGrain, false}}
	opts := DefaultRunOptions()
	opts.Runs = 2
	opts.Workers = 1
	opts.EngineWorkers = 1
	ref, err := Run(tinyInstances(), specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, ew := range []int{0, 4} {
		opts.EngineWorkers = ew
		got, err := Run(tinyInstances(), specs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ref) {
			t.Fatalf("result count mismatch: %d vs %d", len(got), len(ref))
		}
		for i := range got {
			for m := range got[i].AvgVolume {
				if got[i].AvgVolume[m] != ref[i].AvgVolume[m] {
					t.Errorf("%s: EngineWorkers=%d volume %g != EngineWorkers=1 volume %g",
						got[i].Name, ew, got[i].AvgVolume[m], ref[i].AvgVolume[m])
				}
			}
		}
	}
}
