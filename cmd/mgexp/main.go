// Command mgexp regenerates every figure and table of the paper's
// evaluation, one experiment per -exp value:
//
//	mgexp -exp fig3    # Fig. 3  gd97_b-style anecdote
//	mgexp -exp fig4    # Fig. 4  volume performance profiles (4 panels)
//	mgexp -exp fig5    # Fig. 5  time performance profile
//	mgexp -exp table1  # Table I geometric means (volume, time)
//	mgexp -exp fig6    # Fig. 6  volume profiles, alternative engine, p=2/64
//	mgexp -exp table2  # Table II geometric means (volume, BSP cost)
//	mgexp -exp optstudy # heuristics vs exact optima on tiny matrices
//	mgexp -exp symvec   # symmetric vector distribution overhead
//	mgexp -exp all     # everything
//
// -runs, -scale, and -seed trade time for fidelity; the defaults finish
// in minutes on a laptop.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"

	"mediumgrain/internal/corpus"
	"mediumgrain/internal/experiments"
	"mediumgrain/internal/hgpart"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mgexp: ")

	var (
		exp     = flag.String("exp", "all", "experiment: fig3, fig4, fig5, table1, fig6, table2, optstudy, symvec, all")
		runs    = flag.Int("runs", 3, "runs per (matrix, method); the paper uses 10")
		scale   = flag.Int("scale", 1, "corpus scale factor")
		seed    = flag.Int64("seed", 7, "random seed")
		p64     = flag.Int("p", 64, "large part count for fig6(b)/table2")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "matrices evaluated concurrently")
		engineW = flag.Int("engine-workers", 0, "pool size of the shared partitioning engine (0 = inline); never changes a result; use with -workers 1 for single-large-matrix sweeps")
	)
	flag.Parse()
	if *workers < 1 {
		*workers = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(os.Stderr, "mgexp: exp=%s runs=%d scale=%d seed=%d workers=%d engine-workers=%d\n",
		*exp, *runs, *scale, *seed, *workers, *engineW)

	instances := corpus.Build(corpus.Options{Scale: *scale, Seed: *seed})
	specs := experiments.PaperMethods()
	names := experiments.MethodNames(specs)

	var mondriaanResults, altResults, altResultsP []experiments.MatrixResult
	needMondriaan := *exp == "fig4" || *exp == "fig5" || *exp == "table1" || *exp == "all"
	needAlt := *exp == "fig6" || *exp == "table2" || *exp == "all"

	if needMondriaan {
		opts := experiments.DefaultRunOptions()
		opts.Runs, opts.Seed, opts.Workers, opts.EngineWorkers = *runs, *seed, *workers, *engineW
		opts.Config = hgpart.ConfigMondriaanLike()
		var err error
		fmt.Fprintf(os.Stderr, "running %d matrices x %d methods x %d runs (mondriaan-like engine)...\n",
			len(instances), len(specs), *runs)
		mondriaanResults, err = experiments.Run(instances, specs, opts)
		if err != nil {
			log.Fatal(err)
		}
	}
	if needAlt {
		opts := experiments.DefaultRunOptions()
		opts.Runs, opts.Seed, opts.Workers, opts.EngineWorkers = *runs, *seed, *workers, *engineW
		opts.Config = hgpart.ConfigAlt()
		var err error
		fmt.Fprintf(os.Stderr, "running %d matrices x %d methods x %d runs (alt engine, p=2)...\n",
			len(instances), len(specs), *runs)
		altResults, err = experiments.Run(instances, specs, opts)
		if err != nil {
			log.Fatal(err)
		}
		opts.P = *p64
		fmt.Fprintf(os.Stderr, "running %d matrices x %d methods x %d runs (alt engine, p=%d)...\n",
			len(instances), len(specs), *runs, *p64)
		altResultsP, err = experiments.Run(instances, specs, opts)
		if err != nil {
			log.Fatal(err)
		}
	}

	show := func(id string) bool { return *exp == id || *exp == "all" }

	if show("fig3") {
		res, err := experiments.RunFig3(100, *seed, 0.03, hgpart.ConfigMondriaanLike())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res.Report())
	}
	if show("fig4") {
		fmt.Println(experiments.Fig4Report(mondriaanResults, names))
	}
	if show("fig5") {
		fmt.Println(experiments.Fig5Report(mondriaanResults, names))
	}
	if show("table1") {
		fmt.Println(experiments.Table1Report(mondriaanResults, names))
	}
	if show("fig6") {
		fmt.Println(experiments.Fig6Report(altResults, names,
			"Fig. 6(a) — volume profile, alternative engine, p = 2"))
		fmt.Println(experiments.Fig6Report(altResultsP, names,
			fmt.Sprintf("Fig. 6(b) — volume profile, alternative engine, p = %d", *p64)))
	}
	if show("table2") {
		fmt.Println(experiments.Table2Report(altResults, names, 2))
		fmt.Println(experiments.Table2Report(altResultsP, names, *p64))
	}
	if show("optstudy") {
		res, err := experiments.RunOptStudy(40, 24, 10, *seed, hgpart.ConfigMondriaanLike())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(experiments.OptStudyReport(res))
	}
	if show("symvec") {
		res, err := experiments.RunSymVec(instances, 4, *seed, hgpart.ConfigMondriaanLike())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(experiments.SymVecReport(res))
	}
}
