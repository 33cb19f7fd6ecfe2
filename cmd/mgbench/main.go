// Command mgbench runs a fixed partitioning-benchmark grid and emits a
// machine-readable JSON report, so every commit can be compared on wall
// time, parallel speedup, communication volume, and balance with one
// command:
//
//	mgbench -out BENCH_2026-07-29.json        # full grid
//	mgbench -quick                            # CI smoke grid
//
// The grid crosses a fixed subset of the synthetic corpus (plus one
// larger generated mesh) with part counts, the medium-grain method, and
// worker counts {1, GOMAXPROCS}; each (matrix, p, workers) point is
// timed over -runs repetitions and the best wall time is reported.
// Speedups are relative to the Workers=1 entry of the same grid point.
// The JSON layout is internal/report.BenchReport (schema
// "mediumgrain-bench/1").
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"mediumgrain"
	"mediumgrain/internal/core"
	"mediumgrain/internal/corpus"
	"mediumgrain/internal/gen"
	"mediumgrain/internal/metrics"
	"mediumgrain/internal/report"
	"mediumgrain/internal/sparse"
)

type gridMatrix struct {
	name  string
	a     *sparse.Matrix
	class sparse.Class
	// ps restricts this matrix to specific part counts (nil = the grid's
	// defaults); the huge tier runs a small p sweep.
	ps []int
	// methods restricts this matrix to specific methods (nil = MG only);
	// the huge tier also runs the fine-grain model now that boundary FM
	// keeps its wall time tolerable.
	methods []string
	// runsOverride caps the repetitions (0 = the grid's -runs); the huge
	// tier is timed once.
	runsOverride int
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mgbench: ")

	var (
		outPath    = flag.String("out", "", "output JSON path (default BENCH_<date>.json)")
		runs       = flag.Int("runs", 3, "repetitions per grid point; best wall time is kept")
		seed       = flag.Int64("seed", 20140519, "random seed for generators and partitioning")
		scale      = flag.Int("scale", 1, "corpus scale factor")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel worker count benchmarked against workers=1")
		quick      = flag.Bool("quick", false, "CI smoke mode: small grid, 1 run")
		eps        = flag.Float64("eps", 0.03, "allowed load imbalance")
		parallelFM = flag.Bool("parallel-fm", false, "benchmark coarse-level FM try racing (about 1.2% less volume for about 60% more wall time)")
		tries      = flag.Int("tries", 1, "race-to-best search width per grid point (>1 races seed variants and reports a quality-vs-time frontier)")
		budget     = flag.Duration("budget", 0, "wall-time budget per search (0 = none); only meaningful with -tries > 1")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the whole grid here")
		memProf    = flag.String("memprofile", "", "write a heap profile (after the grid) here")
		mutexProf  = flag.String("mutexprofile", "", "write a mutex-contention profile of the whole grid here")
		blockProf  = flag.String("blockprofile", "", "write a blocking profile of the whole grid here")
	)
	flag.Parse()
	// Every later error path exits through fatalf, which flushes the CPU
	// profile first: log.Fatal skips deferred functions, and a truncated
	// pprof file would ship as corrupt "evidence" in the CI artifact.
	stopProfile := func() {}
	fatalf := func(format string, args ...any) {
		stopProfile()
		log.Fatalf(format, args...)
	}
	if *quick {
		*runs = 1
	}
	if *runs < 1 {
		*runs = 1
	}
	if *workers < 1 {
		*workers = runtime.GOMAXPROCS(0)
	}
	if *outPath == "" {
		*outPath = "BENCH_" + time.Now().UTC().Format("2006-01-02") + ".json"
	}

	fmt.Printf("mgbench: workers=%d (GOMAXPROCS=%d), runs=%d, seed=%d, quick=%v\n",
		*workers, runtime.GOMAXPROCS(0), *runs, *seed, *quick)

	grid := buildGrid(*seed, *scale, *quick)
	// Start profiling only now: buildGrid can log.Fatal (bypassing
	// fatalf), and grid generation is not what the profile is for.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		stopProfile = func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Printf("closing %s: %v", *cpuProf, err)
			}
			stopProfile = func() {}
		}
		defer stopProfile()
	}
	// Mutex/block sampling must be armed before any pool work runs; the
	// profiles are snapshotted after the grid, so they cover exactly the
	// benchmarked workload (contention on the shared worker pool is what
	// the parallel refinement layers are tuned against).
	if *mutexProf != "" {
		runtime.SetMutexProfileFraction(5)
	}
	if *blockProf != "" {
		runtime.SetBlockProfileRate(10_000) // one sample per 10µs blocked
	}
	writeLookupProfile := func(name, path string) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err != nil {
			fatalf("%v", err)
		}
		if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
			fatalf("writing %s profile: %v", name, err)
		}
		if err := f.Close(); err != nil {
			fatalf("%v", err)
		}
	}
	pValues := []int{2, 16, 64}
	if *quick {
		pValues = []int{2, 64}
	}
	workerValues := []int{1, *workers}
	if *workers == 1 {
		workerValues = []int{1}
	}

	// The whole grid runs through the public Engine API — one reusable
	// engine per worker count, as a production caller would hold it —
	// so the report gates the Engine path against the baseline.
	pcfg := mediumgrain.MondriaanLikeConfig()
	pcfg.ParallelFM = *parallelFM
	engines := make(map[int]*mediumgrain.Engine, len(workerValues))
	for _, w := range workerValues {
		engines[w] = mediumgrain.New(mediumgrain.EngineConfig{Workers: w, Partitioner: pcfg})
	}

	if *tries < 1 {
		*tries = 1
	}
	rep := report.NewBenchReport(time.Now().UTC().Format(time.RFC3339), *seed, *runs)
	rep.Workers = *workers
	rep.ParallelFM = *parallelFM
	if *tries > 1 {
		rep.Tries = *tries
	}
	for _, gm := range grid {
		ps := pValues
		if gm.ps != nil {
			ps = gm.ps
		}
		runsHere := *runs
		if gm.runsOverride > 0 && gm.runsOverride < runsHere {
			runsHere = gm.runsOverride
		}
		methods := gm.methods
		if methods == nil {
			methods = []string{"MG"}
		}
		for _, method := range methods {
			for _, p := range ps {
				for _, w := range workerValues {
					entry, err := runPoint(engines[w], gm, p, method, w, *eps, *seed, runsHere, *tries, *budget)
					if err != nil {
						fatalf("%s %s p=%d workers=%d: %v", gm.name, method, p, w, err)
					}
					rep.Entries = append(rep.Entries, entry)
					fmt.Printf("%-14s %-2s p=%-3d workers=%-2d  %8.1f ms  volume=%-7d imbalance=%.4f  allocs/op=%-8d MB/op=%.1f%s\n",
						gm.name, method, p, w, entry.WallMS, entry.Volume, entry.Imbalance,
						entry.AllocsPerOp, float64(entry.BytesPerOp)/(1024*1024), frontierColumn(entry.Frontier))
				}
			}
		}
	}
	rep.FillSpeedups()

	if err := rep.WriteJSONFile(*outPath); err != nil {
		fatalf("%v", err)
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fatalf("%v", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatalf("%v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("%v", err)
		}
	}
	writeLookupProfile("mutex", *mutexProf)
	writeLookupProfile("block", *blockProf)
	fmt.Printf("\nreport written to %s\n", *outPath)
	printSpeedupSummary(rep, *workers)
	_ = os.Stdout.Sync()
}

// buildGrid selects the benchmark matrices: a fixed corpus subset
// spanning all three classes plus one larger generated mesh that gives
// the p=64 recursion enough work to measure. Raising -scale above 1
// additionally enables the huge tier: a grid Laplacian with at least a
// million nonzeros (n = 330·scale per side, so -scale 2 ≈ 2.2M nnz),
// timed once per point over methods {MG, FG} × p {16, 64} — the wider
// sweep the boundary-driven FM refinement made affordable. -scale 3
// widens the side to n = 340·scale ≈ 1020, crossing the paper's
// 5M-nonzero corpus ceiling (5n² − 4n ≈ 5.2M); the entry reuses the
// same BENCH_* schema and grid-point naming, so `make bench-diff` and
// the CI benchdiff gate compare it across commits like any other point.
func buildGrid(seed int64, scale int, quick bool) []gridMatrix {
	instances := corpus.Build(corpus.Options{Scale: scale, Seed: seed})
	names := []string{"lap2d-24", "powerlaw-3", "er-sq-1", "bip-tall"}
	if quick {
		names = []string{"lap2d-24", "bip-tall"}
	}
	var grid []gridMatrix
	for _, name := range names {
		in, err := corpus.Find(instances, name)
		if err != nil {
			log.Fatal(err)
		}
		grid = append(grid, gridMatrix{name: in.Name, a: in.A, class: in.Class})
	}
	if !quick {
		big := gen.Laplacian2D(120*scale, 120*scale)
		grid = append(grid, gridMatrix{name: "lap2d-120", a: big, class: big.Classify()})
	}
	if !quick && scale >= 2 {
		n := 330 * scale
		if scale >= 3 {
			// The paper's corpus tops out at 5M nonzeros; a 5-point
			// Laplacian has 5n²−4n of them, so n = 1020 clears it.
			n = 340 * scale
		}
		huge := gen.Laplacian2D(n, n)
		grid = append(grid, gridMatrix{
			name:         fmt.Sprintf("lap2d-huge-%d", n),
			a:            huge,
			class:        huge.Classify(),
			ps:           []int{16, 64},
			methods:      []string{"MG", "FG"},
			runsOverride: 1,
		})
	}
	return grid
}

// runPoint times Engine.Partition for one grid point, keeping the best
// wall time over runs; quality metrics come from the last run (all runs
// use the same seed and are identical at every worker count). With tries > 1
// the point races a best-of-N search and the entry carries the
// quality-vs-time frontier of the last run.
func runPoint(eng *mediumgrain.Engine, gm gridMatrix, p int, method string, workers int, eps float64, seed int64, runs, tries int, budget time.Duration) (report.BenchEntry, error) {
	m, err := core.ParseMethod(method)
	if err != nil {
		return report.BenchEntry{}, err
	}
	epsReq := eps
	if epsReq == 0 {
		epsReq = -1 // Request semantics: 0 = default, negative = exact
	}
	req := mediumgrain.Request{Matrix: gm.a, P: p, Method: m, Seed: seed, Eps: epsReq}
	var frontier []report.FrontierPoint
	if tries > 1 {
		req.Search = mediumgrain.Search{Tries: tries, Budget: budget}
		var mu sync.Mutex
		req.Progress = func(ev mediumgrain.Event) {
			if ev.Stage != mediumgrain.StagePartition || ev.BestVolume < 0 {
				return
			}
			mu.Lock()
			if n := len(frontier); n == 0 || ev.BestVolume < frontier[n-1].Volume {
				frontier = append(frontier, report.FrontierPoint{
					WallMS: float64(ev.Elapsed.Microseconds()) / 1000,
					Volume: ev.BestVolume,
					Try:    ev.Try,
				})
			}
			mu.Unlock()
		}
	}

	var best time.Duration
	var res *core.Result
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	for r := 0; r < runs; r++ {
		frontier = nil
		start := time.Now()
		res, err = eng.Partition(context.Background(), req)
		elapsed := time.Since(start)
		if err != nil {
			return report.BenchEntry{}, err
		}
		if r == 0 || elapsed < best {
			best = elapsed
		}
	}
	runtime.ReadMemStats(&msAfter)
	return report.BenchEntry{
		Matrix:      gm.name,
		Class:       gm.class.String(),
		Rows:        gm.a.Rows,
		Cols:        gm.a.Cols,
		NNZ:         gm.a.NNZ(),
		P:           p,
		Method:      method,
		Workers:     workers,
		WallMS:      float64(best.Microseconds()) / 1000,
		Volume:      res.Volume,
		Imbalance:   metrics.Imbalance(res.Parts, p),
		AllocsPerOp: (msAfter.Mallocs - msBefore.Mallocs) / uint64(runs),
		BytesPerOp:  (msAfter.TotalAlloc - msBefore.TotalAlloc) / uint64(runs),
		Frontier:    frontier,
	}, nil
}

// frontierColumn renders a search entry's quality-vs-time frontier as a
// compact "frontier: vol@ms > vol@ms ..." console column; empty for
// single-try entries.
func frontierColumn(frontier []report.FrontierPoint) string {
	if len(frontier) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("  frontier: ")
	for i, fp := range frontier {
		if i > 0 {
			b.WriteString(" > ")
		}
		fmt.Fprintf(&b, "%d@%.0fms", fp.Volume, fp.WallMS)
	}
	return b.String()
}

func printSpeedupSummary(rep *report.BenchReport, workers int) {
	if workers == 1 {
		fmt.Println("single worker benchmarked; no speedup column")
		return
	}
	var sum float64
	var n int
	for _, e := range rep.Entries {
		if e.Workers == workers && e.SpeedupVsSeq > 0 {
			sum += e.SpeedupVsSeq
			n++
		}
	}
	if n > 0 {
		fmt.Printf("mean speedup (workers=%d vs 1) over %d grid points: %.2fx\n", workers, n, sum/float64(n))
	}
}
