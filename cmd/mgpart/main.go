// Command mgpart partitions a sparse matrix for parallel sparse
// matrix-vector multiplication using the medium-grain method (or any of
// the baseline methods) and reports the quality of the result.
//
// Usage:
//
//	mgpart -in matrix.mtx [-method MG] [-p 2] [-eps 0.03] [-ir]
//	       [-engine mondriaan|alt] [-seed 1] [-workers N] [-out parts.txt]
//	       [-tries N] [-budget 30s] [-parallel-fm] [-check]
//
// With -tries N > 1 the run races N deterministic seed variants
// (seed..seed+N-1) and keeps the lowest-volume result; -budget bounds
// the race's wall time.
//
// With -check the result must pass the output oracle: a valid p-way
// assignment, within the -eps balance bound, whose volume an
// independent recount reproduces. A failure names the failed check and
// exits 1 before any output file is written.
//
// The output lists one part id per nonzero, in the (row-sorted) order of
// the input file's nonzeros after canonicalization.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"

	"mediumgrain"
	"mediumgrain/internal/metrics"
	"mediumgrain/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mgpart: ")

	var (
		inPath     = flag.String("in", "", "input Matrix Market file (required)")
		method     = flag.String("method", "MG", "method: MG, LB, FG, RN, CN")
		p          = flag.Int("p", 2, "number of parts")
		eps        = flag.Float64("eps", 0.03, "allowed load imbalance")
		ir         = flag.Bool("ir", false, "apply iterative refinement")
		engine     = flag.String("engine", "mondriaan", "hypergraph engine: mondriaan or alt")
		parallelFM = flag.Bool("parallel-fm", false, "race FM tries on the coarse levels: about 1.2% less volume for about 60% more wall time; per-seed results differ from the default but are identical at every -workers")
		seed       = flag.Int64("seed", 1, "random seed")
		tries      = flag.Int("tries", 1, "race-to-best search width (>1 races seed variants seed..seed+N-1)")
		budget     = flag.Duration("budget", 0, "wall-time budget for the search race (0 = none)")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines (0 = inline on one goroutine); never changes the result")
		outPath    = flag.String("out", "", "write part assignment (one id per line)")
		spy        = flag.Bool("spy", false, "print an ASCII spy plot of the partitioned matrix")
		stats      = flag.Bool("stats", false, "print per-part statistics and the lambda histogram")
		distDir    = flag.String("dist", "", "write a distributed bundle (<dir>/<matrixbase>.{mtx,parts,invec,outvec})")
		kway       = flag.Bool("kway", false, "apply direct k-way refinement after recursive bisection")
		check      = flag.Bool("check", false, "verify the result (valid parts, balance within -eps, volume recount) and exit 1 on a failure")
	)
	flag.Parse()
	if *inPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	a, err := mediumgrain.ReadMatrixMarketFile(*inPath)
	if err != nil {
		log.Fatalf("reading %s: %v", *inPath, err)
	}
	a.Canonicalize()

	m, err := mediumgrain.ParseMethod(*method)
	if err != nil {
		log.Fatal(err)
	}
	if *workers < 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	var pcfg mediumgrain.PartitionerConfig
	switch *engine {
	case "mondriaan":
		pcfg = mediumgrain.MondriaanLikeConfig()
	case "alt":
		pcfg = mediumgrain.AltConfig()
	default:
		log.Fatalf("unknown engine %q (want mondriaan or alt)", *engine)
	}
	pcfg.ParallelFM = *parallelFM
	// One reusable engine runs the partitioning and any post-refinement;
	// ^C-style cancellation would only need a signal-bound context here.
	eng := mediumgrain.New(mediumgrain.EngineConfig{Workers: *workers, Partitioner: pcfg})
	ctx := context.Background()

	epsReq := *eps
	if epsReq == 0 {
		epsReq = -1 // Request: 0 means default; negative asks exact balance
	}
	req := mediumgrain.Request{
		Matrix: a,
		P:      *p,
		Method: m,
		Seed:   *seed,
		Eps:    epsReq,
		Refine: *ir,
	}
	var winnerTry atomic.Int64
	if *tries > 1 {
		req.Search = mediumgrain.Search{Tries: *tries, Budget: *budget}
		req.Progress = func(ev mediumgrain.Event) {
			if ev.Stage == mediumgrain.StageDone {
				winnerTry.Store(int64(ev.Try))
			}
		}
	}
	res, err := eng.Partition(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	if *kway {
		before := res.Volume
		refined, err := eng.Refine(ctx, mediumgrain.Request{
			Matrix: a,
			P:      *p,
			Method: m,
			Seed:   *seed + 1, // a fresh stream for the refinement pass
			Eps:    epsReq,
			Parts:  res.Parts,
		})
		if err != nil {
			log.Fatal(err)
		}
		res = refined
		fmt.Printf("k-way refinement: volume %d -> %d\n", before, res.Volume)
	}

	fmt.Printf("matrix:    %v (class %v)\n", a, a.Classify())
	fmt.Printf("method:    %v  refine=%v  engine=%s  parallelfm=%v  p=%d  eps=%g  workers=%d\n", m, *ir, *engine, *parallelFM, *p, *eps, *workers)
	if *tries > 1 {
		fmt.Printf("search:    tries=%d budget=%v  winner: try %d (seed %d)\n",
			*tries, *budget, winnerTry.Load(), *seed+winnerTry.Load()-1)
	}
	fmt.Printf("volume:    %d\n", res.Volume)
	fmt.Printf("imbalance: %.4f (allowed %.4f)\n", mediumgrain.Imbalance(res.Parts, *p), *eps)
	fmt.Printf("BSP cost:  %d\n", mediumgrain.BSPCost(a, res.Parts, *p))
	if *check {
		if err := checkResult(a, res.Parts, *p, *eps, res.Volume); err != nil {
			log.Fatalf("check failed: %v", err)
		}
		fmt.Println("check:     ok (parts valid, balance within eps, volume recount equal)")
	}

	if *spy {
		fmt.Println()
		fmt.Print(report.Spy(a, res.Parts, 64))
	}
	if *stats {
		fmt.Println()
		fmt.Print(report.Stats(a, res.Parts, *p))
		fmt.Println()
		fmt.Print(report.LambdaHistogram(a, res.Parts, *p))
	}

	if *distDir != "" {
		bundle, err := mediumgrain.NewDistributedBundle(a, res.Parts, *p, nil)
		if err != nil {
			log.Fatal(err)
		}
		base := strings.TrimSuffix(filepath.Base(*inPath), filepath.Ext(*inPath))
		if err := mediumgrain.WriteDistributed(*distDir, base, bundle); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("distributed bundle written to %s/%s.{mtx,parts,invec,outvec}\n", *distDir, base)
	}

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		w := bufio.NewWriter(f)
		for _, pt := range res.Parts {
			fmt.Fprintln(w, pt)
		}
		if err := w.Flush(); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("partition written to %s\n", *outPath)
	}
}

// checkResult is the output oracle behind -check. The error names the
// failed check: parts, balance or volume.
func checkResult(a *mediumgrain.Matrix, parts []int, p int, eps float64, volume int64) error {
	if err := metrics.ValidateParts(a, parts, p); err != nil {
		return fmt.Errorf("parts: %w", err)
	}
	if err := metrics.CheckBalance(parts, p, eps); err != nil {
		return fmt.Errorf("balance: %w", err)
	}
	if v := metrics.Volume(a, parts, p); v != volume {
		return fmt.Errorf("volume: recount %d, reported %d", v, volume)
	}
	return nil
}
