// Command benchdiff compares two mgbench JSON reports grid point by grid
// point and fails when partitioning quality regresses:
//
//	benchdiff old.json new.json            # default 5% volume tolerance
//	benchdiff -vol-tol 0.10 old.json new.json
//
// Wall-time and allocation changes are reported but never fail the run —
// CI machines are too noisy for hard time gates — while a communication
// volume more than the tolerance above the baseline on any common grid
// point exits nonzero. The table ends with the volume summed over the
// common grid points, old and new, and their ratio. `make bench-diff
// OLD=a.json NEW=b.json` is the Makefile entry point.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"mediumgrain/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchdiff: ")

	volTol := flag.Float64("vol-tol", 0.05, "allowed fractional volume regression per grid point")
	flag.Parse()
	if flag.NArg() != 2 {
		log.Fatalf("usage: benchdiff [-vol-tol F] OLD.json NEW.json")
	}

	oldRep, err := readReport(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	newRep, err := readReport(flag.Arg(1))
	if err != nil {
		log.Fatal(err)
	}

	if normTries(oldRep.Tries) != normTries(newRep.Tries) {
		// Best-of-N volumes are not comparable to single-run volumes (or
		// to a different N): the gate would credit search width as a
		// quality change of the code under test.
		log.Fatalf("search width mismatch: old report tries=%d, new report tries=%d — regenerate the reports with one -tries setting",
			normTries(oldRep.Tries), normTries(newRep.Tries))
	}
	if oldRep.ParallelFM != newRep.ParallelFM {
		// A warning, not a refusal: the volume gate below is exactly how
		// the parallel refinement mode is held to the serial baseline's
		// quality, so cross-mode comparisons are intended — but flagged,
		// since wall deltas mix in the mode's own cost.
		log.Printf("warning: FM parallelism differs (old parallel_fm=%t, new parallel_fm=%t); volume gate applies across modes, wall deltas reflect the mode change too",
			oldRep.ParallelFM, newRep.ParallelFM)
	}
	if oldRep.Workers != 0 && newRep.Workers != 0 && oldRep.Workers != newRep.Workers {
		// Pre-PR-7 reports decode Workers as 0 (unknown) — only warn when
		// both sides actually recorded their count.
		log.Printf("warning: worker counts differ (old workers=%d, new workers=%d); wall times and speedups are not comparable",
			oldRep.Workers, newRep.Workers)
	}
	if oldRep.GOMAXPROCS != newRep.GOMAXPROCS {
		log.Printf("warning: GOMAXPROCS differs (old %d, new %d); wall times are not comparable",
			oldRep.GOMAXPROCS, newRep.GOMAXPROCS)
	}

	rows := report.DiffBench(oldRep, newRep)
	fmt.Print(report.FormatDiff(rows))
	if wallGeo, bytesGeo, wallN, bytesN := report.PerfSummary(rows); wallN > 0 || bytesN > 0 {
		// Informational only — CI machines are too noisy for hard time
		// gates — but logged on every run so the CI history doubles as
		// the perf trend record.
		fmt.Printf("\nperf (geomean, new/old):")
		if wallN > 0 {
			fmt.Printf(" wall %.3fx over %d points", wallGeo, wallN)
		}
		if bytesN > 0 {
			fmt.Printf("  bytes/op %.3fx over %d points", bytesGeo, bytesN)
		}
		fmt.Println()
	}

	bad := report.VolumeRegressions(rows, *volTol)
	if len(bad) > 0 {
		fmt.Printf("\n%d grid point(s) regressed volume by more than %.0f%%:\n", len(bad), *volTol*100)
		for _, r := range bad {
			if r.OldVolume == 0 {
				fmt.Printf("  %s p=%d workers=%d: volume 0 -> %d (baseline was perfect)\n",
					r.Matrix, r.P, r.Workers, r.NewVolume)
			} else {
				fmt.Printf("  %s p=%d workers=%d: volume %d -> %d (+%.1f%%)\n",
					r.Matrix, r.P, r.Workers, r.OldVolume, r.NewVolume, (r.VolumeRatio-1)*100)
			}
		}
		os.Exit(1)
	}
	fmt.Printf("\nno volume regression beyond %.0f%% on %d common grid points\n", *volTol*100, len(rows))
}

// normTries folds the two spellings of "no search" together: reports
// from before the tries field decode as 0, new single-run reports say 1.
func normTries(tries int) int {
	if tries < 1 {
		return 1
	}
	return tries
}

func readReport(path string) (*report.BenchReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return report.ReadBenchJSON(f)
}
