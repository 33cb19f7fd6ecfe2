package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
)

// BenchSchema versions the benchmark-report JSON layout; bump it when a
// field changes meaning so downstream tooling can dispatch.
const BenchSchema = "mediumgrain-bench/1"

// BenchEntry is one grid point of a benchmark run: a (matrix, p, method,
// workers) combination with its measured wall time and quality metrics.
type BenchEntry struct {
	Matrix  string `json:"matrix"`
	Class   string `json:"class"`
	Rows    int    `json:"rows"`
	Cols    int    `json:"cols"`
	NNZ     int    `json:"nnz"`
	P       int    `json:"p"`
	Method  string `json:"method"`
	Workers int    `json:"workers"`
	// WallMS is the best-of-runs wall-clock time of the partitioning
	// call in milliseconds (best-of mirrors Go's benchstat convention of
	// reporting the least-noisy observation).
	WallMS float64 `json:"wall_ms"`
	// SpeedupVsSeq is WallMS(workers=1) / WallMS for this entry's grid
	// point; 0 when no sequential counterpart exists in the grid.
	SpeedupVsSeq float64 `json:"speedup_vs_seq,omitempty"`
	Volume       int64   `json:"volume"`
	Imbalance    float64 `json:"imbalance"`
	// AllocsPerOp / BytesPerOp are the heap allocations and bytes per
	// partitioning call, averaged over the entry's runs (measured with
	// runtime.ReadMemStats around the timed loop, so they include every
	// goroutine of the run). They track the allocation behaviour of the
	// hot path across commits the way wall_ms tracks speed.
	AllocsPerOp uint64 `json:"allocs_per_op"`
	BytesPerOp  uint64 `json:"bytes_per_op"`
	// Frontier is the quality-vs-time trace of a race-to-best run (tries
	// > 1): one point per improvement of the incumbent best volume.
	// Absent for single-try entries.
	Frontier []FrontierPoint `json:"frontier,omitempty"`
}

// FrontierPoint is one step of a search entry's quality-vs-time
// frontier: at WallMS into the run, try Try lowered the best volume
// seen so far to Volume.
type FrontierPoint struct {
	WallMS float64 `json:"wall_ms"`
	Volume int64   `json:"volume"`
	Try    int     `json:"try"`
}

// BenchReport is the machine-readable output of cmd/mgbench.
type BenchReport struct {
	Schema     string `json:"schema"`
	CreatedUTC string `json:"created_utc"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Workers is the parallel worker count the run was benchmarked with
	// (the mgbench -workers flag; entries carry their own per-point
	// worker counts). Wall times and speedups from runs at different
	// worker counts are not comparable, so benchdiff warns when the
	// counts differ. Absent in pre-PR-7 reports, which decode as 0
	// (unknown).
	Workers int   `json:"workers,omitempty"`
	Seed    int64 `json:"seed"`
	Runs    int   `json:"runs"`
	// ParallelFM records whether the run used coarse-level FM try
	// racing. It is a mode switch with legitimately different per-seed
	// volumes, but the modes are meant to be gated against each other
	// by the volume threshold, so benchdiff warns instead of refusing.
	// Absent in pre-PR-7 reports (false).
	ParallelFM bool `json:"parallel_fm,omitempty"`
	// Tries records the race-to-best search width the report was taken
	// with (Request.Search.Tries). 0 — the value pre-search reports
	// decode to — and 1 both mean the single classic run; tries > 1
	// volumes are best-of-N and must not be gated against single-run
	// baselines, so benchdiff refuses to compare differing settings.
	Tries   int          `json:"tries,omitempty"`
	Entries []BenchEntry `json:"entries"`
}

// NewBenchReport returns a report header stamped with the current
// toolchain and machine facts. createdUTC is RFC 3339; the caller
// supplies it so report generation stays testable.
func NewBenchReport(createdUTC string, seed int64, runs int) *BenchReport {
	return &BenchReport{
		Schema:     BenchSchema,
		CreatedUTC: createdUTC,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Runs:       runs,
	}
}

// FillSpeedups computes SpeedupVsSeq for every entry from the Workers=1
// entry of the same (matrix, p, method) grid point.
func (r *BenchReport) FillSpeedups() {
	type key struct {
		matrix, method string
		p              int
	}
	seq := make(map[key]float64)
	for _, e := range r.Entries {
		if e.Workers == 1 {
			seq[key{e.Matrix, e.Method, e.P}] = e.WallMS
		}
	}
	for i := range r.Entries {
		e := &r.Entries[i]
		if base, ok := seq[key{e.Matrix, e.Method, e.P}]; ok && e.WallMS > 0 {
			e.SpeedupVsSeq = base / e.WallMS
		}
	}
}

// WriteJSON renders the report as indented JSON.
func (r *BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteJSONFile writes the report to path, creating or truncating it.
func (r *BenchReport) WriteJSONFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadBenchJSON parses a report and checks its schema tag.
func ReadBenchJSON(rd io.Reader) (*BenchReport, error) {
	var r BenchReport
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("report: decoding bench JSON: %w", err)
	}
	if r.Schema != BenchSchema {
		return nil, fmt.Errorf("report: unexpected bench schema %q (want %q)", r.Schema, BenchSchema)
	}
	return &r, nil
}
