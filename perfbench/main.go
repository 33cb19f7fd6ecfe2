// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed time, checks every output, and prints its metrics:
//
//	bash perfbench/run.sh --workload mesh-huge --seed 1 --seconds 30 --trace 0
//
// With --runs N it is the steadiness tool instead: it runs the workload N
// times with seeds seed..seed+N-1 and prints each metric's quartiles.
//
// Workloads (see README.md for their inputs and why each was chosen):
//
//   - mesh-huge: Engine.Partition of the 330×330 2D Laplacian at p=64,
//     one call at a time.
//   - corpus-mix: Engine.Partition over all 30 corpus instances at scale
//     2, each at p ∈ {2, 16, 64}, in a seeded shuffled order.
//   - serve-zipf: open-loop Poisson traffic through a cluster router to
//     two service shards on loopback, mostly cache hits.
//
// The workload seed drives every generated input, partition seed, and
// arrival time. With --trace 0 the run measures the end-to-end metrics;
// with --trace 1 it repeats the untraced measurement, then measures again
// with spans recorded around every call the benchmark makes into a layer,
// and reports the per-layer metrics. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported on every
// workload. BENCHMARK.json declares the same list with each metric's
// direction and bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"success_rate", "share"},
	{"peak_rss_mb", "MB"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_tail", "ms"},
	{"miss_latency_ms_p50", "ms"},
	{"volume_total", "words"},
}

// perLayer are the metrics of a traced run. A workload that cannot
// measure one reports 0 and names it, with the reason, in its output.
var perLayer = []metricDef{
	{"core.split_ms", "ms"},
	{"core.bmodel_ms", "ms"},
	{"core.bmodel_pins", "count"},
	{"core.bisect_ms", "ms"},
	{"core.bisect_other_ms", "ms"},
	{"sparse.index_ms", "ms"},
	{"sparse.compact_ms", "ms"},
	{"sparse.parse_ms", "ms"},
	{"hgpart.multilevel_ms", "ms"},
	{"hgpart.multilevel_mb", "MB"},
	{"hgpart.root_cut", "words"},
	{"metrics.volume_ms", "ms"},
	{"pool.speedup", "x"},
	{"service.queue_ms_p99", "ms"},
	{"service.compute_ms_p50", "ms"},
	{"service.run_other_ms_p50", "ms"},
	{"service.http_ms_p50", "ms"},
	{"service.submit_hit_us_p50", "us"},
	{"service.hit_share", "share"},
	{"service.rejected", "count"},
	{"service.deduplicated", "count"},
	{"cluster.router_hop_ms_p50", "ms"},
	{"cluster.peer_fetch_per_miss", "ratio"},
	{"cluster.replicated_out", "count"},
	{"cluster.hedges", "count"},
	{"distio.write_ms", "ms"},
	{"spmv.predict_ms", "ms"},
	{"loadgen.lag_ms_p99", "ms"},
	{"trace.overhead_pct", "%"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// workers is nproc: the Engine pool size of the offline workloads and
	// the bound on client connections of serve-zipf.
	workers int
	// scratch is a directory inside the checkout for temporary files.
	scratch string
}

// outcome is what one workload run reports.
type outcome struct {
	attempted, failed int
	failures          []string
	e2e               map[string]float64
	layer             map[string]float64
	// unmeasured names the per-layer metrics the workload cannot measure,
	// with the reason.
	unmeasured map[string]string
	spans      *recorder
	// notes are human-readable facts printed before the result line.
	notes []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, unmeasured: map[string]string{}}
}

// fail counts one failed operation and keeps its first few messages.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*outcome, error){
	"mesh-huge":  runMesh,
	"corpus-mix": runCorpus,
	"serve-zipf": runServe,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: mesh-huge, corpus-mix or serve-zipf")
		seed    = flag.Int64("seed", 1, "workload seed: drives every generated input")
		seconds = flag.Float64("seconds", 30, "measurement time of one pass")
		trace   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		runs    = flag.Int("runs", 0, "steadiness tool: run the workload this many times, seeds seed, seed+1, ..., and print each metric's quartiles")
		scratch = flag.String("scratch", ".bench_build", "directory for temporary files and traces")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || *runs < 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload mesh-huge|corpus-mix|serve-zipf, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	// The service and router log operational events; keep the benchmark's
	// own output readable.
	log.SetOutput(io.Discard)
	cfg := config{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		workers:  runtime.NumCPU(),
		scratch:  *scratch,
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if *runs > 0 {
		if err := steady(cfg, *runs, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if err := report(os.Stdout, cfg, out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// report prints the human-readable summary and, as the last line, the
// result object. Traced runs also write their spans to the scratch
// directory.
func report(w io.Writer, cfg config, out *outcome) error {
	if out.attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	errRate := float64(out.failed) / float64(out.attempted)
	out.e2e["success_rate"] = 1 - errRate
	out.e2e["peak_rss_mb"] = peakRSSMB()

	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v workers %d GOMAXPROCS %d %s\n",
		cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace, cfg.workers, runtime.GOMAXPROCS(0), runtime.Version())
	for _, n := range out.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, f := range out.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	fmt.Fprintf(w, "  error_rate = %.6f share (%d failed of %d attempted)\n", errRate, out.failed, out.attempted)

	defs, values := endToEnd, out.e2e
	if cfg.trace {
		defs, values = perLayer, out.layer
		path := filepath.Join(cfg.scratch, "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := out.spans.writeJSONL(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(w, "  spans written to %s\n", path)
	}
	res := resultJSON{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			why, named := out.unmeasured[d.name]
			if !cfg.trace || !named {
				return fmt.Errorf("workload did not produce metric %s", d.name)
			}
			fmt.Fprintf(w, "  %s not measured on %s: %s (reported as 0)\n", d.name, cfg.workload, why)
		} else {
			fmt.Fprintf(w, "  %s = %.6g %s\n", d.name, v, d.unit)
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// layerNames lists the per-layer metrics with the given prefixes, for
// marking a whole layer unmeasured.
func layerNames(prefixes ...string) []string {
	var out []string
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.name, p) {
				out = append(out, d.name)
			}
		}
	}
	return out
}
