// Command mgload is a closed-loop load generator for the mgserve
// daemon, in the style of transaction-benchmark drivers: N client
// goroutines each submit a partition job, poll it to completion, record
// the end-to-end latency, and immediately submit the next one. Job
// specs are drawn from a Zipf-skewed mix over (corpus matrix, p, seed),
// so the run exercises both the cache head (hot specs repeat and should
// hit) and the scheduler tail (cold specs compute under contention).
//
//	mgload -addr http://127.0.0.1:8080 -clients 32 -requests 10 -verify
//
// With -targets, requests round-robin over several base URLs instead of
// one — a cluster router, direct shards, or a mix — and the report
// breaks the run down per target (client-side counts plus each target's
// own /stats snapshot). Verification always goes through the first
// target.
//
//	mgload -targets http://127.0.0.1:8090,http://127.0.0.1:8081 -verify
//
// With -verify, every unique spec's served parts vector is compared
// against the library's own offline result — the determinism guarantee
// of the service — by rebuilding the server's corpus locally from the
// scale and seed advertised by GET /corpus. The run's throughput,
// latency percentiles (split by cache hit/miss), per-spec breakdown,
// and a final /stats snapshot are written as a JSON report
// (schema "mediumgrain-load/2") with -out.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mediumgrain/internal/cluster"
	"mediumgrain/internal/core"
	"mediumgrain/internal/corpus"
	"mediumgrain/internal/report"
	"mediumgrain/internal/service"
	"mediumgrain/internal/sparse"
)

// httpc bounds every individual HTTP call so a hung or blackholed
// server fails the request instead of wedging a client goroutine (the
// -timeout flag only governs the submit-to-done polling deadline).
var httpc = &http.Client{Timeout: 30 * time.Second}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mgload: ")

	var (
		addr       = flag.String("addr", "http://127.0.0.1:8080", "mgserve base URL")
		targetsCSV = flag.String("targets", "", "comma-separated mgserve base URLs to drive round-robin (overrides -addr); verification uses the first")
		clients    = flag.Int("clients", 32, "concurrent closed-loop clients")
		requests   = flag.Int("requests", 10, "requests per client (ignored when -duration > 0)")
		duration   = flag.Duration("duration", 0, "run for this long instead of a fixed request count")
		matrices   = flag.String("matrices", "lap2d-24,tridiag,band-5,bip-tall", "comma-separated corpus names")
		psFlag     = flag.String("ps", "2,4,8", "comma-separated part counts")
		seeds      = flag.Int("seeds", 2, "partitioning seeds per (matrix, p): 1..n")
		method     = flag.String("method", "MG", "partitioning method")
		parallelFM = flag.Bool("parallel-fm", false, "request coarse-level FM try racing (about 1.2% less volume for about 60% more compute)")
		theta      = flag.Float64("zipf", 0.9, "Zipf skew over the spec space (0 = uniform)")
		seed       = flag.Int64("seed", 1, "load-generator RNG seed")
		poll       = flag.Duration("poll", 2*time.Millisecond, "poll interval while a job runs")
		timeout    = flag.Duration("timeout", 2*time.Minute, "per-request completion deadline")
		outPath    = flag.String("out", "", "write the JSON load report here")
		verify     = flag.Bool("verify", false, "compare every unique spec's parts against the offline library")
		retries    = flag.Int("retries", 0, "resubmit a rejected/errored request up to this many times (with growing backoff) before counting it as an error")
		maxErrRate = flag.Float64("max-error-rate", -1, "exit nonzero when errors/requests exceeds this fraction (negative = no gate; 0 = any error fails the run)")
	)
	flag.Parse()
	if *clients < 1 {
		*clients = 1
	}

	targets := buildTargets(*targetsCSV, *addr)
	primary := targets[0]

	specs := buildSpecs(*matrices, *psFlag, *seeds, *method, *parallelFM)
	if len(specs) == 0 {
		log.Fatal("empty spec space")
	}
	cdf := zipfCDF(len(specs), *theta)
	log.Printf("%d clients, %d specs (zipf theta=%g), %d target(s) starting at %s",
		*clients, len(specs), *theta, len(targets), primary)

	for _, t := range targets {
		if err := waitHealthy(t, 10*time.Second); err != nil {
			log.Fatal(err)
		}
	}

	loadStart := time.Now()
	results := runLoad(targets, specs, cdf, *clients, *requests, *duration, *seed, *poll, *timeout, *retries)
	elapsed := time.Since(loadStart)

	rep := assemble(results, specs, targets, elapsed, *clients, *seed, *theta)
	// Snapshot /stats before verification: verifyAll re-submits every
	// unique spec, which would inflate the server-side counters the
	// report attributes to the load run itself.
	if raw, err := fetchRaw(primary + "/stats"); err == nil {
		rep.ServerStats = raw
	}
	for i := range rep.PerTarget {
		if raw, err := fetchRaw(rep.PerTarget[i].Addr + "/stats"); err == nil {
			rep.PerTarget[i].Stats = raw
		}
	}
	if *verify {
		verifyAll(primary, specs, results, rep, *poll, *timeout)
	}

	printSummary(rep)
	if *outPath != "" {
		if err := rep.WriteJSONFile(*outPath); err != nil {
			log.Fatal(err)
		}
		log.Printf("report written to %s", *outPath)
	}
	if rep.VerifyFailures > 0 {
		os.Exit(1)
	}
	// A verify run that verified nothing (every request failed or was
	// rejected) must not pass: CI gates on this exit code.
	if *verify && rep.Verified == 0 {
		log.Print("verify: no successful requests to verify")
		os.Exit(1)
	}
	// Likewise, server-side job failures are a broken service even
	// though their specs never reach the verification map (503
	// admission rejections and transport errors, by contrast, are
	// expected under deliberate overload).
	if *verify {
		var failedJobs int64
		for _, s := range results {
			if s.failed {
				failedJobs++
			}
		}
		if failedJobs > 0 {
			log.Printf("verify: %d jobs failed server-side", failedJobs)
			os.Exit(1)
		}
	}
	// The chaos-smoke acceptance gate: under fault injection the cluster
	// must still answer every client, so the smoke runs with
	// -max-error-rate 0 and any surviving error fails the process.
	if *maxErrRate >= 0 && rep.ErrorRate > *maxErrRate {
		log.Printf("error rate %.4f exceeds -max-error-rate %.4f (%d/%d requests failed)",
			rep.ErrorRate, *maxErrRate, rep.Errors, rep.Requests)
		os.Exit(1)
	}
}

// buildTargets resolves the driven base-URL list: -targets when given,
// else the single -addr. Trailing slashes are stripped so path joins
// stay uniform.
func buildTargets(csv, addr string) []string {
	var out []string
	for _, part := range strings.Split(csv, ",") {
		if p := strings.TrimRight(strings.TrimSpace(part), "/"); p != "" {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		out = []string{strings.TrimRight(addr, "/")}
	}
	return out
}

// buildSpecs crosses matrices × part counts × seeds into the spec space.
func buildSpecs(matrices, psFlag string, seeds int, method string, parallelFM bool) []service.JobSpec {
	var ps []int
	for _, f := range strings.Split(psFlag, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || p < 1 {
			log.Fatalf("bad -ps entry %q", f)
		}
		ps = append(ps, p)
	}
	if seeds < 1 {
		seeds = 1
	}
	var specs []service.JobSpec
	for _, name := range strings.Split(matrices, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		for _, p := range ps {
			for s := 1; s <= seeds; s++ {
				specs = append(specs, service.JobSpec{
					Corpus: name, P: p, Method: method, Seed: int64(s),
					ParallelFM: parallelFM,
				})
			}
		}
	}
	return specs
}

// zipfCDF returns the cumulative distribution of rank popularity
// P(i) ∝ 1/(i+1)^theta over n specs; theta 0 is uniform.
func zipfCDF(n int, theta float64) []float64 {
	w := make([]float64, n)
	var total float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), theta)
		total += w[i]
	}
	cdf := make([]float64, n)
	var acc float64
	for i := range w {
		acc += w[i] / total
		cdf[i] = acc
	}
	cdf[n-1] = 1
	return cdf
}

func pick(cdf []float64, rng *rand.Rand) int {
	i := sort.SearchFloat64s(cdf, rng.Float64())
	if i >= len(cdf) {
		i = len(cdf) - 1
	}
	return i
}

// sample is one completed request.
type sample struct {
	spec      int
	target    int // index into the driven target list
	latencyMS float64
	cached    bool
	ok        bool
	// failed marks a job the server executed and reported as failed —
	// distinct from a 503 admission rejection or a transport error.
	failed bool
	// retries counts resubmissions of this request (-retries); a sample
	// that succeeds on a retry is not an error.
	retries int
	jobID   string
}

func waitHealthy(addr string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		resp, err := httpc.Get(addr + "/healthz")
		if err == nil {
			var h struct {
				Status string `json:"status"`
			}
			decErr := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			// A draining server also answers 200; loading it would only
			// produce 503s, so insist on "ok".
			if decErr == nil && resp.StatusCode == http.StatusOK && h.Status == "ok" {
				return nil
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("server at %s not healthy within %s", addr, budget)
}

// runLoad drives the closed loop and returns every sample. With several
// targets each client round-robins across them, so every target sees an
// interleaved share of every client's spec stream.
func runLoad(targets []string, specs []service.JobSpec, cdf []float64, clients, requests int, duration time.Duration, seed int64, poll, timeout time.Duration, retries int) []sample {
	var (
		mu  sync.Mutex
		out []sample
		wg  sync.WaitGroup
	)
	stopAt := time.Time{}
	if duration > 0 {
		stopAt = time.Now().Add(duration)
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(id)))
			var local []sample
			for i := 0; ; i++ {
				if duration > 0 {
					if !time.Now().Before(stopAt) {
						break
					}
				} else if i >= requests {
					break
				}
				si := pick(cdf, rng)
				ti := (id + i) % len(targets)
				s := requestWithRetries(targets[ti], si, specs[si], poll, timeout, retries)
				s.target = ti
				local = append(local, s)
				if !s.ok {
					time.Sleep(5 * time.Millisecond) // back off after rejection/failure
				}
			}
			mu.Lock()
			out = append(out, local...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return out
}

// requestWithRetries resubmits a rejected or errored request up to
// `retries` extra times with a growing pause. Server-side job failures
// are not retried: the service is deterministic, so a failed compute
// fails identically on resubmission. Content-addressed cache keys make
// resubmission safe — a retry of work the first attempt actually
// finished is answered from the cache, not recomputed.
func requestWithRetries(addr string, specIdx int, spec service.JobSpec, poll, timeout time.Duration, retries int) sample {
	s := oneRequest(addr, specIdx, spec, poll, timeout)
	for attempt := 0; attempt < retries && !s.ok && !s.failed; attempt++ {
		time.Sleep(time.Duration(attempt+1) * 50 * time.Millisecond)
		s = oneRequest(addr, specIdx, spec, poll, timeout)
		s.retries = attempt + 1
	}
	return s
}

// oneRequest submits a spec and polls it to completion.
func oneRequest(addr string, specIdx int, spec service.JobSpec, poll, timeout time.Duration) sample {
	body, _ := json.Marshal(spec)
	start := time.Now()
	resp, err := httpc.Post(addr+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return sample{spec: specIdx}
	}
	var v service.JobView
	decErr := json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		return sample{spec: specIdx}
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted:
		return sample{spec: specIdx}
	case decErr != nil:
		return sample{spec: specIdx}
	}
	deadline := time.Now().Add(timeout)
	for v.State != "done" && v.State != "failed" {
		if !time.Now().Before(deadline) {
			return sample{spec: specIdx, jobID: v.ID}
		}
		time.Sleep(poll)
		jr, err := httpc.Get(addr + "/jobs/" + v.ID)
		if err != nil {
			return sample{spec: specIdx, jobID: v.ID}
		}
		ok := jr.StatusCode == http.StatusOK
		decErr = json.NewDecoder(jr.Body).Decode(&v)
		jr.Body.Close()
		// A non-200 (id aged out of the job history, server restarted)
		// leaves v's state stale; fail fast instead of polling out the
		// whole deadline.
		if !ok || decErr != nil {
			return sample{spec: specIdx, jobID: v.ID}
		}
	}
	return sample{
		spec:      specIdx,
		latencyMS: float64(time.Since(start).Microseconds()) / 1000,
		cached:    v.Cached,
		ok:        v.State == "done",
		failed:    v.State == "failed",
		jobID:     v.ID,
	}
}

// assemble aggregates samples into the load report.
func assemble(samples []sample, specs []service.JobSpec, targets []string, elapsed time.Duration, clients int, seed int64, theta float64) *report.LoadReport {
	rep := report.NewLoadReport(time.Now().UTC().Format(time.RFC3339), targets[0], clients, seed, theta)
	if len(targets) > 1 {
		rep.Targets = targets
	}
	var all, hit, miss []float64
	perSpec := make([]report.LoadEntry, len(specs))
	for i, s := range specs {
		perSpec[i] = report.LoadEntry{Matrix: s.Corpus, P: s.P, Method: s.Method, Seed: s.Seed}
	}
	perTarget := make([]report.LoadTargetEntry, len(targets))
	for i, t := range targets {
		perTarget[i] = report.LoadTargetEntry{Addr: t}
	}
	specLats := make([][]float64, len(specs))
	for _, s := range samples {
		e := &perSpec[s.spec]
		t := &perTarget[s.target]
		e.Requests++
		t.Requests++
		rep.Requests++
		t.Retries += int64(s.retries)
		rep.Retries += int64(s.retries)
		if !s.ok {
			e.Errors++
			t.Errors++
			rep.Errors++
			continue
		}
		if s.cached {
			e.CacheHits++
			t.CacheHits++
			rep.CacheHits++
			hit = append(hit, s.latencyMS)
		} else {
			miss = append(miss, s.latencyMS)
		}
		all = append(all, s.latencyMS)
		specLats[s.spec] = append(specLats[s.spec], s.latencyMS)
	}
	rep.PerTarget = perTarget
	if rep.Requests > 0 {
		rep.ErrorRate = float64(rep.Errors) / float64(rep.Requests)
	}
	rep.Latency = report.LoadLatency{
		Overall: report.SummarizeLatencies(all),
		Hits:    report.SummarizeLatencies(hit),
		Misses:  report.SummarizeLatencies(miss),
	}
	for i := range perSpec {
		perSpec[i].Latency = report.SummarizeLatencies(specLats[i])
	}
	var kept []report.LoadEntry
	for _, e := range perSpec {
		if e.Requests > 0 {
			kept = append(kept, e)
		}
	}
	rep.PerSpec = kept
	rep.SortPerSpec()
	rep.DurationMS = float64(elapsed.Microseconds()) / 1000
	if rep.DurationMS > 0 {
		rep.ThroughputRPS = float64(len(all)) / (rep.DurationMS / 1000)
	}
	return rep
}

// verifyAll checks every requested unique spec against the offline
// library: the acceptance bar for end-to-end determinism under load.
func verifyAll(addr string, specs []service.JobSpec, samples []sample, rep *report.LoadReport, poll, timeout time.Duration) {
	// Rebuild the server's corpus locally.
	raw, err := fetchRaw(addr + "/corpus")
	if err != nil {
		log.Printf("verify: corpus fetch failed: %v", err)
		rep.VerifyFailures++
		return
	}
	var cv struct {
		Scale int   `json:"scale"`
		Seed  int64 `json:"seed"`
	}
	if err := json.Unmarshal(raw, &cv); err != nil {
		log.Printf("verify: corpus decode failed: %v", err)
		rep.VerifyFailures++
		return
	}
	instances := corpus.Build(corpus.Options{Scale: cv.Scale, Seed: cv.Seed})

	requested := make(map[int]bool)
	for _, s := range samples {
		if s.ok {
			requested[s.spec] = true
		}
	}
	for si := range requested {
		spec := specs[si]
		// Re-submit the spec rather than re-fetching a recorded job id:
		// the server's finished-job history is bounded, so ids from
		// early in a long run may have aged out, while a fresh
		// submission is answered from the result cache.
		rv, err := submitAndFetch(addr, spec, poll, timeout)
		if err != nil {
			log.Printf("verify: %s p=%d seed=%d: %v", spec.Corpus, spec.P, spec.Seed, err)
			rep.VerifyFailures++
			continue
		}
		in, err := corpus.Find(instances, spec.Corpus)
		if err != nil {
			log.Printf("verify: %v", err)
			rep.VerifyFailures++
			continue
		}
		want, err := offline(in.A, spec)
		if err != nil {
			log.Printf("verify: offline run: %v", err)
			rep.VerifyFailures++
			continue
		}
		if cluster.MatrixHash(in.A) != rv.Hash || !slices.Equal(want, rv.Parts) {
			log.Printf("verify FAIL: %s p=%d seed=%d: served parts differ from offline library", spec.Corpus, spec.P, spec.Seed)
			rep.VerifyFailures++
			continue
		}
		rep.Verified++
	}
}

// submitAndFetch submits a spec, polls it to completion under the same
// cadence and budget as the load phase, and returns the full result.
func submitAndFetch(addr string, spec service.JobSpec, poll, timeout time.Duration) (service.ResultView, error) {
	var rv service.ResultView
	s := oneRequest(addr, 0, spec, poll, timeout)
	if !s.ok {
		return rv, fmt.Errorf("verification job did not complete")
	}
	raw, err := fetchRaw(addr + "/jobs/" + s.jobID + "/result")
	if err == nil {
		err = json.Unmarshal(raw, &rv)
	}
	return rv, err
}

// verifyEngine is the long-lived engine behind -verify: results are
// bit-identical at every worker count, so one single-worker engine
// reproduces whatever pool the server runs.
var verifyEngine = core.NewEngine(1)

// offline runs the library locally on the spec the server ran.
func offline(a *sparse.Matrix, spec service.JobSpec) ([]int, error) {
	m, err := core.ParseMethod(spec.Method)
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	if spec.Eps != nil {
		opts.Eps = *spec.Eps
	}
	opts.Refine = spec.Refine
	opts.Config.ParallelFM = spec.ParallelFM
	res, err := verifyEngine.Partition(context.Background(), a, spec.P, m, opts, rand.New(rand.NewSource(spec.Seed)))
	if err != nil {
		return nil, err
	}
	return res.Parts, nil
}

func fetchRaw(url string) (json.RawMessage, error) {
	resp, err := httpc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

func printSummary(rep *report.LoadReport) {
	hitRate := 0.0
	if n := rep.Requests - rep.Errors; n > 0 {
		hitRate = float64(rep.CacheHits) / float64(n)
	}
	fmt.Printf("requests=%d errors=%d retries=%d cache_hits=%d (%.1f%%) throughput=%.1f req/s\n",
		rep.Requests, rep.Errors, rep.Retries, rep.CacheHits, 100*hitRate, rep.ThroughputRPS)
	l := rep.Latency
	fmt.Printf("latency ms: overall p50=%.2f p90=%.2f p99=%.2f max=%.2f | hits p50=%.2f | misses p50=%.2f\n",
		l.Overall.P50MS, l.Overall.P90MS, l.Overall.P99MS, l.Overall.MaxMS, l.Hits.P50MS, l.Misses.P50MS)
	top := rep.PerSpec
	if len(top) > 5 {
		top = top[:5]
	}
	for _, e := range top {
		fmt.Printf("  %-14s p=%-3d seed=%-2d  %5d req  %4d hits  p50=%.2fms\n",
			e.Matrix, e.P, e.Seed, e.Requests, e.CacheHits, e.Latency.P50MS)
	}
	for _, t := range rep.PerTarget {
		fmt.Printf("  target %-28s %5d req  %4d err  %4d retry  %4d hits\n",
			t.Addr, t.Requests, t.Errors, t.Retries, t.CacheHits)
	}
	if rep.Verified+rep.VerifyFailures > 0 {
		fmt.Printf("verified %d unique specs against the offline library, %d failures\n",
			rep.Verified, rep.VerifyFailures)
	}
}
