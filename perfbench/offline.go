package main

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"time"

	mg "mediumgrain"
	"mediumgrain/internal/core"
	"mediumgrain/internal/corpus"
	"mediumgrain/internal/distio"
	"mediumgrain/internal/gen"
	"mediumgrain/internal/hgpart"
	"mediumgrain/internal/metrics"
	"mediumgrain/internal/pool"
	"mediumgrain/internal/sparse"
	"mediumgrain/internal/spmv"
)

const (
	// meshSide is the side of the mesh-huge Laplacian (543,180 nonzeros):
	// mgbench's huge-tier side 330·scale at scale 1. Its working set is
	// several times the last-level cache, and a call is short enough that
	// a pass makes a dozen or more calls, so the median of one run is
	// steady; at scale 2 (660, 2.2M nonzeros) a pass made 4 calls and the
	// run medians of one code spread by a quarter on a shared machine.
	// meshP is its part count.
	meshSide = 330
	meshP    = 64
	// meshSeeds is how many distinct partition seeds one mesh-huge pass
	// cycles through. Every pass calls each at least once, so the
	// distinct inputs a run visits — and its volume_total — do not depend
	// on how fast the program is.
	meshSeeds = 4
	// corpusScale is corpus-mix's corpus.Build scale.
	corpusScale = 2
	// setupReps is how often a run repeats input generation and engine
	// start to report their median; the warm-up call runs once.
	setupReps = 3
)

// corpusPs are the part counts of corpus-mix. At p >= 32 some of these
// small matrices exceed the balance bound at this commit (see
// README.md), and the workload must not fail.
var corpusPs = []int{2, 8, 16}

// machine is the BSP machine the service predicts with by default.
var machine = spmv.Machine{FlopRate: 1e9, G: 10, L: 1000}

// offlineInput is one (matrix, p, seed) an offline workload partitions.
type offlineInput struct {
	name string
	a    *sparse.Matrix
	p    int
	seed int64
}

// seenResult is the first result of an input, against which repeats of
// the same input are checked.
type seenResult struct {
	volume int64
	hash   uint64
}

// offlineRun drives Engine.Partition over a fixed input list and keeps
// the per-input timings and first results.
type offlineRun struct {
	cfg    config
	eng    *mg.Engine
	pl     *pool.Pool
	inputs []offlineInput
	out    *outcome
	seen   map[int]seenResult
	// times holds each input's call times (ms) of the untraced pass.
	times [][]float64
	// parts keeps each input's first parts vector for the probes.
	parts [][]int
}

func newOfflineRun(cfg config, eng *mg.Engine, inputs []offlineInput, out *outcome) *offlineRun {
	return &offlineRun{
		cfg:    cfg,
		eng:    eng,
		pl:     pool.New(cfg.workers),
		inputs: inputs,
		out:    out,
		seen:   make(map[int]seenResult),
		times:  make([][]float64, len(inputs)),
		parts:  make([][]int, len(inputs)),
	}
}

// partition makes one timed Engine.Partition call on input i and checks
// its output; ok is false when the call failed or its result did not
// pass the oracle.
func (r *offlineRun) partition(i int, rec *recorder) (dt time.Duration, res *mg.Result, ok bool) {
	in := r.inputs[i]
	id := rec.begin("mediumgrain.partition", 0, 0)
	t := time.Now()
	res, err := r.eng.Partition(context.Background(), mg.Request{Matrix: in.a, P: in.p, Method: mg.MethodMediumGrain, Seed: in.seed})
	dt = time.Since(t)
	rec.end(id)
	r.out.attempted++
	if err != nil {
		r.out.fail("%s p=%d seed=%d: %v", in.name, in.p, in.seed, err)
		return dt, nil, false
	}
	if err := checkResult(in.a, res.Parts, in.p, defaultEps, res.Volume); err != nil {
		r.out.fail("%s p=%d seed=%d: %v", in.name, in.p, in.seed, err)
		return dt, nil, false
	}
	h := partsHash(res.Parts)
	if first, ok := r.seen[i]; !ok {
		r.seen[i] = seenResult{volume: res.Volume, hash: h}
		r.parts[i] = res.Parts
	} else if first.hash != h || first.volume != res.Volume {
		r.out.fail("%s p=%d seed=%d: repeat call returned different parts", in.name, in.p, in.seed)
		return dt, nil, false
	}
	return dt, res, true
}

// pass calls the inputs in order, cycling, until the measured time
// reaches the configured seconds and every input was called once. With
// a recorder, the first call of each input is followed by an untimed
// probe; probe time does not count toward the pass's seconds.
func (r *offlineRun) pass(rec *recorder, probes *probeStats) []float64 {
	var lat []float64
	var probeTime time.Duration
	start := time.Now()
	for k := 0; k < len(r.inputs) || time.Since(start)-probeTime < r.cfg.seconds; k++ {
		i := k % len(r.inputs)
		dt, res, ok := r.partition(i, rec)
		if !ok {
			continue
		}
		lat = append(lat, ms(dt))
		if rec == nil {
			r.times[i] = append(r.times[i], ms(dt))
		} else if k < len(r.inputs) {
			t := time.Now()
			r.probe(i, res, rec, probes)
			probeTime += time.Since(t)
		}
	}
	return lat
}

// probeStats accumulates the exact counts of the probes.
type probeStats struct {
	pins, cuts, allocMB []float64
	mismatches          int
}

// probe re-runs the root bisection of input i through the layers' public
// entry points, in the order the engine calls them, under an
// Engine.Bipartition parent span: index, split, B-model, multilevel;
// then compacts both root halves and recounts the volume of the timed
// call's parts.
func (r *offlineRun) probe(i int, res *mg.Result, rec *recorder, ps *probeStats) {
	in := r.inputs[i]
	a := in.a
	root := rec.begin("probe", 0, 0)
	defer rec.end(root)

	b := rec.begin("core.bisect", root, 0)
	bres, err := r.eng.Bipartition(context.Background(), mg.Request{Matrix: a, Method: mg.MethodMediumGrain, Seed: in.seed})
	rec.end(b)
	if err != nil {
		r.out.fail("%s seed=%d: Bipartition: %v", in.name, in.seed, err)
		return
	}

	rng := mg.NewRNG(in.seed)
	s := rec.beginReplay("sparse.index", b)
	sparse.NewIndex(a)
	rec.end(s)

	s = rec.beginReplay("core.split", b)
	inRow := core.SplitParallel(a, rng, r.cfg.workers)
	rec.end(s)

	s = rec.beginReplay("core.bmodel", b)
	bm, err := core.BuildBModel(a, inRow)
	rec.end(s)
	if err != nil {
		r.out.fail("%s seed=%d: BuildBModel: %v", in.name, in.seed, err)
		return
	}
	ps.pins = append(ps.pins, float64(bm.H.NumPins()))

	hcfg := hgpart.ConfigMondriaanLike()
	hcfg.Workers = r.cfg.workers
	before := allocatedMB()
	s = rec.beginReplay("hgpart.multilevel", b)
	vparts, cut := hgpart.BipartitionCapsPool(bm.H, bisectionCaps(a.NNZ(), defaultEps), rng, hcfg, r.pl)
	rec.end(s)
	ps.allocMB = append(ps.allocMB, allocatedMB()-before)
	ps.cuts = append(ps.cuts, float64(cut))

	// The replay reproduces the engine's root bisection exactly unless the
	// engine fell back to the fine-grain model (a split it could not
	// balance); count such inputs instead of trusting the replay there.
	halves := bm.NonzeroParts(vparts)
	if !slices.Equal(halves, bres.Parts) {
		ps.mismatches++
	}
	var left, right []int
	for k, side := range halves {
		if side == 0 {
			left = append(left, k)
		} else {
			right = append(right, k)
		}
	}
	s = rec.begin("sparse.compact", root, 0)
	sparse.CompactSubmatrix(a, left)
	sparse.CompactSubmatrix(a, right)
	rec.end(s)

	s = rec.begin("metrics.volume", root, 0)
	v := metrics.VolumePool(a, res.Parts, in.p, r.pl)
	rec.end(s)
	if v != res.Volume {
		r.out.fail("%s p=%d seed=%d: VolumePool %d differs from reported volume %d", in.name, in.p, in.seed, v, res.Volume)
	}
}

// bisectionCaps are the part-weight caps of an even bisection of nnz
// nonzeros at imbalance eps, as the engine computes them.
func bisectionCaps(nnz int, eps float64) [2]int64 {
	c := int64((1 + eps) * 0.5 * float64(nnz))
	c = max(c, int64(math.Ceil(0.5*float64(nnz))))
	return [2]int64{c, c}
}

// measure runs the untraced pass and fills the end-to-end metrics; with
// tracing on it then runs the traced pass and the per-layer probes.
// tail is the percentile latency_ms_tail reports (100 = the slowest
// call).
func (r *offlineRun) measure(tail float64) error {
	out := r.out
	lat := r.pass(nil, nil)
	if len(lat) == 0 {
		return fmt.Errorf("no call succeeded")
	}
	out.e2e["latency_ms_p50"] = median(lat)
	out.e2e["latency_ms_tail"] = percentile(lat, tail)
	// Every offline call computes: there is no cache to hit.
	out.e2e["miss_latency_ms_p50"] = out.e2e["latency_ms_p50"]
	var vol int64
	for _, s := range r.seen {
		vol += s.volume
	}
	out.e2e["volume_total"] = float64(vol)
	out.note("%d timed calls over %d distinct inputs: min %.1f ms, p75 %.1f ms, p90 %.1f ms, max %.1f ms",
		len(lat), len(r.seen), percentile(lat, 0), percentile(lat, 75), percentile(lat, 90), percentile(lat, 100))
	if !r.cfg.trace {
		return nil
	}

	rec := newRecorder()
	out.spans = rec
	var ps probeStats
	traced := r.pass(rec, &ps)
	out.layer["trace.overhead_pct"] = 100 * (median(traced) - median(lat)) / median(lat)
	layerFromProbes(out, rec.snapshot(), &ps)
	return nil
}

// layerFromProbes derives the partitioning layers' metrics from the
// probes' spans and counts: each is the mean over the probed inputs.
func layerFromProbes(out *outcome, spans []span, ps *probeStats) {
	if ps.mismatches > 0 {
		out.note("%d of %d probed root bisections differ from Engine.Bipartition (fine-grain fallback)", ps.mismatches, len(ps.cuts))
	}
	dur := durationsByName(spans, false)
	self := durationsByName(spans, true)
	for metric, span := range map[string]string{
		"core.split_ms":        "core.split",
		"core.bmodel_ms":       "core.bmodel",
		"core.bisect_ms":       "core.bisect",
		"sparse.index_ms":      "sparse.index",
		"sparse.compact_ms":    "sparse.compact",
		"hgpart.multilevel_ms": "hgpart.multilevel",
		"metrics.volume_ms":    "metrics.volume",
	} {
		out.layer[metric] = mean(dur[span])
	}
	out.layer["core.bisect_other_ms"] = mean(self["core.bisect"])
	out.layer["core.bmodel_pins"] = mean(ps.pins)
	out.layer["hgpart.root_cut"] = mean(ps.cuts)
	out.layer["hgpart.multilevel_mb"] = mean(ps.allocMB)
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// speedup times the given inputs on a one-worker engine and divides by
// their median times at nproc workers from the untraced pass.
func (r *offlineRun) speedup(idx []int) float64 {
	one := mg.New(mg.EngineConfig{Workers: 1})
	var t1, tn float64
	for _, i := range idx {
		in := r.inputs[i]
		t := time.Now()
		if _, err := one.Partition(context.Background(), mg.Request{Matrix: in.a, P: in.p, Method: mg.MethodMediumGrain, Seed: in.seed}); err != nil {
			r.out.fail("%s p=%d seed=%d at 1 worker: %v", in.name, in.p, in.seed, err)
			continue
		}
		t1 += ms(time.Since(t))
		tn += median(r.times[i])
	}
	if tn == 0 {
		return 0
	}
	return t1 / tn
}

// ioProbes times distio.Write and spmv.Predict of input i's result and
// sparse parsing of the given matrices, reps times each; each metric is
// the median time.
func ioProbes(cfg config, out *outcome, a *sparse.Matrix, parts []int, p int, parse []*sparse.Matrix, reps int) error {
	b, err := distio.NewBundle(a, parts, p, nil)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.scratch, "distio-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var write, predict, parseMS []float64
	for k := 0; k < reps; k++ {
		t := time.Now()
		if err := distio.Write(dir, fmt.Sprintf("bundle%d", k), b); err != nil {
			return err
		}
		write = append(write, ms(time.Since(t)))
		t = time.Now()
		if _, err := spmv.Predict(a, parts, p, machine); err != nil {
			return err
		}
		predict = append(predict, ms(time.Since(t)))
	}
	for k := 0; k < reps; k++ {
		for _, m := range parse {
			var buf bytes.Buffer
			if err := sparse.WriteMatrixMarket(&buf, m); err != nil {
				return err
			}
			t := time.Now()
			got, err := sparse.ReadMatrixMarket(&buf)
			if err != nil {
				return err
			}
			got.Canonicalize()
			parseMS = append(parseMS, ms(time.Since(t)))
		}
	}
	out.layer["distio.write_ms"] = median(write)
	out.layer["spmv.predict_ms"] = median(predict)
	out.layer["sparse.parse_ms"] = median(parseMS)
	return nil
}

// markServiceUnmeasured records why an offline workload reports no
// service, cluster, or load-generator metrics.
func markServiceUnmeasured(out *outcome) {
	for _, n := range layerNames("service.", "cluster.", "loadgen.") {
		out.unmeasured[n] = "offline workload: no service, router, or load generator runs"
	}
}

// runMesh is the mesh-huge workload.
func runMesh(cfg config) (*outcome, error) {
	out := newOutcome()
	rng := newRand(cfg.seed)
	var a *sparse.Matrix
	var eng *mg.Engine
	var starts []float64
	for k := 0; k < setupReps; k++ {
		t := time.Now()
		a = gen.Laplacian2D(meshSide, meshSide)
		eng = mg.New(mg.EngineConfig{Workers: cfg.workers})
		starts = append(starts, time.Since(t).Seconds())
	}
	inputs := make([]offlineInput, meshSeeds)
	for k := range inputs {
		inputs[k] = offlineInput{name: fmt.Sprintf("lap2d-%d", meshSide), a: a, p: meshP, seed: 1 + rng.Int63n(1<<31)}
	}
	t := time.Now()
	if _, err := eng.Partition(context.Background(), mg.Request{Matrix: a, P: meshP, Method: mg.MethodMediumGrain, Seed: 1 + rng.Int63n(1<<31)}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	out.e2e["setup_s"] = median(starts) + time.Since(t).Seconds()
	out.note("input lap2d-%d: %d nonzeros, p=%d, %d seeds, workers %d", meshSide, a.NNZ(), meshP, meshSeeds, cfg.workers)

	r := newOfflineRun(cfg, eng, inputs, out)
	// Too few calls fit a run for a tail percentile with ten samples
	// beyond it, so the tail is the slowest call.
	if err := r.measure(100); err != nil {
		return nil, err
	}
	if !cfg.trace {
		return out, nil
	}
	out.layer["pool.speedup"] = r.speedup([]int{0})
	if err := ioProbes(cfg, out, a, r.parts[0], meshP, []*sparse.Matrix{a}, 2); err != nil {
		return nil, err
	}
	markServiceUnmeasured(out)
	return out, nil
}

// corpusInputs builds corpus-mix's inputs: every instance of the scale-2
// corpus at every p of corpusPs, in a seeded shuffled order, each with
// its own partition seed.
func corpusInputs(instances []corpus.Instance, rng *rand.Rand) []offlineInput {
	var inputs []offlineInput
	for _, in := range instances {
		for _, p := range corpusPs {
			inputs = append(inputs, offlineInput{name: in.Name, a: in.A, p: p, seed: 1 + rng.Int63n(1<<31)})
		}
	}
	rng.Shuffle(len(inputs), func(i, j int) { inputs[i], inputs[j] = inputs[j], inputs[i] })
	return inputs
}

// runCorpus is the corpus-mix workload.
func runCorpus(cfg config) (*outcome, error) {
	out := newOutcome()
	var instances []corpus.Instance
	var eng *mg.Engine
	var inputs []offlineInput
	var setups []float64
	for k := 0; k < setupReps; k++ {
		t := time.Now()
		rng := newRand(cfg.seed)
		instances = corpus.Build(corpus.Options{Scale: corpusScale, Seed: cfg.seed})
		inputs = corpusInputs(instances, rng)
		eng = mg.New(mg.EngineConfig{Workers: cfg.workers})
		// The warm-up partitions the largest input, so it grows the heap to
		// what the pass needs and costs about the same for every seed.
		in := slices.MaxFunc(inputs, func(x, y offlineInput) int { return cmp.Or(cmp.Compare(x.a.NNZ(), y.a.NNZ()), cmp.Compare(x.p, y.p)) })
		if _, err := eng.Partition(context.Background(), mg.Request{Matrix: in.a, P: in.p, Method: mg.MethodMediumGrain, Seed: in.seed + 1}); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	out.e2e["setup_s"] = median(setups)
	minNNZ, maxNNZ := math.MaxInt, 0
	for _, in := range instances {
		minNNZ, maxNNZ = min(minNNZ, in.A.NNZ()), max(maxNNZ, in.A.NNZ())
	}
	out.note("%d instances (%d-%d nonzeros) x p %v = %d inputs, workers %d", len(instances), minNNZ, maxNNZ, corpusPs, len(inputs), cfg.workers)

	r := newOfflineRun(cfg, eng, inputs, out)
	if err := r.measure(90); err != nil {
		return nil, err
	}
	if !cfg.trace {
		return out, nil
	}
	all := make([]int, len(inputs))
	for i := range all {
		all[i] = i
	}
	out.layer["pool.speedup"] = r.speedup(all)
	// The typical result: the median-size instance at the largest p.
	typical := -1
	sizes := make([]int, len(instances))
	for i, in := range instances {
		sizes[i] = in.A.NNZ()
	}
	slices.Sort(sizes)
	for i, in := range inputs {
		if in.p == corpusPs[len(corpusPs)-1] && in.a.NNZ() == sizes[len(sizes)/2] && r.parts[i] != nil {
			typical = i
			break
		}
	}
	if typical < 0 {
		return nil, fmt.Errorf("no typical result")
	}
	mats := make([]*sparse.Matrix, len(instances))
	for i, in := range instances {
		mats[i] = in.A
	}
	in := inputs[typical]
	if err := ioProbes(cfg, out, in.a, r.parts[typical], in.p, mats, 3); err != nil {
		return nil, err
	}
	markServiceUnmeasured(out)
	return out, nil
}
