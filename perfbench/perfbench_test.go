package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"mediumgrain/internal/corpus"
	"mediumgrain/internal/gen"
	"mediumgrain/internal/metrics"
)

func TestSelfTimeNestedSpans(t *testing.T) {
	at := func(id, parent int, start, end time.Duration, replay bool) span {
		return span{ID: id, Parent: parent, Start: start, End: end, Replay: replay}
	}
	spans := []span{
		at(1, 0, 0, 100, false),   // root
		at(2, 1, 10, 40, false),   // child
		at(3, 1, 30, 60, false),   // child overlapping the first: [10,60] counts once
		at(4, 2, 15, 20, false),   // grandchild
		at(5, 1, 90, 120, false),  // child running past its parent: 10 inside
		at(6, 1, 130, 135, false), // child entirely after its parent: nothing inside
		at(7, 1, 140, 147, true),  // replay of the parent's work: all 7 count
	}
	got := selfTimes(spans)
	want := []time.Duration{100 - 50 - 10 - 7, 30 - 5, 30, 5, 30, 5, 7}
	if !slices.Equal(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestRecorderNilIsInert(t *testing.T) {
	var r *recorder
	if id := r.begin("x", 0, 0); id != 0 {
		t.Fatalf("nil recorder returned span id %d", id)
	}
	r.end(0)
	if r.snapshot() != nil {
		t.Fatal("nil recorder has spans")
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder()
	root := r.begin("root", 0, 7)
	child := r.begin("child", root, 7)
	time.Sleep(time.Millisecond)
	r.end(child)
	r.end(root)
	spans := r.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[0].Req != 7 {
		t.Fatalf("spans %+v", spans)
	}
	self := selfTimes(spans)
	if self[0] < 0 || self[0] > spans[0].dur()-spans[1].dur() {
		t.Fatalf("root self time %v, durations %v and %v", self[0], spans[0].dur(), spans[1].dur())
	}
}

func servePlanFor(t *testing.T, seed int64, pass int) *servePlan {
	t.Helper()
	var names []string
	for _, in := range corpus.Build(corpus.Options{Scale: 1, Seed: seed}) {
		names = append(names, in.Name)
	}
	n := serveArrivals(serveRate, 10*time.Second, len(names)*len(servePs))
	hot := hotSpecs(names, newRand(seed))
	return newServePlan(seed, pass, hot, names, serveRate, n)
}

func TestServeScheduleDeterministic(t *testing.T) {
	a, b := servePlanFor(t, 3, 0), servePlanFor(t, 3, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different schedules")
	}
	if c := servePlanFor(t, 4, 0); reflect.DeepEqual(a.arrivals, c.arrivals) {
		t.Fatal("different seeds gave the same schedule")
	}
	if c := servePlanFor(t, 3, 1); reflect.DeepEqual(a.arrivals, c.arrivals) {
		t.Fatal("different passes gave the same schedule")
	}
}

func TestServeScheduleShape(t *testing.T) {
	p := servePlanFor(t, 5, 0)
	n := len(p.arrivals)
	pairs := make(map[serveSpec]int)
	for i := 0; i < n; i += serveColdEvery {
		cold := 0
		for _, a := range p.arrivals[i : i+serveColdEvery] {
			if s := p.specs[a.spec]; !s.hot {
				cold++
				pairs[serveSpec{name: s.name, p: s.p}]++
			}
		}
		if cold != 1 {
			t.Fatalf("block at %d has %d cold requests, want 1", i, cold)
		}
	}
	want := n / serveColdEvery / len(pairs)
	for pair, k := range pairs {
		if k != want {
			t.Fatalf("pair %v is cold %d times, want %d", pair, k, want)
		}
	}
	for i := 1; i < n; i++ {
		if p.arrivals[i].at < p.arrivals[i-1].at {
			t.Fatalf("arrival %d is scheduled before arrival %d", i, i-1)
		}
	}
	rate := float64(n) / p.arrivals[n-1].at.Seconds()
	if rate < 0.9*serveRate || rate > 1.1*serveRate {
		t.Fatalf("offered rate %.1f/s, want about %.0f/s", rate, serveRate)
	}
	seen := make(map[serveSpec]bool)
	for _, s := range p.specs[p.hot:] {
		if seen[s] {
			t.Fatalf("cold spec %v repeats", s)
		}
		seen[s] = true
	}
}

func TestOracle(t *testing.T) {
	a := gen.Laplacian2D(6, 6)
	parts := make([]int, a.NNZ())
	for k := range parts {
		parts[k] = k * 4 / a.NNZ()
	}
	vol := metrics.Volume(a, parts, 4)
	if err := checkResult(a, parts, 4, defaultEps, vol); err != nil {
		t.Fatalf("valid partition rejected: %v", err)
	}
	bad := slices.Clone(parts)
	bad[3] = 4
	if checkResult(a, bad, 4, defaultEps, vol) == nil {
		t.Fatal("out-of-range part accepted")
	}
	bad = slices.Clone(parts)
	for k := range bad[:len(bad)/2] {
		bad[k] = 0
	}
	if checkResult(a, bad, 4, defaultEps, metrics.Volume(a, bad, 4)) == nil {
		t.Fatal("unbalanced partition accepted")
	}
	if checkResult(a, parts, 4, defaultEps, vol+1) == nil {
		t.Fatal("wrong volume accepted")
	}
	if checkResult(a, parts[1:], 4, defaultEps, vol) == nil {
		t.Fatal("short parts vector accepted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and ([1, 2, 3, 4, 5], n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if [3]float64{q1, q2, q3} != c.want {
			t.Fatalf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables here and the
// declaration in BENCHMARK.json in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, declared []struct{ Name, Unit string }) {
		if len(defs) != len(declared) {
			t.Fatalf("%s: %d metrics here, %d in BENCHMARK.json", kind, len(defs), len(declared))
		}
		for i, d := range defs {
			if d.name != declared[i].Name || d.unit != declared[i].Unit {
				t.Fatalf("%s metric %d: %s %s here, %s %s in BENCHMARK.json", kind, i, d.name, d.unit, declared[i].Name, declared[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bench.EndToEnd)
	check("per_layer", perLayer, bench.PerLayer)
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Fatalf("BENCHMARK.json workload %s has no implementation", w.Name)
		}
	}
}
