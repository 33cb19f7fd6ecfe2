package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mediumgrain/internal/cluster"
	"mediumgrain/internal/core"
	"mediumgrain/internal/corpus"
	"mediumgrain/internal/sparse"
)

func testConfig() Config {
	return Config{Workers: 4, Runners: 2, QueueDepth: 16, CacheEntries: 32}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, warns := New(cfg)
	for _, w := range warns {
		t.Logf("rehydration warning: %v", w)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Drain)
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, spec JobSpec) (JobView, int) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return v, resp.StatusCode
}

func waitDone(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.State == StateDone || v.State == StateFailed {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobView{}
}

func getResult(t *testing.T, ts *httptest.Server, id string) ResultView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d", resp.StatusCode)
	}
	var rv ResultView
	if err := json.NewDecoder(resp.Body).Decode(&rv); err != nil {
		t.Fatal(err)
	}
	return rv
}

// offlineParts computes the library's own answer for a spec; any worker
// count reproduces the server's.
func offlineParts(t *testing.T, a *sparse.Matrix, spec JobSpec) []int {
	t.Helper()
	m, err := core.ParseMethod(spec.Method)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	if spec.Eps != nil {
		opts.Eps = *spec.Eps
	}
	opts.Refine = spec.Refine
	res, err := core.NewEngine(0).Partition(context.Background(), a, spec.P, m, opts, rand.New(rand.NewSource(spec.Seed)))
	if err != nil {
		t.Fatal(err)
	}
	return res.Parts
}

func TestSubmitCorpusJobMatchesOffline(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	spec := JobSpec{Corpus: "lap2d-24", P: 4, Method: "MG", Seed: 42, Workers: 2}
	v, code := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if v.State != StateQueued || v.Cached {
		t.Fatalf("fresh job must queue uncached: %+v", v)
	}
	done := waitDone(t, ts, v.ID)
	if done.State != StateDone {
		t.Fatalf("job failed: %s", done.Error)
	}
	rv := getResult(t, ts, v.ID)
	in, err := corpus.Find(s.instances, "lap2d-24")
	if err != nil {
		t.Fatal(err)
	}
	want := offlineParts(t, in.A, spec)
	if !slices.Equal(rv.Parts, want) {
		t.Fatal("served parts differ from the library's offline result")
	}
	if rv.Volume <= 0 || rv.Predict == nil || rv.NNZ != in.A.NNZ() {
		t.Fatalf("result facts incomplete: %+v", rv)
	}
	if rv.Hash != cluster.MatrixHash(in.A) {
		t.Fatal("matrix hash mismatch")
	}
}

func TestCacheHitOnResubmitAndStats(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	spec := JobSpec{Corpus: "tridiag", P: 2, Seed: 7, Workers: 1}
	v1, _ := postJob(t, ts, spec)
	waitDone(t, ts, v1.ID)

	v2, code := postJob(t, ts, spec)
	if code != http.StatusOK {
		t.Fatalf("cache hit must answer 200, got %d", code)
	}
	if v2.State != StateDone || !v2.Cached {
		t.Fatalf("resubmission not served from cache: %+v", v2)
	}
	if r1, r2 := getResult(t, ts, v1.ID), getResult(t, ts, v2.ID); !slices.Equal(r1.Parts, r2.Parts) {
		t.Fatal("cached result differs from computed result")
	}

	// The workers field is ignored: workers=4 shares the slot of workers=1.
	spec.Workers = 4
	v3, code := postJob(t, ts, spec)
	if code != http.StatusOK || !v3.Cached {
		t.Fatalf("different worker count must share the cache slot: code=%d %+v", code, v3)
	}

	st := s.Stats()
	if st.Cache.Hits < 2 || st.Cache.Misses < 1 {
		t.Fatalf("stats missed the cache traffic: %+v", st.Cache)
	}
	if st.Completed < 1 || st.Methods["MG"].Count < 1 {
		t.Fatalf("per-method latency not recorded: %+v", st.Methods)
	}
}

func TestUploadedMatrixSharesCacheWithCorpus(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	in, err := corpus.Find(s.instances, "band-5")
	if err != nil {
		t.Fatal(err)
	}
	var mm bytes.Buffer
	if err := sparse.WriteMatrixMarket(&mm, in.A); err != nil {
		t.Fatal(err)
	}
	v1, _ := postJob(t, ts, JobSpec{Corpus: "band-5", P: 2, Seed: 3, Workers: 1})
	waitDone(t, ts, v1.ID)
	v2, code := postJob(t, ts, JobSpec{MatrixMM: mm.String(), P: 2, Seed: 3, Workers: 1})
	if code != http.StatusOK || !v2.Cached {
		t.Fatalf("byte-identical upload must hit the corpus job's cache entry: code=%d %+v", code, v2)
	}
}

// TestWorkersShareOneCacheSlot: results are bit-identical at every
// worker count, so a spec sent with workers 0 and with workers 4 keys to
// one cache slot and the second submission is a hit.
func TestWorkersShareOneCacheSlot(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	zero := JobSpec{Corpus: "tridiag", P: 2, Seed: 5, Workers: 0}
	four := JobSpec{Corpus: "tridiag", P: 2, Seed: 5, Workers: 4}
	v1, _ := postJob(t, ts, zero)
	waitDone(t, ts, v1.ID)
	v2, code := postJob(t, ts, four)
	if code != http.StatusOK || !v2.Cached || v2.Key != v1.Key {
		t.Fatalf("workers 0 and 4 must share one cache slot: code=%d %+v vs %+v", code, v2, v1)
	}
}

// TestRetiredExactFMFieldIgnored: a body still carrying the retired
// "exact_fm" field is accepted, runs in the default mode, and shares
// the plain spec's cache slot.
func TestRetiredExactFMFieldIgnored(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	v1, _ := postJob(t, ts, JobSpec{Corpus: "tridiag", P: 2, Seed: 6})
	waitDone(t, ts, v1.ID)
	body := `{"corpus": "tridiag", "p": 2, "seed": 6, "exact_fm": true}`
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v2 JobView
	if err := json.NewDecoder(resp.Body).Decode(&v2); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !v2.Cached || v2.Key != v1.Key {
		t.Fatalf("exact_fm must be ignored: code=%d %+v vs %+v", resp.StatusCode, v2, v1)
	}
}

func TestBadSpecs(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	cases := []JobSpec{
		{Corpus: "no-such-matrix", P: 2},
		{Corpus: "lap2d-24", P: 0},
		{Corpus: "lap2d-24", P: 2, Method: "XX"},
		{Corpus: "lap2d-24", MatrixMM: "x", P: 2},
		{MatrixMM: "not a matrix market header", P: 2},
		{P: 2},
	}
	for i, spec := range cases {
		if _, code := postJob(t, ts, spec); code != http.StatusBadRequest {
			t.Fatalf("case %d: status %d, want 400", i, code)
		}
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated body: status %d", resp.StatusCode)
	}
}

func TestUnknownJobAndPendingResult(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	resp, err := http.Get(ts.URL + "/jobs/j-99999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: status %d", resp.StatusCode)
	}
}

func TestHealthzAndCorpusEndpoints(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h["status"] != "ok" {
		t.Fatalf("healthz: %v", h)
	}

	resp, err = http.Get(ts.URL + "/corpus")
	if err != nil {
		t.Fatal(err)
	}
	var cv corpusView
	if err := json.NewDecoder(resp.Body).Decode(&cv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cv.Scale != s.cfg.CorpusScale || cv.Seed != s.cfg.CorpusSeed || len(cv.Names) == 0 {
		t.Fatalf("corpus view incomplete: %+v", cv)
	}
}

// TestConcurrentLoadDeterminism is the acceptance check: >= 32 jobs in
// flight at once, every served parts vector equal to the library's
// offline answer for its (matrix, p, method, seed).
func TestConcurrentLoadDeterminism(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, Runners: 4, QueueDepth: 64, CacheEntries: 64})
	matrices := []string{"lap2d-24", "tridiag", "band-5", "bip-tall"}
	type sub struct {
		spec JobSpec
		id   string
	}
	var (
		mu   sync.Mutex
		subs []sub
		wg   sync.WaitGroup
	)
	for i := 0; i < 32; i++ {
		spec := JobSpec{
			Corpus:  matrices[i%len(matrices)],
			P:       2 + 2*(i%3),
			Method:  "MG",
			Seed:    int64(1 + i%4),
			Workers: 1 + i%3,
		}
		wg.Add(1)
		go func(spec JobSpec) {
			defer wg.Done()
			body, _ := json.Marshal(spec)
			resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
				t.Errorf("submit status %d", resp.StatusCode)
				return
			}
			var v JobView
			if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			subs = append(subs, sub{spec: spec, id: v.ID})
			mu.Unlock()
		}(spec)
	}
	wg.Wait()
	if len(subs) != 32 {
		t.Fatalf("only %d/32 submissions accepted", len(subs))
	}

	offline := make(map[string][]int)
	for _, sb := range subs {
		done := waitDone(t, ts, sb.id)
		if done.State != StateDone {
			t.Fatalf("job %s failed: %s", sb.id, done.Error)
		}
		rv := getResult(t, ts, sb.id)
		specKey := fmt.Sprintf("%s|%d|%d", sb.spec.Corpus, sb.spec.P, sb.spec.Seed)
		want, ok := offline[specKey]
		if !ok {
			in, err := corpus.Find(s.instances, sb.spec.Corpus)
			if err != nil {
				t.Fatal(err)
			}
			want = offlineParts(t, in.A, sb.spec)
			offline[specKey] = want
		}
		if !slices.Equal(rv.Parts, want) {
			t.Fatalf("job %s (%s): served parts differ from offline library result", sb.id, specKey)
		}
	}
}

// TestDrainFinishesAcceptedWork proves graceful shutdown: accepted jobs
// complete, later submissions are refused.
func TestDrainFinishesAcceptedWork(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, Runners: 1, QueueDepth: 16, CacheEntries: 16})
	var ids []string
	for i := 0; i < 6; i++ {
		v, code := postJob(t, ts, JobSpec{Corpus: "lap2d-24", P: 4, Seed: int64(100 + i), Workers: 1})
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
		ids = append(ids, v.ID)
	}
	s.Drain()
	for _, id := range ids {
		job, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s dropped", id)
		}
		if st := s.jobs.state(job); st != StateDone {
			t.Fatalf("job %s left in state %s after drain", id, st)
		}
	}
	if _, code := postJob(t, ts, JobSpec{Corpus: "lap2d-24", P: 2, Seed: 1, Workers: 1}); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submission: status %d, want 503", code)
	}
	if s.Stats().Status != "draining" {
		t.Fatal("stats must report draining")
	}
}

func TestAdmissionControlRejectsWhenFull(t *testing.T) {
	// One runner, queue of one; the first job parks the runner, the
	// second fills the queue, further submissions must bounce with 503.
	s, ts := newTestServer(t, Config{Workers: 1, Runners: 1, QueueDepth: 1, CacheEntries: 4})
	_ = s
	got503 := false
	var ids []string
	for i := 0; i < 24; i++ {
		v, code := postJob(t, ts, JobSpec{Corpus: "lap3d-8", P: 16, Seed: int64(i), Workers: 1})
		switch code {
		case http.StatusAccepted:
			ids = append(ids, v.ID)
		case http.StatusServiceUnavailable:
			got503 = true
		default:
			t.Fatalf("submit %d: status %d", i, code)
		}
	}
	if !got503 {
		t.Skip("queue never filled on this machine; admission path untested here")
	}
	for _, id := range ids {
		waitDone(t, ts, id)
	}
}

func TestPerJobTimeout(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	v, code := postJob(t, ts, JobSpec{Corpus: "lap2d-24", P: 64, Seed: 9, Workers: 1, TimeoutMS: 1})
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	done := waitDone(t, ts, v.ID)
	if done.State != StateFailed || !strings.Contains(done.Error, "timeout") {
		t.Fatalf("1ms budget must time out, got %+v", done)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("failed job result: status %d, want 410", resp.StatusCode)
	}
}

func TestJobHistoryEviction(t *testing.T) {
	cfg := testConfig()
	cfg.JobHistory = 3
	_, ts := newTestServer(t, cfg)
	var ids []string
	for i := 0; i < 5; i++ {
		v, _ := postJob(t, ts, JobSpec{Corpus: "tridiag", P: 2, Seed: int64(20 + i), Workers: 1})
		waitDone(t, ts, v.ID)
		ids = append(ids, v.ID)
	}
	// The two oldest finished jobs must have aged out...
	for _, id := range ids[:2] {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("evicted job %s: status %d, want 404", id, resp.StatusCode)
		}
	}
	// ...while the newest are still queryable, results included.
	for _, id := range ids[2:] {
		getResult(t, ts, id)
	}
}

func TestUploadCanonicalization(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	// The same 4-nonzero pattern, listed in different orders and once
	// with a duplicate entry: all three must share one cache slot.
	header := func(nnz int) string {
		return "%%MatrixMarket matrix coordinate pattern general\n3 3 " + strconv.Itoa(nnz) + "\n"
	}
	orderings := []string{
		header(4) + "1 1\n2 2\n3 3\n1 3\n",
		header(4) + "1 3\n3 3\n1 1\n2 2\n",
		header(5) + "1 1\n2 2\n2 2\n3 3\n1 3\n",
	}
	var firstKey string
	for i, mm := range orderings {
		v, code := postJob(t, ts, JobSpec{MatrixMM: mm, P: 2, Seed: 1, Workers: 1})
		if code != http.StatusOK && code != http.StatusAccepted {
			t.Fatalf("upload %d: status %d", i, code)
		}
		if i == 0 {
			firstKey = v.Key
			waitDone(t, ts, v.ID)
			continue
		}
		if v.Key != firstKey {
			t.Fatalf("upload %d: key %s != %s — canonicalization fragmented the cache", i, v.Key, firstKey)
		}
		if !v.Cached {
			t.Fatalf("upload %d: reordered pattern missed the cache", i)
		}
	}
}

func TestEvictedResultAnswers410(t *testing.T) {
	cfg := testConfig()
	cfg.CacheEntries = 1
	_, ts := newTestServer(t, cfg)
	v1, _ := postJob(t, ts, JobSpec{Corpus: "tridiag", P: 2, Seed: 31, Workers: 1})
	waitDone(t, ts, v1.ID)
	// A second distinct spec evicts the first from the 1-entry cache.
	v2, _ := postJob(t, ts, JobSpec{Corpus: "tridiag", P: 2, Seed: 32, Workers: 1})
	waitDone(t, ts, v2.ID)

	resp, err := http.Get(ts.URL + "/jobs/" + v1.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("evicted result: status %d, want 410", resp.StatusCode)
	}
	// The survivor still serves its parts.
	if rv := getResult(t, ts, v2.ID); len(rv.Parts) == 0 {
		t.Fatal("surviving result lost its parts")
	}
	// Resubmitting the evicted spec recomputes and serves again.
	v3, _ := postJob(t, ts, JobSpec{Corpus: "tridiag", P: 2, Seed: 31, Workers: 1})
	waitDone(t, ts, v3.ID)
	if rv := getResult(t, ts, v3.ID); len(rv.Parts) == 0 {
		t.Fatal("recomputed result lost its parts")
	}
}

func TestPersistAndRehydrate(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.DataDir = dir

	s1, ts1 := newTestServer(t, cfg)
	spec := JobSpec{Corpus: "arrow", P: 4, Seed: 11, Workers: 2}
	v, _ := postJob(t, ts1, spec)
	waitDone(t, ts1, v.ID)
	want := getResult(t, ts1, v.ID)
	s1.Drain()
	ts1.Close()

	s2, ts2 := newTestServer(t, cfg)
	if n := s2.cache.Len(); n < 1 {
		t.Fatalf("rehydrated cache has %d entries, want >= 1", n)
	}
	v2, code := postJob(t, ts2, spec)
	if code != http.StatusOK || !v2.Cached {
		t.Fatalf("restarted server must answer from rehydrated cache: code=%d %+v", code, v2)
	}
	got := getResult(t, ts2, v2.ID)
	if !slices.Equal(got.Parts, want.Parts) || got.Volume != want.Volume {
		t.Fatal("rehydrated result differs from the original")
	}
}

// TestRehydrateSkipsUnreachableEntries persists an entry, then moves it
// under a key its own fields do not derive — what every entry written
// before a key-version bump looks like — and checks that a restart
// skips it with a warning instead of filling the cache with an entry
// no request can hit (and offering it to joining shards).
func TestRehydrateSkipsUnreachableEntries(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.DataDir = dir
	s1, ts1 := newTestServer(t, cfg)
	v, _ := postJob(t, ts1, JobSpec{Corpus: "tridiag", P: 2, Seed: 13})
	done := waitDone(t, ts1, v.ID)
	s1.Drain()
	ts1.Close()

	stale := strings.Repeat("ab", 16)
	for _, ext := range []string{".mtx", ".parts", ".invec", ".outvec", ".meta.json"} {
		if err := os.Rename(filepath.Join(dir, done.Key+ext), filepath.Join(dir, stale+ext)); err != nil {
			t.Fatal(err)
		}
	}
	metaPath := filepath.Join(dir, stale+".meta.json")
	data, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	var meta map[string]any
	if err := json.Unmarshal(data, &meta); err != nil {
		t.Fatal(err)
	}
	meta["key"] = stale // the meta agrees with its file name; only the fields disagree
	if data, err = json.Marshal(meta); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(metaPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, warns := New(cfg)
	defer s2.Drain()
	if s2.cache.Len() != 0 {
		t.Fatalf("unreachable entry rehydrated anyway (%d entries)", s2.cache.Len())
	}
	reported := false
	for _, w := range warns {
		if strings.Contains(w.Error(), stale) && strings.Contains(w.Error(), "derive key "+done.Key) {
			reported = true
		}
	}
	if !reported {
		t.Fatalf("startup warnings do not report the unreachable entry: %v", warns)
	}
}

func TestRehydrateSkipsCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.DataDir = dir
	s1, ts1 := newTestServer(t, cfg)
	v, _ := postJob(t, ts1, JobSpec{Corpus: "tridiag", P: 2, Seed: 13, Workers: 1})
	done := waitDone(t, ts1, v.ID)
	nnz := getResult(t, ts1, v.ID).NNZ
	s1.Drain()
	ts1.Close()

	// Corrupt the persisted parts file: flip every nonzero to part 0 so
	// the recomputed volume disagrees with the recorded one.
	key := done.Key
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "p 2\n")
	for i := 0; i < nnz; i++ {
		fmt.Fprintln(&buf, 0)
	}
	if err := os.WriteFile(filepath.Join(dir, key+".parts"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, warns := New(cfg)
	defer s2.Drain()
	if len(warns) == 0 {
		t.Fatal("corrupt entry must surface a rehydration warning")
	}
	if s2.cache.Len() != 0 {
		t.Fatalf("corrupt entry rehydrated anyway (%d entries)", s2.cache.Len())
	}
}
