package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"mediumgrain/internal/gen"
	"mediumgrain/internal/sparse"
)

// slowMatrixMM lazily renders a ~50k-nonzero grid Laplacian as Matrix
// Market text: corpus instances are all small, so parking a runner for
// the cancel/dedup tests needs an uploaded matrix with real work in it.
var slowMatrixMM = sync.OnceValue(func() string {
	var buf bytes.Buffer
	if err := sparse.WriteMatrixMarket(&buf, gen.Laplacian2D(100, 100)); err != nil {
		panic(err)
	}
	return buf.String()
})

// slowSpec is a job heavy enough to still be running when a cancel or a
// duplicate submission lands (p=64 recursive bisection, refined).
func slowSpec(seed int64) JobSpec {
	return JobSpec{MatrixMM: slowMatrixMM(), P: 64, Method: "MG", Seed: seed, Refine: true, Workers: 1}
}

func deleteJob(t *testing.T, ts *httptest.Server, id string) (JobView, int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusConflict {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return v, resp.StatusCode
}

// TestCancelQueuedJob: with one runner parked on a slow job, a queued
// job is cancelable; it never runs, its state is "canceled", the
// canceled counter ticks, and its result endpoint answers 410.
func TestCancelQueuedJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, Runners: 1, QueueDepth: 16, CacheEntries: 16})
	running, code := postJob(t, ts, slowSpec(100))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	queued, code := postJob(t, ts, slowSpec(101))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}

	v, code := deleteJob(t, ts, queued.ID)
	if code != http.StatusOK || v.State != StateCanceled {
		t.Fatalf("cancel queued job: code=%d %+v", code, v)
	}
	// Idempotent: a second DELETE still answers 200 canceled.
	if v, code = deleteJob(t, ts, queued.ID); code != http.StatusOK || v.State != StateCanceled {
		t.Fatalf("repeat cancel: code=%d %+v", code, v)
	}
	if _, code = deleteJob(t, ts, "j-99999999"); code != http.StatusNotFound {
		t.Fatalf("unknown id: status %d, want 404", code)
	}

	resp, err := http.Get(ts.URL + "/jobs/" + queued.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("canceled job result: status %d, want 410", resp.StatusCode)
	}
	if st := s.Stats(); st.Canceled < 1 {
		t.Fatalf("stats missed the cancel: %+v", st)
	}

	// The parked job is unaffected and a finished job refuses DELETE.
	done := waitDone(t, ts, running.ID)
	if done.State != StateDone {
		t.Fatalf("running job ended %q: %s", done.State, done.Error)
	}
	if _, code := deleteJob(t, ts, running.ID); code != http.StatusConflict {
		t.Fatalf("cancel of finished job: status %d, want 409", code)
	}
}

// TestCancelRunningJobFreesRunner: DELETE on a running job cancels the
// computation's context; the job reports canceled well before the full
// computation could have finished, and the freed runner picks up new
// work.
func TestCancelRunningJobFreesRunner(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, Runners: 1, QueueDepth: 16, CacheEntries: 16})
	v, code := postJob(t, ts, slowSpec(200))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	// Wait for the job to actually start computing.
	deadline := time.Now().Add(30 * time.Second)
	for {
		job, ok := s.Job(v.ID)
		if !ok {
			t.Fatal("job vanished")
		}
		if st := s.jobs.state(job); st == StateRunning {
			break
		} else if st == StateDone {
			t.Skip("machine too fast: job finished before the cancel")
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(time.Millisecond)
	}

	canceledAt := time.Now()
	dv, code := deleteJob(t, ts, v.ID)
	if code != http.StatusOK || dv.State != StateCanceled {
		t.Fatalf("cancel running job: code=%d %+v", code, dv)
	}

	// The runner must come free promptly — a fast follow-up job
	// completes without waiting out the canceled computation.
	fast, code := postJob(t, ts, JobSpec{Corpus: "tridiag", P: 2, Seed: 1, Workers: 1})
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("follow-up submit status %d", code)
	}
	if done := waitDone(t, ts, fast.ID); done.State != StateDone {
		t.Fatalf("follow-up job ended %q: %s", done.State, done.Error)
	}
	if waited := time.Since(canceledAt); waited > 30*time.Second {
		t.Fatalf("runner not freed for %v after cancel", waited)
	}
	if st := s.Stats(); st.Canceled < 1 {
		t.Fatalf("stats missed the cancel: %+v", st)
	}
}

// TestSingleFlightDeduplication: identical specs submitted while the
// first is still queued or running share one computation; both jobs
// complete with the same result and /stats counts the dedup.
func TestSingleFlightDeduplication(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, Runners: 1, QueueDepth: 16, CacheEntries: 16})
	// Park the single runner so the duplicates stay queued together.
	park, code := postJob(t, ts, slowSpec(300))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	spec := JobSpec{Corpus: "lap2d-24", P: 4, Method: "MG", Seed: 301, Workers: 1}
	first, code := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("leader submit status %d", code)
	}
	second, code := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("duplicate submit status %d", code)
	}
	if second.Cached {
		t.Fatalf("duplicate wrongly served from cache: %+v", second)
	}

	d1 := waitDone(t, ts, first.ID)
	d2 := waitDone(t, ts, second.ID)
	if d1.State != StateDone || d2.State != StateDone {
		t.Fatalf("dedup jobs ended %q/%q", d1.State, d2.State)
	}
	r1 := getResult(t, ts, first.ID)
	r2 := getResult(t, ts, second.ID)
	if !slices.Equal(r1.Parts, r2.Parts) || r1.Key != r2.Key {
		t.Fatal("deduplicated jobs returned different results")
	}
	st := s.Stats()
	if st.Deduplicated < 1 {
		t.Fatalf("stats missed the deduplication: %+v", st)
	}
	// The follower attached instead of recomputing: exactly one cache
	// miss for the shared spec (plus one for the parked job).
	if st.Cache.Misses != 2 {
		t.Fatalf("cache misses = %d, want 2 (dedup must not count a miss)", st.Cache.Misses)
	}
	waitDone(t, ts, park.ID)
}

// TestCancelOneDedupJobKeepsComputation: canceling one of two attached
// jobs detaches only it; the other still completes with the result.
func TestCancelOneDedupJobKeepsComputation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Runners: 1, QueueDepth: 16, CacheEntries: 16})
	park, _ := postJob(t, ts, slowSpec(400))
	spec := JobSpec{Corpus: "lap2d-24", P: 4, Method: "MG", Seed: 401, Workers: 1}
	first, _ := postJob(t, ts, spec)
	second, _ := postJob(t, ts, spec)

	if v, code := deleteJob(t, ts, first.ID); code != http.StatusOK || v.State != StateCanceled {
		t.Fatalf("cancel attached job: code=%d %+v", code, v)
	}
	if done := waitDone(t, ts, second.ID); done.State != StateDone {
		t.Fatalf("surviving dedup job ended %q: %s", done.State, done.Error)
	}
	if len(getResult(t, ts, second.ID).Parts) == 0 {
		t.Fatal("surviving dedup job lost its parts")
	}
	waitDone(t, ts, park.ID)
}

// waitPersisted returns once the disk writes of every job already seen
// done have finished: finishFlight marks jobs done while holding
// persistMu and writes before releasing it, the barrier every export
// path waits on too.
func waitPersisted(s *Server) {
	s.persistMu.Lock()
	s.persistMu.Unlock()
}

// TestEvictionGarbageCollectsPersistedBundle: when the LRU evicts an
// entry, its distio bundle and meta JSON disappear from the data
// directory; the surviving entry's files remain.
func TestEvictionGarbageCollectsPersistedBundle(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.DataDir = dir
	cfg.CacheEntries = 1
	s, ts := newTestServer(t, cfg)

	v1, _ := postJob(t, ts, JobSpec{Corpus: "tridiag", P: 2, Seed: 51, Workers: 1})
	d1 := waitDone(t, ts, v1.ID)
	entryFiles := func(key string) []string {
		var present []string
		for _, suffix := range []string{".meta.json", ".mtx", ".parts", ".invec", ".outvec"} {
			if _, err := os.Stat(filepath.Join(dir, key+suffix)); err == nil {
				present = append(present, suffix)
			}
		}
		return present
	}
	waitPersisted(s)
	if got := entryFiles(d1.Key); len(got) != 5 {
		t.Fatalf("first entry persisted %v, want all 5 files", got)
	}

	// A second distinct spec evicts the first from the 1-entry cache —
	// and must garbage-collect its files.
	v2, _ := postJob(t, ts, JobSpec{Corpus: "tridiag", P: 2, Seed: 52, Workers: 1})
	d2 := waitDone(t, ts, v2.ID)
	waitPersisted(s)
	if got := entryFiles(d1.Key); len(got) != 0 {
		t.Fatalf("evicted entry left files behind: %v", got)
	}
	if got := entryFiles(d2.Key); len(got) != 5 {
		t.Fatalf("surviving entry has %v, want all 5 files", got)
	}
}
