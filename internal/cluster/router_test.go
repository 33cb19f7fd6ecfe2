package cluster_test

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"mediumgrain/internal/cluster"
	"mediumgrain/internal/corpus"
	"mediumgrain/internal/faults"
	"mediumgrain/internal/service"
)

// startShard serves a clustered mgserve on a real listener (the ring
// addresses shards by host:port, so httptest's opaque URLs don't do).
func startShard(t *testing.T, ln net.Listener, self string, ring *cluster.Ring) *service.Server {
	t.Helper()
	return startShardWrapped(t, ln, self, ring, nil)
}

// startShardWrapped is startShard with an optional handler wrapper —
// how tests put a fault-injection middleware in front of a shard.
func startShardWrapped(t *testing.T, ln net.Listener, self string, ring *cluster.Ring, wrap func(http.Handler) http.Handler) *service.Server {
	t.Helper()
	srv, warns := service.New(service.Config{
		Runners:      2,
		CacheEntries: 32,
		DataDir:      t.TempDir(),
		Cluster:      &cluster.ShardConfig{Self: self, Ring: ring, ReplicateAfter: 2},
	})
	for _, w := range warns {
		t.Fatalf("shard %s: %v", self, w)
	}
	// Cleanups run last-in first-out: the drain finishes every in-flight
	// job (and its persist into DataDir) before TempDir is removed.
	t.Cleanup(srv.Drain)
	h := http.Handler(srv.Handler())
	if wrap != nil {
		h = wrap(h)
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	return srv
}

// listen grabs a loopback port and returns the listener with its
// address in ring-node form.
func listen(t *testing.T) (net.Listener, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln, ln.Addr().String()
}

func corpusHashes() map[string]string {
	hashes := make(map[string]string)
	for _, in := range corpus.Build(corpus.DefaultOptions()) {
		hashes[in.Name] = cluster.MatrixHash(in.A)
	}
	return hashes
}

// postJob submits a spec through the router and returns the decoded
// response body and status.
func postJob(t *testing.T, base string, spec map[string]any) (map[string]any, int) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return v, resp.StatusCode
}

// pollDone polls a router job id until the job reaches a terminal state.
func pollDone(t *testing.T, base, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v map[string]any
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch v["state"] {
		case "done", "failed", "canceled":
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
	return nil
}

func TestRouterEndToEnd(t *testing.T) {
	ln1, addr1 := listen(t)
	ln2, addr2 := listen(t)
	ring, err := cluster.NewRing([]string{addr1, addr2}, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	startShard(t, ln1, addr1, ring)
	startShard(t, ln2, addr2, ring)

	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Shards: []string{addr1, addr2}, VNodes: 32, CorpusHashes: corpusHashes(),
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Readiness aggregates both shards.
	resp, err := http.Get(front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200", resp.StatusCode)
	}

	spec := map[string]any{"corpus": "lap2d-24", "p": 2, "seed": 1, "workers": 1}
	v, status := postJob(t, front.URL, spec)
	if status != http.StatusAccepted && status != http.StatusOK {
		t.Fatalf("submit status %d: %v", status, v)
	}
	id, _ := v["id"].(string)
	p1, p2 := "s"+cluster.ShardID(addr1)+"-", "s"+cluster.ShardID(addr2)+"-"
	if !strings.HasPrefix(id, p1) && !strings.HasPrefix(id, p2) {
		t.Fatalf("router id %q lacks a stable shard prefix (%s or %s)", id, p1, p2)
	}
	final := pollDone(t, front.URL, id)
	if final["state"] != "done" {
		t.Fatalf("job finished %v", final)
	}

	// The full result streams through the router.
	resp, err = http.Get(front.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var rv struct {
		Parts []int  `json:"parts"`
		Key   string `json:"key"`
	}
	err = json.NewDecoder(resp.Body).Decode(&rv)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d err %v", resp.StatusCode, err)
	}
	if len(rv.Parts) == 0 || rv.Key == "" {
		t.Fatalf("result missing parts/key: %+v", rv)
	}

	// An identical resubmission routes to the same shard and hits its
	// cache: 200 with cached=true.
	v2, status2 := postJob(t, front.URL, spec)
	if status2 != http.StatusOK || v2["cached"] != true {
		t.Fatalf("resubmit: status %d cached %v", status2, v2["cached"])
	}
	if id2, _ := v2["id"].(string); strings.Split(id2, "-")[0] != strings.Split(id, "-")[0] {
		t.Fatalf("resubmit routed to %q, first went to %q", id2, id)
	}

	// Merged stats: totals are consistent with the per-shard rows.
	ms := rt.Stats()
	if ms.Status != "ok" || ms.Totals.ShardsReachable != 2 {
		t.Fatalf("merged stats unhealthy: %+v", ms.Totals)
	}
	var sumCompleted, sumHits int64
	for _, row := range ms.Shards {
		var sv struct {
			Completed int64 `json:"completed"`
			Cache     struct {
				Hits int64 `json:"hits"`
			} `json:"cache"`
		}
		if err := json.Unmarshal(row.Stats, &sv); err != nil {
			t.Fatal(err)
		}
		sumCompleted += sv.Completed
		sumHits += sv.Cache.Hits
	}
	if ms.Totals.Completed != sumCompleted || ms.Totals.CacheHits != sumHits {
		t.Fatalf("totals (completed=%d hits=%d) disagree with row sums (%d, %d)",
			ms.Totals.Completed, ms.Totals.CacheHits, sumCompleted, sumHits)
	}
	if ms.Totals.Completed < 1 || ms.Totals.CacheHits < 1 {
		t.Fatalf("expected at least one completion and one hit: %+v", ms.Totals)
	}
	if ms.Router.Forwarded < 2 {
		t.Fatalf("router forwarded %d, want >= 2", ms.Router.Forwarded)
	}

	// /stats/ring exposes the ownership view.
	resp, err = http.Get(front.URL + "/stats/ring")
	if err != nil {
		t.Fatal(err)
	}
	var view cluster.View
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil || view.Nodes != 2 {
		t.Fatalf("/stats/ring: err %v view %+v", err, view)
	}
}

func TestRouterFailsOverDeadOwner(t *testing.T) {
	lnLive, addrLive := listen(t)
	lnDead, addrDead := listen(t)
	lnDead.Close() // the dead shard: connection refused

	ring, err := cluster.NewRing([]string{addrLive, addrDead}, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	startShard(t, lnLive, addrLive, ring)

	hashes := corpusHashes()
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Shards: []string{addrLive, addrDead}, VNodes: 32, CorpusHashes: hashes,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Find a spec owned by the dead shard so the submission must fail
	// over; with K=2 over 2 nodes the live shard is always the fallback.
	var spec map[string]any
	for seed := 1; seed < 100; seed++ {
		s := service.JobSpec{Corpus: "tridiag", P: 2, Seed: int64(seed), Workers: 1}
		key, err := cluster.RouteKey(s, func(n string) (string, bool) { h, ok := hashes[n]; return h, ok })
		if err != nil {
			t.Fatal(err)
		}
		if rt.Ring().Owner(key) == cluster.NormalizeNode(addrDead) {
			spec = map[string]any{"corpus": "tridiag", "p": 2, "seed": seed, "workers": 1}
			break
		}
	}
	if spec == nil {
		t.Fatal("no spec hashed to the dead shard in 100 seeds")
	}

	v, status := postJob(t, front.URL, spec)
	if status != http.StatusAccepted && status != http.StatusOK {
		t.Fatalf("failover submit: status %d %v", status, v)
	}
	final := pollDone(t, front.URL, v["id"].(string))
	if final["state"] != "done" {
		t.Fatalf("failover job finished %v", final)
	}
	ms := rt.Stats()
	if ms.Router.Failovers < 1 {
		t.Fatalf("failovers = %d, want >= 1", ms.Router.Failovers)
	}
	if ms.Status != "degraded" {
		t.Fatalf("status %q with a dead shard, want degraded", ms.Status)
	}
}

// TestRouterDegradedServing: with replicas=1 a dead owner has no
// failover replica — the router must degrade to a live non-owner shard
// instead of erroring, count it, and report the cluster degraded.
func TestRouterDegradedServing(t *testing.T) {
	ln1, addr1 := listen(t)
	ln2, addr2 := listen(t)
	lnDead, addrDead := listen(t)
	lnDead.Close()

	ring, err := cluster.NewRing([]string{addr1, addr2, addrDead}, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	startShard(t, ln1, addr1, ring)
	startShard(t, ln2, addr2, ring)

	hashes := corpusHashes()
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Shards: []string{addr1, addr2, addrDead}, VNodes: 32, Replicas: 1,
		CorpusHashes: hashes,
		Breaker:      cluster.BreakerConfig{Threshold: 1},
		RetryBackoff: cluster.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// A spec whose single replica is the dead shard.
	var spec map[string]any
	for seed := 1; seed < 200; seed++ {
		s := service.JobSpec{Corpus: "tridiag", P: 2, Seed: int64(seed), Workers: 1}
		key, err := cluster.RouteKey(s, func(n string) (string, bool) { h, ok := hashes[n]; return h, ok })
		if err != nil {
			t.Fatal(err)
		}
		if rt.Ring().Owner(key) == cluster.NormalizeNode(addrDead) {
			spec = map[string]any{"corpus": "tridiag", "p": 2, "seed": seed, "workers": 1}
			break
		}
	}
	if spec == nil {
		t.Fatal("no spec hashed to the dead shard in 200 seeds")
	}

	v, status := postJob(t, front.URL, spec)
	if status != http.StatusAccepted && status != http.StatusOK {
		t.Fatalf("degraded submit: status %d %v", status, v)
	}
	final := pollDone(t, front.URL, v["id"].(string))
	if final["state"] != "done" {
		t.Fatalf("degraded job finished %v", final)
	}
	ms := rt.Stats()
	if ms.Router.DegradedServed < 1 {
		t.Fatalf("degraded_served = %d, want >= 1", ms.Router.DegradedServed)
	}
	if ms.Status != "degraded" {
		t.Fatalf("status %q, want degraded", ms.Status)
	}
	if ms.Router.BreakerOpen < 1 || ms.Router.BreakerOpened < 1 {
		t.Fatalf("breaker open=%d opened=%d, want the dead shard's circuit open",
			ms.Router.BreakerOpen, ms.Router.BreakerOpened)
	}
	// The live shard that computed the non-owned key counted it.
	if ms.Totals.DegradedJobs < 1 {
		t.Fatalf("shard degraded_jobs total = %d, want >= 1", ms.Totals.DegradedJobs)
	}
}

// TestRouterRetryAfterReflectsBreaker: a 503 refused because every
// circuit is open must carry the breaker's actual probe horizon, not
// the hard-coded 1s guess.
func TestRouterRetryAfterReflectsBreaker(t *testing.T) {
	ln1, addr1 := listen(t)
	ln2, addr2 := listen(t)
	ln1.Close()
	ln2.Close()

	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Shards: []string{addr1, addr2}, VNodes: 32, CorpusHashes: corpusHashes(),
		Breaker: cluster.BreakerConfig{
			Threshold: 1,
			Backoff:   cluster.Backoff{Base: 10 * time.Second, Max: 10 * time.Second},
		},
		RetryBackoff: cluster.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	body, _ := json.Marshal(map[string]any{"corpus": "lap2d-24", "p": 2, "workers": 1})
	resp, err := http.Post(front.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-dead submit: status %d, want 503", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer", resp.Header.Get("Retry-After"))
	}
	// The breaker's 10s interval (0.75-1.25 jitter band) rounds up to
	// 8..13 — far from the old fixed 1.
	if ra < 2 || ra > 13 {
		t.Fatalf("Retry-After = %d, want the breaker's horizon (2..13)", ra)
	}
}

// TestRouterRidesOutInjected503s: a deterministic burst of injected
// 503s on the submission path must be absorbed by failover + backoff'd
// retry passes, invisibly to the client.
func TestRouterRidesOutInjected503s(t *testing.T) {
	ln1, addr1 := listen(t)
	ln2, addr2 := listen(t)
	ring, err := cluster.NewRing([]string{addr1, addr2}, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	// First three /jobs requests cluster-wide answer an injected 503:
	// the first submit burns a full failover pass (2 shards) plus one
	// retry-pass attempt, and succeeds on the 4th.
	inj, err := faults.New("all:err503:count=3:path=/jobs", 1)
	if err != nil {
		t.Fatal(err)
	}
	startShardWrapped(t, ln1, addr1, ring, func(h http.Handler) http.Handler { return inj.Middleware("all", h) })
	startShardWrapped(t, ln2, addr2, ring, func(h http.Handler) http.Handler { return inj.Middleware("all", h) })

	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Shards: []string{addr1, addr2}, VNodes: 32, CorpusHashes: corpusHashes(),
		RetryBackoff: cluster.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	v, status := postJob(t, front.URL, map[string]any{"corpus": "lap2d-24", "p": 2, "seed": 3, "workers": 1})
	if status != http.StatusAccepted && status != http.StatusOK {
		t.Fatalf("submit under 503 burst: status %d %v", status, v)
	}
	final := pollDone(t, front.URL, v["id"].(string))
	if final["state"] != "done" {
		t.Fatalf("job finished %v", final)
	}
	ms := rt.Stats()
	if ms.Router.Failovers < 1 || ms.Router.Retries < 1 {
		t.Fatalf("failovers=%d retries=%d, want both >= 1", ms.Router.Failovers, ms.Router.Retries)
	}
	if ms.Router.ProxyErrors != 0 {
		t.Fatalf("proxy_errors = %d, want 0 (the burst must be absorbed)", ms.Router.ProxyErrors)
	}
}

func TestRouterRejectsBadSpecWithoutProxy(t *testing.T) {
	// No shards are running at all: a spec the router itself can key as
	// invalid must 400 locally, never 503.
	_, addr := listen(t)
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Shards: []string{addr}, CorpusHashes: corpusHashes(),
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	for _, spec := range []map[string]any{
		{"corpus": "no-such-matrix", "p": 2},
		{"corpus": "lap2d-24", "p": 0},
		{"corpus": "lap2d-24", "p": 2, "tries": 1, "budget_ms": 50},
	} {
		v, status := postJob(t, front.URL, spec)
		if status != http.StatusBadRequest {
			t.Fatalf("spec %v: status %d (%v), want 400", spec, status, v)
		}
	}

	// Unknown job-id shapes 404 without a proxy hop, and so does a
	// well-formed id whose shard is not a current ring member — an id
	// minted before a membership change must fail detectably instead of
	// routing to whichever shard inherited the old list position.
	for _, bad := range []string{
		"not-a-router-id",
		"s" + cluster.ShardID("10.9.9.9:1") + "-j-00000001", // shard left the ring
		"sdead-j-00000001", // shard id too short
	} {
		resp, err := http.Get(front.URL + "/jobs/" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("bad id %q: status %d, want 404", bad, resp.StatusCode)
		}
	}
}

// TestShardIDStability pins the property the job-id prefix rests on:
// a shard's id depends only on its own normalized address, never on
// the rest of the shard list.
func TestShardIDStability(t *testing.T) {
	if cluster.ShardID("10.0.0.1:8081") != cluster.ShardID("http://10.0.0.1:8081/") {
		t.Fatal("ShardID is not normalization-invariant")
	}
	if len(cluster.ShardID("a:1")) != 8 {
		t.Fatalf("ShardID length = %d, want 8", len(cluster.ShardID("a:1")))
	}
	if cluster.ShardID("a:1") == cluster.ShardID("a:2") {
		t.Fatal("distinct nodes share a shard id")
	}
}

// TestRouteKeyMatchesShardKeys pins the property the cluster rests on:
// the router's spec keying equals the shard's resolve keying for a grid
// of specs, including defaults, eps pointers, engines, and search specs.
func TestRouteKeyMatchesShardKeys(t *testing.T) {
	ln, addr := listen(t)
	ring, err := cluster.NewRing([]string{addr}, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	startShard(t, ln, addr, ring)
	hashes := corpusHashes()
	lookup := func(n string) (string, bool) { h, ok := hashes[n]; return h, ok }

	eps := 0.0
	specs := []service.JobSpec{
		{Corpus: "lap2d-24", P: 2},
		{Corpus: "lap2d-24", P: 2, Workers: 1},
		{Corpus: "lap2d-24", P: 4, Seed: 9, Method: "FG", Workers: 2},
		{Corpus: "tridiag", P: 3, Refine: true, ExactFM: true},
		{Corpus: "tridiag", P: 3, Eps: &eps, Workers: 1},
		{Corpus: "band-5", P: 2, Tries: 4, Workers: 1},
		{Corpus: "band-5", P: 2, Tries: 4, BudgetMS: 100, Workers: 1},
		{Corpus: "lap2d-24", P: 2, Tries: 1}, // normalizes like tries 0
	}
	for _, spec := range specs {
		routed, err := cluster.RouteKey(spec, lookup)
		if err != nil {
			t.Fatalf("RouteKey(%+v): %v", spec, err)
		}
		// The shard's own keying, observed through its public API.
		body, _ := json.Marshal(spec)
		resp, err := http.Post(cluster.NodeURL(addr)+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var v service.JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.Key != routed {
			t.Fatalf("spec %+v: router key %s != shard key %s", spec, routed, v.Key)
		}
	}
}
