package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"mediumgrain/internal/cluster"
)

// startClusterShard serves a shard on a real loopback listener (the
// ring addresses peers by host:port) and returns it with its node
// address.
func startClusterShard(t *testing.T, ring *cluster.Ring, ln net.Listener, self string, replicateAfter int64) *Server {
	t.Helper()
	s, warns := New(Config{
		Workers: 2, Runners: 2, QueueDepth: 16, CacheEntries: 32,
		DataDir: t.TempDir(),
		Cluster: &cluster.ShardConfig{Self: self, Ring: ring, ReplicateAfter: replicateAfter},
	})
	for _, w := range warns {
		t.Fatalf("shard %s: %v", self, w)
	}
	// Drain before TempDir's removal (cleanups run last-in first-out).
	t.Cleanup(s.Drain)
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	return s
}

func clusterListen(t *testing.T) (net.Listener, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln, ln.Addr().String()
}

// shardPost submits a spec directly to one shard's base URL.
func shardPost(t *testing.T, base string, spec JobSpec) (JobView, int) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
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

func shardWaitDone(t *testing.T, base, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/jobs/" + id)
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

func shardResult(t *testing.T, base, id string) ResultView {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/result")
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

// TestPeerFetchServesRemoteEntry: shard B misses a key shard A has
// already computed and persisted; B adopts A's entry over the peer
// path instead of recomputing, bit-identically, with provenance.
func TestPeerFetchServesRemoteEntry(t *testing.T) {
	lnA, addrA := clusterListen(t)
	lnB, addrB := clusterListen(t)
	ring, err := cluster.NewRing([]string{addrA, addrB}, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	srvA := startClusterShard(t, ring, lnA, addrA, 100)
	srvB := startClusterShard(t, ring, lnB, addrB, 100)
	baseA, baseB := cluster.NodeURL(addrA), cluster.NodeURL(addrB)

	spec := JobSpec{Corpus: "lap2d-24", P: 4, Method: "MG", Seed: 7, Workers: 2}
	vA, code := shardPost(t, baseA, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit to A: status %d", code)
	}
	if done := shardWaitDone(t, baseA, vA.ID); done.State != StateDone {
		t.Fatalf("A job: %+v", done)
	}
	resA := shardResult(t, baseA, vA.ID)

	// Same spec directly at B: a local miss that must peer-fetch.
	vB, code := shardPost(t, baseB, spec)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit to B: status %d", code)
	}
	if done := shardWaitDone(t, baseB, vB.ID); done.State != StateDone {
		t.Fatalf("B job: %+v", done)
	}
	resB := shardResult(t, baseB, vB.ID)
	if resB.Origin != "peer:"+addrA {
		t.Fatalf("B's result origin %q, want peer:%s", resB.Origin, addrA)
	}
	if resA.Key != resB.Key || !slices.Equal(resA.Parts, resB.Parts) {
		t.Fatal("peer-fetched result differs from the origin shard's")
	}
	stB := srvB.Stats()
	if stB.Cluster == nil || stB.Cluster.PeerFetchOK != 1 {
		t.Fatalf("B cluster stats: %+v", stB.Cluster)
	}

	// A repeat at B is now a local cache hit on a peer-origin entry.
	vB2, code := shardPost(t, baseB, spec)
	if code != http.StatusOK || !vB2.Cached {
		t.Fatalf("repeat at B: status %d cached %v", code, vB2.Cached)
	}
	if st := srvB.Stats(); st.Cluster.PeerServed < 1 {
		t.Fatalf("peer_served = %d, want >= 1", st.Cluster.PeerServed)
	}
	if st := srvA.Stats(); st.Cluster.PeerFetchOK != 0 || st.Cluster.ReplicatedIn != 0 {
		t.Fatalf("A should be untouched: %+v", st.Cluster)
	}
}

// TestPeerFetchRejectsCorruptTransfers: a peer serving garbage, a
// truncated stream, or a 500 must never poison the cache — every
// attempt counts peer_fetch_failed and the shard computes locally.
func TestPeerFetchRejectsCorruptTransfers(t *testing.T) {
	cases := []struct {
		name  string
		serve func(w http.ResponseWriter)
	}{
		{"garbage", func(w http.ResponseWriter) {
			w.Write([]byte("not a tar stream"))
		}},
		{"truncated tar", func(w http.ResponseWriter) {
			// A believable tar header, then nothing.
			var buf bytes.Buffer
			buf.WriteString("fake.mtx")
			buf.Write(make([]byte, 512-buf.Len()))
			w.Write(buf.Bytes()[:200])
		}},
		{"server error", func(w http.ResponseWriter) {
			w.WriteHeader(http.StatusInternalServerError)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lnShard, addrShard := clusterListen(t)

			// The "peer" is a fake shard that answers every cache fetch
			// with this case's breakage.
			mux := http.NewServeMux()
			mux.HandleFunc("GET /cache/{key}", func(w http.ResponseWriter, _ *http.Request) {
				tc.serve(w)
			})
			fake := httptest.NewServer(mux)
			defer fake.Close()
			addrFake := cluster.NormalizeNode(fake.URL)

			ring, err := cluster.NewRing([]string{addrShard, addrFake}, 32, 2)
			if err != nil {
				t.Fatal(err)
			}
			srv := startClusterShard(t, ring, lnShard, addrShard, 100)
			base := cluster.NodeURL(addrShard)

			spec := JobSpec{Corpus: "tridiag", P: 2, Method: "MG", Seed: 3, Workers: 1}
			v, code := shardPost(t, base, spec)
			if code != http.StatusAccepted {
				t.Fatalf("submit: status %d", code)
			}
			if done := shardWaitDone(t, base, v.ID); done.State != StateDone {
				t.Fatalf("job: %+v", done)
			}
			res := shardResult(t, base, v.ID)
			if res.Origin != "" {
				t.Fatalf("corrupt transfer adopted: origin %q", res.Origin)
			}
			// The local fallback computes the right answer.
			a, err := srv.lookupInstance("tridiag")
			if err != nil {
				t.Fatal(err)
			}
			if want := offlineParts(t, a, spec); !slices.Equal(want, res.Parts) {
				t.Fatal("fallback compute differs from offline library")
			}
			st := srv.Stats()
			if st.Cluster.PeerFetchFailed < 1 {
				t.Fatalf("peer_fetch_failed = %d, want >= 1", st.Cluster.PeerFetchFailed)
			}
			if st.Cluster.PeerFetchOK != 0 {
				t.Fatalf("peer_fetch_ok = %d, want 0", st.Cluster.PeerFetchOK)
			}
		})
	}
}

// TestCachePutValidatesKeyBinding: a structurally valid entry pushed
// under the wrong key is rejected — the receiver re-derives the cache
// key from the entry's own fields.
func TestCachePutValidatesKeyBinding(t *testing.T) {
	lnA, addrA := clusterListen(t)
	lnB, addrB := clusterListen(t)
	ring, err := cluster.NewRing([]string{addrA, addrB}, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	srvA := startClusterShard(t, ring, lnA, addrA, 100)
	srvB := startClusterShard(t, ring, lnB, addrB, 100)
	baseA := cluster.NodeURL(addrA)

	spec := JobSpec{Corpus: "band-5", P: 2, Seed: 5, Workers: 1}
	v, _ := shardPost(t, baseA, spec)
	done := shardWaitDone(t, baseA, v.ID)
	key := done.Key

	// Export A's genuine entry bytes.
	var tarBuf bytes.Buffer
	srvA.persistMu.Lock()
	err = cluster.WriteEntryTar(&tarBuf, srvA.cfg.DataDir, key)
	srvA.persistMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	// Pushing under a different key must 400 (the tar members are named
	// for the real key, and even a renamed bundle would fail the
	// key-derivation cross-check).
	wrong := "00000000000000000000000000000bad"
	req, _ := http.NewRequest(http.MethodPut, cluster.NodeURL(addrB)+"/cache/"+wrong, bytes.NewReader(tarBuf.Bytes()))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong-key PUT: status %d, want 400", resp.StatusCode)
	}
	if _, ok := srvB.cache.Get(wrong); ok {
		t.Fatal("wrong-key entry entered the cache")
	}

	// The same bytes under the right key adopt cleanly.
	req, _ = http.NewRequest(http.MethodPut, cluster.NodeURL(addrB)+"/cache/"+key, bytes.NewReader(tarBuf.Bytes()))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("right-key PUT: status %d, want 200", resp.StatusCode)
	}
	if _, ok := srvB.cache.Get(key); !ok {
		t.Fatal("adopted entry missing from the cache")
	}
	if st := srvB.Stats(); st.Cluster.ReplicatedIn != 1 {
		t.Fatalf("replicated_in = %d, want 1", st.Cluster.ReplicatedIn)
	}
}

// TestHotEntryReplication: an entry crossing the hit threshold on one
// shard shows up in its replica peers' caches without them ever
// computing or fetching it.
func TestHotEntryReplication(t *testing.T) {
	lnA, addrA := clusterListen(t)
	lnB, addrB := clusterListen(t)
	ring, err := cluster.NewRing([]string{addrA, addrB}, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	srvA := startClusterShard(t, ring, lnA, addrA, 1)
	srvB := startClusterShard(t, ring, lnB, addrB, 1)
	baseA := cluster.NodeURL(addrA)

	spec := JobSpec{Corpus: "lap2d-24", P: 2, Seed: 11, Workers: 2}
	v, _ := shardPost(t, baseA, spec)
	done := shardWaitDone(t, baseA, v.ID)
	if done.State != StateDone {
		t.Fatalf("job: %+v", done)
	}
	// First repeat hit crosses ReplicateAfter=1 and triggers the push.
	if v2, code := shardPost(t, baseA, spec); code != http.StatusOK || !v2.Cached {
		t.Fatalf("repeat: status %d cached %v", code, v2.Cached)
	}
	// The push runs in a background goroutine; wait for the entry to
	// land in B's cache AND for A to see the acknowledgment.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, cached := srvB.cache.Get(done.Key)
		if cached && srvA.Stats().Cluster.ReplicatedOut >= 1 {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("entry never replicated to B (cached=%v, replicated_out=%d)",
				cached, srvA.Stats().Cluster.ReplicatedOut)
		}
		time.Sleep(5 * time.Millisecond)
	}
	res, ok := srvB.cache.Get(done.Key)
	if !ok || res.Origin != "peer:"+addrA {
		t.Fatalf("replicated entry origin %q", res.Origin)
	}
	if st := srvA.Stats(); st.Cluster.ReplicatedOut != 1 {
		t.Fatalf("A replicated_out = %d, want 1", st.Cluster.ReplicatedOut)
	}
	if st := srvB.Stats(); st.Cluster.ReplicatedIn != 1 {
		t.Fatalf("B replicated_in = %d, want 1", st.Cluster.ReplicatedIn)
	}
	// Further hits on A must not push again (the latch), even long
	// after: counters stay where they are.
	for i := 0; i < 3; i++ {
		shardPost(t, baseA, spec)
	}
	time.Sleep(50 * time.Millisecond)
	if st := srvA.Stats(); st.Cluster.ReplicatedOut != 1 {
		t.Fatalf("replication re-fired: replicated_out = %d", st.Cluster.ReplicatedOut)
	}
}

// TestCacheEndpointsRejectMalformedKeys: the /cache/{key} segment is
// attacker-reachable and ServeMux hands it over percent-decoded, so an
// escaped "../" would otherwise walk out of the data directory. Both
// handlers must 400 anything that is not the exact 32-hex CacheKey
// shape before touching the filesystem.
func TestCacheEndpointsRejectMalformedKeys(t *testing.T) {
	ln, addr := clusterListen(t)
	ring, err := cluster.NewRing([]string{addr, "10.9.9.9:1"}, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	startClusterShard(t, ring, ln, addr, 100)
	base := cluster.NodeURL(addr)

	for _, tc := range []struct {
		name, rawKey string
	}{
		{"escaped traversal", "..%2F..%2Fescape"},
		{"doubly escaped traversal", "..%252F..%252Fescape"},
		{"non-hex", "zz23456789abcdef0123456789abcdef"},
		{"uppercase hex", "0123456789ABCDEF0123456789ABCDEF"},
		{"too short", "0123abcd"},
	} {
		for _, method := range []string{http.MethodGet, http.MethodPut} {
			req, err := http.NewRequest(method, base+"/cache/"+tc.rawKey, strings.NewReader("junk"))
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400", method, tc.name, resp.StatusCode)
			}
		}
	}

	// A well-formed but absent key is a plain 404: validation must not
	// over-reject real keys.
	resp, err := http.Get(base + "/cache/" + strings.Repeat("0f", 16))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("valid absent key: status %d, want 404", resp.StatusCode)
	}
}

// TestCacheEndpointsRequireSecret: with a cluster secret configured,
// unauthenticated or wrongly authenticated /cache requests are refused
// (nothing enters or leaves the cache), while shards sharing the secret
// still peer-fetch from each other transparently.
func TestCacheEndpointsRequireSecret(t *testing.T) {
	const secret = "smoke-test-secret"
	lnA, addrA := clusterListen(t)
	lnB, addrB := clusterListen(t)
	ring, err := cluster.NewRing([]string{addrA, addrB}, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	newShard := func(ln net.Listener, self string) *Server {
		s, warns := New(Config{
			Workers: 2, Runners: 2, QueueDepth: 16, CacheEntries: 32,
			DataDir: t.TempDir(),
			Cluster: &cluster.ShardConfig{Self: self, Ring: ring, ReplicateAfter: 100, Secret: secret},
		})
		for _, w := range warns {
			t.Fatalf("shard %s: %v", self, w)
		}
		hs := &http.Server{Handler: s.Handler()}
		go hs.Serve(ln)
		t.Cleanup(func() { hs.Close() })
		return s
	}
	newShard(lnA, addrA)
	srvB := newShard(lnB, addrB)
	baseA, baseB := cluster.NodeURL(addrA), cluster.NodeURL(addrB)

	spec := JobSpec{Corpus: "tridiag", P: 2, Method: "MG", Seed: 21, Workers: 1}
	v, _ := shardPost(t, baseA, spec)
	done := shardWaitDone(t, baseA, v.ID)
	if done.State != StateDone {
		t.Fatalf("job: %+v", done)
	}

	// GET: no header and a wrong header are both 401; the right secret
	// serves the entry.
	for _, tc := range []struct {
		header string
		want   int
	}{
		{"", http.StatusUnauthorized},
		{"wrong-secret", http.StatusUnauthorized},
		{secret, http.StatusOK},
	} {
		req, _ := http.NewRequest(http.MethodGet, baseA+"/cache/"+done.Key, nil)
		if tc.header != "" {
			req.Header.Set("X-Mediumgrain-Secret", tc.header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("GET with header %q: status %d, want %d", tc.header, resp.StatusCode, tc.want)
		}
	}

	// PUT without the secret is refused before the body is even parsed.
	req, _ := http.NewRequest(http.MethodPut, baseB+"/cache/"+done.Key, strings.NewReader("whatever"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated PUT: status %d, want 401", resp.StatusCode)
	}
	if _, ok := srvB.cache.Get(done.Key); ok {
		t.Fatal("unauthenticated PUT entered the cache")
	}

	// Shards sharing the secret still peer-fetch from each other.
	vB, _ := shardPost(t, baseB, spec)
	if doneB := shardWaitDone(t, baseB, vB.ID); doneB.State != StateDone {
		t.Fatalf("B job: %+v", doneB)
	}
	if res := shardResult(t, baseB, vB.ID); res.Origin != "peer:"+addrA {
		t.Fatalf("B's result origin %q, want peer:%s", res.Origin, addrA)
	}
}

// TestReadyzLifecycle: readiness is true after startup, drops the
// moment a drain begins, while liveness stays 200 throughout.
func TestReadyzLifecycle(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz before drain: %d", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz before drain: %d", code)
	}
	s.Drain()
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after drain: %d, want 503", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz after drain: %d, want 200 (liveness)", code)
	}
	if s.Ready() {
		t.Fatal("Ready() still true after Drain")
	}
}

// TestSingleNodeHasNoClusterSurface: without a cluster config the peer
// endpoints don't exist and /stats carries no cluster section — the
// single-node contract is unchanged.
func TestSingleNodeHasNoClusterSurface(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	if st := s.Stats(); st.Cluster != nil {
		t.Fatalf("single-node stats has a cluster section: %+v", st.Cluster)
	}
	for _, path := range []string{"/cache/somekey", "/stats/ring"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d on a single node, want 404", path, resp.StatusCode)
		}
	}
}

// TestShardNotInRingFallsBackToSingleNode: a misconfigured shard (self
// not in the peer list) warns and runs single-node instead of serving
// with a ring it cannot locate itself on.
func TestShardNotInRingFallsBackToSingleNode(t *testing.T) {
	ring, err := cluster.NewRing([]string{"10.9.9.1:1", "10.9.9.2:1"}, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, warns := New(Config{
		Workers: 1, Runners: 1,
		Cluster: &cluster.ShardConfig{Self: "10.9.9.3:1", Ring: ring},
	})
	t.Cleanup(s.Drain)
	if len(warns) == 0 {
		t.Fatal("no warning for a shard outside its ring")
	}
	found := false
	for _, w := range warns {
		if fmt.Sprint(w) != "" && s.clu == nil {
			found = true
		}
	}
	if !found || s.clu != nil {
		t.Fatalf("misconfigured shard still clustered: clu=%v warns=%v", s.clu, warns)
	}
}
