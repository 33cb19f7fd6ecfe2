package cluster_test

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mediumgrain/internal/cluster"
	"mediumgrain/internal/cluster/membership"
	"mediumgrain/internal/service"
)

// startMemberShard serves a shard with a live membership set. Hot-entry
// replication is effectively off (huge threshold) so cache placement in
// these tests moves only through join rehydration and leave handoff.
func startMemberShard(t *testing.T, ln net.Listener, self, secret string, set *membership.Set) *service.Server {
	t.Helper()
	srv, warns := service.New(service.Config{
		Runners:      2,
		CacheEntries: 64,
		DataDir:      t.TempDir(),
		Cluster:      &cluster.ShardConfig{Self: self, Ring: set.Ring(), ReplicateAfter: 1 << 40, Secret: secret},
		Members:      set,
	})
	for _, w := range warns {
		t.Fatalf("shard %s: %v", self, w)
	}
	// Drain before TempDir's removal (cleanups run last-in first-out).
	t.Cleanup(srv.Drain)
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	return srv
}

func memberSetAt(t *testing.T, members []string, counter uint64) *membership.Set {
	t.Helper()
	set, err := membership.NewAt(members, 32, 2, counter)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestRouterRetriesWhenBehindShards: a router whose member view is one
// epoch behind the shards gets the structured 409, adopts the shards'
// higher-counter view, and retries the same submission transparently —
// the client sees one successful request, never the conflict.
func TestRouterRetriesWhenBehindShards(t *testing.T) {
	const secret = "pw"
	lnA, addrA := listen(t)
	lnB, addrB := listen(t)
	lnC, addrC := listen(t)
	all := []string{addrA, addrB, addrC}
	startMemberShard(t, lnA, addrA, secret, memberSetAt(t, all, 2))
	startMemberShard(t, lnB, addrB, secret, memberSetAt(t, all, 2))
	startMemberShard(t, lnC, addrC, secret, memberSetAt(t, all, 2))

	// The router boots with yesterday's two-shard list at counter 1.
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Members:      memberSetAt(t, []string{addrA, addrB}, 1),
		CorpusHashes: corpusHashes(),
		Secret:       secret,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	v, status := postJob(t, front.URL, map[string]any{"corpus": "tridiag", "p": 2, "seed": 3, "workers": 1})
	if status != http.StatusAccepted && status != http.StatusOK {
		t.Fatalf("submit through stale router: status %d %v", status, v)
	}
	if final := pollDone(t, front.URL, v["id"].(string)); final["state"] != "done" {
		t.Fatalf("job finished %v", final)
	}

	ms := rt.Stats()
	if ms.Router.EpochRetries < 1 {
		t.Fatalf("epoch retries = %d, want >= 1 (the stale submit must bounce once)", ms.Router.EpochRetries)
	}
	if ring := rt.Ring(); len(ring.Nodes()) != 3 || ring.Counter() != 2 {
		t.Fatalf("router did not adopt the shards' view: %d members at epoch %s", len(ring.Nodes()), ring.Epoch())
	}
}

// TestRouterSyncsStaleShard: the inverse skew — one shard missed a
// membership change the router already holds. Its 409 carries a lower
// counter, so the router pushes its own view down as a sync
// announcement, the shard adopts, and the retry lands.
func TestRouterSyncsStaleShard(t *testing.T) {
	const secret = "pw"
	lnB, addrB := listen(t)
	lnC, addrC := listen(t)
	// B still thinks it is alone; C and the router know better.
	srvB := startMemberShard(t, lnB, addrB, secret, memberSetAt(t, []string{addrB}, 1))
	startMemberShard(t, lnC, addrC, secret, memberSetAt(t, []string{addrB, addrC}, 2))

	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Members:      memberSetAt(t, []string{addrB, addrC}, 2),
		CorpusHashes: corpusHashes(),
		Secret:       secret,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Find a spec the router's ring routes to the stale shard B.
	hashes := corpusHashes()
	var spec map[string]any
	for seed := 1; seed < 200; seed++ {
		s := service.JobSpec{Corpus: "tridiag", P: 2, Seed: int64(seed), Workers: 1}
		key, err := cluster.RouteKey(s, func(n string) (string, bool) { h, ok := hashes[n]; return h, ok })
		if err != nil {
			t.Fatal(err)
		}
		if rt.Ring().Owner(key) == cluster.NormalizeNode(addrB) {
			spec = map[string]any{"corpus": "tridiag", "p": 2, "seed": seed, "workers": 1}
			break
		}
	}
	if spec == nil {
		t.Fatal("no spec routed to the stale shard in 200 seeds")
	}

	v, status := postJob(t, front.URL, spec)
	if status != http.StatusAccepted && status != http.StatusOK {
		t.Fatalf("submit to stale shard: status %d %v", status, v)
	}
	if final := pollDone(t, front.URL, v["id"].(string)); final["state"] != "done" {
		t.Fatalf("job finished %v", final)
	}

	// The sync announcement brought B up to the router's epoch.
	if st := srvB.Members().State(); st.Counter != 2 || len(st.Members) != 2 {
		t.Fatalf("stale shard holds %d members at counter %d, want 2 at 2", len(st.Members), st.Counter)
	}
	if ms := rt.Stats(); ms.Router.EpochRetries < 1 {
		t.Fatalf("epoch retries = %d, want >= 1", ms.Router.EpochRetries)
	}
}

// TestJoinRehydratesAndLeaveHandsOff is the membership lifecycle end to
// end: a third shard joins a live two-shard cluster, bulk-rehydrates
// exactly the keys that remapped to it, serves them from cache, then
// leaves in a planned way, handing every owned entry off. Epochs move
// 1 → 2 (join) → 3 (leave) on every member.
func TestJoinRehydratesAndLeaveHandsOff(t *testing.T) {
	const secret = "pw"
	lnA, addrA := listen(t)
	lnB, addrB := listen(t)
	lnC, addrC := listen(t) // the future joiner's address, known up front

	srvA := startMemberShard(t, lnA, addrA, secret, memberSetAt(t, []string{addrA, addrB}, 1))
	srvB := startMemberShard(t, lnB, addrB, secret, memberSetAt(t, []string{addrA, addrB}, 1))

	hashes := corpusHashes()
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Members:      memberSetAt(t, []string{addrA, addrB}, 1),
		CorpusHashes: hashes,
		Secret:       secret,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Pick specs by where their keys land on the POST-join ring: three
	// that will remap to C (the rehydration set) and two that stay put
	// (controls the joiner must not pull).
	postJoin, err := cluster.NewRingAt([]string{addrA, addrB, addrC}, 32, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	lookup := func(n string) (string, bool) { h, ok := hashes[n]; return h, ok }
	var remapped, controls []map[string]any
	for seed := 1; seed < 500 && (len(remapped) < 3 || len(controls) < 2); seed++ {
		s := service.JobSpec{Corpus: "tridiag", P: 2, Seed: int64(seed), Workers: 1}
		key, err := cluster.RouteKey(s, lookup)
		if err != nil {
			t.Fatal(err)
		}
		spec := map[string]any{"corpus": "tridiag", "p": 2, "seed": seed, "workers": 1}
		if postJoin.Owner(key) == cluster.NormalizeNode(addrC) {
			if len(remapped) < 3 {
				remapped = append(remapped, spec)
			}
		} else if len(controls) < 2 {
			controls = append(controls, spec)
		}
	}
	if len(remapped) < 3 || len(controls) < 2 {
		t.Fatalf("seed scan found %d remapped / %d control specs", len(remapped), len(controls))
	}
	for _, spec := range append(append([]map[string]any{}, remapped...), controls...) {
		v, status := postJob(t, front.URL, spec)
		if status != http.StatusAccepted && status != http.StatusOK {
			t.Fatalf("warm-up submit: status %d %v", status, v)
		}
		if final := pollDone(t, front.URL, v["id"].(string)); final["state"] != "done" {
			t.Fatalf("warm-up job finished %v", final)
		}
	}

	// --- Join, exactly as cmd/mgserve -join does it: fetch the seed's
	// membership, add ourselves at the next counter, start serving,
	// announce, rehydrate from the pre-join ring.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	client := &http.Client{Timeout: 10 * time.Second}
	seed, err := cluster.FetchMembers(ctx, client, addrA, secret)
	if err != nil {
		t.Fatal(err)
	}
	if seed.Counter != 1 || len(seed.Members) != 2 {
		t.Fatalf("seed state %+v, want 2 members at counter 1", seed)
	}
	joined, err := membership.Mutate(seed.Members, "join", addrC)
	if err != nil {
		t.Fatal(err)
	}
	setC := memberSetAt(t, joined, seed.Counter+1)
	beforeRing, err := cluster.NewRingAt(seed.Members, 32, 2, seed.Counter)
	if err != nil {
		t.Fatal(err)
	}
	srvC := startMemberShard(t, lnC, addrC, secret, setC)
	if _, err := membership.Broadcast(ctx, client, setC, secret, "join", addrC, addrC); err != nil {
		t.Fatalf("join broadcast: %v", err)
	}
	for _, peer := range []*service.Server{srvA, srvB} {
		if st := peer.Members().State(); st.Counter != 2 || len(st.Members) != 3 {
			t.Fatalf("peer holds %d members at counter %d after join, want 3 at 2", len(st.Members), st.Counter)
		}
	}

	rep := srvC.Rehydrate(ctx, beforeRing, 0)
	if rep.Pulled != 3 || rep.Failed != 0 {
		t.Fatalf("rehydrate report %+v, want exactly the 3 remapped keys pulled", rep)
	}
	if st := srvC.Stats(); st.Cluster.RehydrateDone != 3 || st.Cluster.RehydratePending != 0 {
		t.Fatalf("joiner stats done=%d pending=%d, want 3 and 0", st.Cluster.RehydrateDone, st.Cluster.RehydratePending)
	}

	// The router's poll path adopts the new epoch; a resubmission of a
	// remapped spec now routes to C and hits its rehydrated cache.
	if err := rt.RefreshMembership(ctx); err != nil {
		t.Fatal(err)
	}
	if ring := rt.Ring(); len(ring.Nodes()) != 3 || ring.Counter() != 2 {
		t.Fatalf("router poll did not adopt join: %d members at %s", len(ring.Nodes()), ring.Epoch())
	}
	v, status := postJob(t, front.URL, remapped[0])
	if status != http.StatusOK || v["cached"] != true {
		t.Fatalf("remapped resubmit: status %d cached %v, want 200 from the joiner's rehydrated cache", status, v["cached"])
	}
	if id, _ := v["id"].(string); !strings.HasPrefix(id, "s"+cluster.ShardID(addrC)+"-") {
		t.Fatalf("remapped resubmit served by %q, want the joiner %s", id, cluster.ShardID(addrC))
	}

	// The joiner's /stats/ring reflects the adopted membership.
	resp, err := http.Get(cluster.NodeURL(addrC) + "/stats/ring")
	if err != nil {
		t.Fatal(err)
	}
	var view cluster.View
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil || view.Nodes != 3 || view.Counter != 2 || len(view.Members) != 3 {
		t.Fatalf("/stats/ring on joiner: err %v view %+v", err, view)
	}

	// --- Planned leave, exactly as -leave-on-term does it: announce
	// (epoch 3), drain, hand every owned entry to its new owner.
	lst, err := srvC.AnnounceLeave(ctx)
	if err != nil {
		t.Fatalf("leave announce: %v", err)
	}
	if lst.Counter != 3 || len(lst.Members) != 2 {
		t.Fatalf("post-leave state %+v, want 2 members at counter 3", lst)
	}
	srvC.Drain()
	done, failed := srvC.Handoff(ctx)
	if done != 3 || failed != 0 {
		t.Fatalf("handoff pushed %d / failed %d, want all 3 rehydrated entries pushed", done, failed)
	}
	if st := srvC.Stats(); st.Cluster.HandoffDone != 3 {
		t.Fatalf("handoff_done = %d, want 3", st.Cluster.HandoffDone)
	}
	for _, peer := range []*service.Server{srvA, srvB} {
		if st := peer.Members().State(); st.Counter != 3 || len(st.Members) != 2 {
			t.Fatalf("peer holds %d members at counter %d after leave, want 2 at 3", len(st.Members), st.Counter)
		}
	}

	// After one more poll the router routes the remapped keys back to
	// the survivors, who hold the handed-off entries.
	if err := rt.RefreshMembership(ctx); err != nil {
		t.Fatal(err)
	}
	v, status = postJob(t, front.URL, remapped[1])
	if status != http.StatusOK || v["cached"] != true {
		t.Fatalf("post-leave resubmit: status %d cached %v, want a cache hit on the new owner", status, v["cached"])
	}
}
