// Command mgserve is the partitioning-as-a-service daemon: it accepts
// partition jobs over HTTP/JSON (named corpus instances or Matrix
// Market uploads), runs them on a bounded scheduler whose jobs share
// one machine-wide worker pool, serves repeat submissions from a
// content-addressed result cache, and persists completed results as
// distio bundles so a restart rehydrates the cache.
//
//	mgserve -addr :8080 -data /var/lib/mgserve
//
// Beyond single-node operation, mgserve runs in two cluster roles (see
// internal/cluster):
//
//	mgserve -router -shards a:8081,b:8082        # stateless router
//	mgserve -addr a:8081 -node a:8081 \
//	        -peers a:8081,b:8082 -data /var/a    # one shard
//
// A router owns no jobs and no cache: it hashes each submission to its
// content-addressed cache key, proxies it to the shard owning that key
// on the consistent-hash ring, and fails over along the key's replica
// set when a shard is unreachable or draining. Shards fetch missing
// cache entries from ring peers before computing and replicate hot
// entries to the key's other replicas. Routers and shards must agree on
// the shard list (-shards here, -peers there) and corpus options.
//
// Membership is live (see internal/cluster/membership): a new shard
// joins a running cluster with -join <seed> — it fetches the seed's
// member list, announces itself at the next ring epoch, and
// bulk-rehydrates exactly the cache keys that remapped to it — and a
// shard started with -leave-on-term turns SIGTERM into a planned leave:
// announce departure, drain, hand every owned cache entry to its new
// owner, linger, exit. Routers follow membership by polling
// (-membership-poll) and by the epoch handshake on every routed
// submission.
//
// SIGINT/SIGTERM begin a graceful drain: readiness drops (so routers
// stop routing here), new submissions are refused with 503, every
// accepted job runs to completion (and persists), then — after -linger,
// which gives clients time for trailing status polls — the HTTP
// listener shuts down. See internal/service for the API contract.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mediumgrain/internal/cluster"
	"mediumgrain/internal/cluster/membership"
	"mediumgrain/internal/corpus"
	"mediumgrain/internal/faults"
	"mediumgrain/internal/service"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("mgserve: ")

	var (
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", 0, "shared engine pool size (0 = GOMAXPROCS)")
		runners     = flag.Int("runners", 2, "concurrently executing jobs")
		queue       = flag.Int("queue", 64, "admission queue depth")
		cacheSize   = flag.Int("cache", 256, "result cache entries")
		dataDir     = flag.String("data", "", "persist results here and rehydrate on start (empty = off)")
		corpusScale = flag.Int("corpus-scale", 0, "corpus scale (0 = default)")
		corpusSeed  = flag.Int64("corpus-seed", 0, "corpus seed (0 = default)")
		timeout     = flag.Duration("timeout", 5*time.Minute, "default per-job timeout")

		// Cluster roles.
		router    = flag.Bool("router", false, "run as a stateless cluster router over -shards instead of a compute shard")
		shards    = flag.String("shards", "", "router mode: comma-separated shard addresses (host:port)")
		node      = flag.String("node", "", "shard mode: this shard's own address as listed in -peers")
		peers     = flag.String("peers", "", "shard mode: comma-separated addresses of every shard, this one included")
		replicas  = flag.Int("replicas", 2, "replica-set size K: the owner plus K-1 ring successors hold each hot key")
		vnodes    = flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per shard on the hash ring")
		replAfter = flag.Int64("replicate-after", cluster.DefaultReplicateAfter, "shard mode: cache hits after which an entry replicates to its other ring replicas")
		secret    = flag.String("cluster-secret", os.Getenv("MGSERVE_CLUSTER_SECRET"), "shared secret authenticating the peer /cache and /cluster endpoints; must match on every shard and router (default $MGSERVE_CLUSTER_SECRET; empty leaves them open — trusted networks only)")
		linger    = flag.Duration("linger", 0, "after draining, keep serving reads this long before closing the listener (lets clients finish trailing status polls)")

		// Resilience and chaos testing.
		faultSpec  = flag.String("fault-spec", os.Getenv("MGSERVE_FAULTS"), "deterministic fault-injection schedule, e.g. \"shard1:err503:rate=0.2;all:delay=100ms:count=5\" (default $MGSERVE_FAULTS; empty = off)")
		faultSeed  = flag.Int64("fault-seed", 1, "seed for the fault schedule's probabilistic rules (same seed + same traffic = same faults)")
		faultLabel = flag.String("fault-label", "", "label this process matches against fault-spec targets (default: the -node address for shards, \"router\" for routers)")
		brkThresh  = flag.Int("breaker-threshold", 0, "consecutive peer failures before a circuit opens (0 = default)")
		brkBase    = flag.Duration("breaker-base", 0, "base open interval for a tripped circuit, doubling per trip (0 = default)")
		brkMax     = flag.Duration("breaker-max", 0, "cap on the open interval (0 = default)")
		hedge      = flag.Duration("hedge-delay", 0, "router mode: duplicate a status/result read still unanswered after this long (0 = default, negative = off)")

		// Live membership.
		join           = flag.String("join", "", "shard mode: join a running cluster by fetching membership from this seed shard (host:port) instead of listing every peer in -peers")
		leaveOnTerm    = flag.Bool("leave-on-term", false, "shard mode: turn SIGTERM into a planned leave — announce departure, drain, hand every owned cache entry to its new owner, then exit")
		rehydratePause = flag.Duration("rehydrate-pause", 25*time.Millisecond, "shard mode: pause between bulk-rehydration entry pulls after a join (rate-limits the load on donors)")
		membershipPoll = flag.Duration("membership-poll", 15*time.Second, "router mode: interval for polling shards for membership changes (0 = rely on the per-request epoch handshake only)")
	)
	flag.Parse()

	inj, err := faults.New(*faultSpec, *faultSeed)
	if err != nil {
		log.Fatalf("-fault-spec: %v", err)
	}
	if inj != nil {
		log.Printf("fault injection ON (seed=%d): %s", *faultSeed, inj)
	}
	breaker := cluster.BreakerConfig{
		Threshold: *brkThresh,
		Backoff:   cluster.Backoff{Base: *brkBase, Max: *brkMax},
	}

	if *router {
		runRouter(*addr, *shards, *vnodes, *replicas, *corpusScale, *corpusSeed, *secret, *membershipPoll,
			inj, breaker, *hedge)
		return
	}

	var (
		clu        *cluster.ShardConfig
		members    *membership.Set
		beforeRing *cluster.Ring // pre-join ring: rehydration sources
		announce   bool          // broadcast our join once the listener is up
	)
	if *peers != "" || *node != "" || *join != "" {
		var err error
		members, beforeRing, announce, err = buildMembership(*join, *node, *peers, *vnodes, *replicas, *secret)
		if err != nil {
			log.Fatalf("%v", err)
		}
		ring := members.Ring()
		if !ring.Contains(*node) {
			log.Fatalf("-node %q is not in the member set %v", *node, ring.Nodes())
		}
		clu = &cluster.ShardConfig{Self: *node, Ring: ring, ReplicateAfter: *replAfter, Secret: *secret, Breaker: breaker}
		if inj != nil {
			// Outbound peer traffic (fetch, replicate, handoff) passes
			// through the same fault schedule as inbound requests.
			clu.Client = &http.Client{Timeout: 30 * time.Second, Transport: inj.RoundTripper(nil)}
		}
		if *secret == "" {
			log.Printf("warning: no -cluster-secret; peer /cache and /cluster endpoints accept pushes from anyone who can reach them")
		}
		log.Printf("shard %s of %d-node ring %v (epoch=%s, replicas=%d, vnodes=%d)",
			cluster.NormalizeNode(*node), len(ring.Nodes()), ring.Nodes(), ring.Epoch(), ring.ReplicaCount(), ring.VNodes())
	}

	srv, warns := service.New(service.Config{
		Workers:        *workers,
		Runners:        *runners,
		QueueDepth:     *queue,
		CacheEntries:   *cacheSize,
		DataDir:        *dataDir,
		DefaultTimeout: *timeout,
		CorpusScale:    *corpusScale,
		CorpusSeed:     *corpusSeed,
		Cluster:        clu,
		Members:        members,
	})
	for _, w := range warns {
		log.Printf("startup: %v", w)
	}
	st := srv.Stats()
	log.Printf("listening on %s (workers=%d runners=%d queue=%d cache=%d/%d rehydrated)",
		*addr, st.Workers, st.Runners, st.QueueCap, st.Cache.Entries, st.Cache.Capacity)

	handler := srv.Handler()
	if inj != nil {
		label := *faultLabel
		if label == "" && *node != "" {
			label = cluster.NormalizeNode(*node)
		}
		if label == "" {
			label = "self"
		}
		handler = inj.Middleware(label, handler)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	// Joining a live cluster: announce ourselves (peers adopt the new
	// epoch; routers learn it by poll or by the first 409) and then
	// bulk-rehydrate the keys that remapped to us, in the background so
	// serving starts immediately. A rejoin (announce=false) skips the
	// broadcast but still rehydrates whatever it missed while away.
	bgCtx, bgCancel := context.WithCancel(context.Background())
	defer bgCancel()
	if beforeRing != nil {
		go func() {
			if announce {
				actx, cancel := context.WithTimeout(bgCtx, 30*time.Second)
				jst, err := membership.Broadcast(actx, &http.Client{Timeout: 30 * time.Second}, members, *secret, "join", *node, *node)
				cancel()
				if err != nil {
					log.Printf("join: broadcast failed (peers converge via 409): %v", err)
				} else {
					log.Printf("join: announced; cluster at epoch %s with %d members", jst.Epoch, len(jst.Members))
				}
			}
			rep := srv.Rehydrate(bgCtx, beforeRing, *rehydratePause)
			log.Printf("rehydrate: scanned %d peer keys, wanted %d, pulled %d, failed %d",
				rep.Scanned, rep.Wanted, rep.Pulled, rep.Failed)
		}()
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-errCh:
		log.Fatalf("listener: %v", err)
	case sig := <-sigCh:
		log.Printf("%s: draining (refusing new jobs, finishing accepted work)", sig)
	}
	bgCancel() // stop any in-flight rehydration before draining

	// A planned leave announces first — while we are still ready — so
	// routers remap the key space before the drain refuses anything.
	if *leaveOnTerm && clu != nil {
		lctx, lcancel := context.WithTimeout(context.Background(), 30*time.Second)
		lst, err := srv.AnnounceLeave(lctx)
		lcancel()
		if err != nil {
			log.Printf("leave: announcement failed (draining and exiting anyway): %v", err)
		} else {
			log.Printf("leave: announced; cluster now at epoch %s with %d members", lst.Epoch, len(lst.Members))
		}
	}

	srv.Drain()
	st = srv.Stats()
	log.Printf("drained: %d completed, %d failed, cache %d entries (%d hits / %d misses)",
		st.Completed, st.Failed, st.Cache.Entries, st.Cache.Hits, st.Cache.Misses)

	// With the persisted set final (nothing runs past Drain), hand every
	// owned entry to its new owner so the cluster keeps its warm cache.
	if *leaveOnTerm && clu != nil {
		hctx, hcancel := context.WithTimeout(context.Background(), 2*time.Minute)
		done, failed := srv.Handoff(hctx)
		hcancel()
		log.Printf("handoff: pushed %d entries to their new owners, %d failed", done, failed)
	}

	// The listener stays up through the linger window so clients whose
	// jobs just finished can still poll status and fetch results; only
	// new submissions are refused (503 → router failover).
	if *linger > 0 {
		log.Printf("lingering %s for trailing reads", *linger)
		time.Sleep(*linger)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("shutdown: %v", err)
	}
}

// buildMembership constructs the shard's member set. With a -join seed
// it bootstraps from the live cluster: fetch the seed's membership, add
// ourselves at the next counter, and remember the pre-join ring so
// rehydration knows which nodes hold the keys that just remapped to us.
// A rejoin (the cluster still lists us, e.g. a crash before any leave)
// adopts the seed's view unchanged and skips the announcement — the
// epoch must not move when ownership doesn't. Without -join the set
// starts from the static -peers list at counter 1, exactly the
// pre-membership boot, but mutable from here on.
func buildMembership(join, node, peers string, vnodes, replicas int, secret string) (set *membership.Set, beforeRing *cluster.Ring, announce bool, err error) {
	if join == "" {
		set, err = membership.New(splitList(peers), vnodes, replicas)
		if err != nil {
			return nil, nil, false, fmt.Errorf("peer ring: %w", err)
		}
		return set, nil, false, nil
	}
	if node == "" {
		return nil, nil, false, fmt.Errorf("-join requires -node (this shard's own address)")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	seed, err := cluster.FetchMembers(ctx, &http.Client{Timeout: 30 * time.Second}, join, secret)
	if err != nil {
		return nil, nil, false, fmt.Errorf("join: fetching membership from seed %s: %w", join, err)
	}
	joined, err := membership.Mutate(seed.Members, "join", node)
	if err != nil {
		// Rejoin: adopt the cluster's view as-is. Rehydration sources are
		// the other members — we may have missed entries while away.
		log.Printf("join: %v; rejoining at epoch %s", err, seed.Epoch)
		set, err = membership.NewAt(seed.Members, vnodes, replicas, seed.Counter)
		if err != nil {
			return nil, nil, false, fmt.Errorf("join: %w", err)
		}
		if old, merr := membership.Mutate(seed.Members, "leave", node); merr == nil {
			beforeRing, _ = cluster.NewRingAt(old, vnodes, replicas, seed.Counter)
		}
		return set, beforeRing, false, nil
	}
	set, err = membership.NewAt(joined, vnodes, replicas, seed.Counter+1)
	if err != nil {
		return nil, nil, false, fmt.Errorf("join: %w", err)
	}
	beforeRing, err = cluster.NewRingAt(seed.Members, vnodes, replicas, seed.Counter)
	if err != nil {
		return nil, nil, false, fmt.Errorf("join: seed ring: %w", err)
	}
	return set, beforeRing, true, nil
}

// runRouter serves the stateless router role: no jobs, no cache, no
// drain protocol — SIGTERM just closes the listener (in-flight proxied
// requests finish via Shutdown's grace period). The router follows
// cluster membership two ways: a poll loop every -membership-poll, and
// the epoch handshake on every routed submission (a disagreeing shard
// answers a structured 409 the router resolves by refreshing and
// retrying).
func runRouter(addr, shards string, vnodes, replicas, corpusScale int, corpusSeed int64, secret string, poll time.Duration,
	inj *faults.Injector, breaker cluster.BreakerConfig, hedge time.Duration) {
	nodes := splitList(shards)
	if len(nodes) == 0 {
		log.Fatalf("-router needs -shards host:port,host:port,...")
	}
	// The router keys named-corpus submissions without materializing
	// matrices per request: it builds the same corpus the shards run
	// with, once, and keeps only the name → matrix-hash table.
	opts := corpus.DefaultOptions()
	if corpusScale > 0 {
		opts.Scale = corpusScale
	}
	if corpusSeed != 0 {
		opts.Seed = corpusSeed
	}
	hashes := make(map[string]string)
	for _, in := range corpus.Build(opts) {
		hashes[in.Name] = cluster.MatrixHash(in.A)
	}
	set, err := membership.New(nodes, vnodes, replicas)
	if err != nil {
		log.Fatalf("router ring: %v", err)
	}
	cfg := cluster.RouterConfig{
		Members:      set,
		VNodes:       vnodes,
		Replicas:     replicas,
		CorpusHashes: hashes,
		Secret:       secret,
		Breaker:      breaker,
		RetryBackoff: breaker.Backoff,
		HedgeDelay:   hedge,
	}
	if inj != nil {
		cfg.WrapTransport = inj.RoundTripper
	}
	rt, err := cluster.NewRouter(cfg)
	if err != nil {
		log.Fatalf("router: %v", err)
	}
	ring := rt.Ring()
	log.Printf("router on %s over %d shards %v (epoch=%s, replicas=%d, vnodes=%d)",
		addr, len(ring.Nodes()), ring.Nodes(), ring.Epoch(), ring.ReplicaCount(), ring.VNodes())

	if poll > 0 {
		go func() {
			t := time.NewTicker(poll)
			defer t.Stop()
			for range t.C {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				if err := rt.RefreshMembership(ctx); err != nil {
					log.Printf("membership poll: %v", err)
				}
				cancel()
			}
		}()
	}

	httpSrv := &http.Server{Addr: addr, Handler: rt.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		log.Fatalf("listener: %v", err)
	case sig := <-sigCh:
		log.Printf("%s: shutting down router", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("shutdown: %v", err)
	}
}

// splitList parses a comma-separated address list, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
