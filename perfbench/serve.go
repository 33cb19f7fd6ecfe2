package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	mg "mediumgrain"
	"mediumgrain/internal/cluster"
	"mediumgrain/internal/corpus"
	"mediumgrain/internal/service"
	"mediumgrain/internal/sparse"
)

// serve-zipf's fixed load shape. README.md records the same values.
const (
	// serveRate is the offered load in requests/s: a quarter of the
	// capacity of about 600 requests/s measured when the benchmark was
	// introduced. At half the capacity a busy neighbour on the machine
	// doubled the p99; README.md records both measurements. Fixed, so
	// both commits of a comparison see the same schedule.
	serveRate = 150.0
	// serveMaxLag bounds the p99 of how late the load generator sends
	// behind the schedule. A pass that lags more did not offer the fixed
	// load, so its run is invalid and ends without a result. Busy
	// neighbours on a shared machine push the lag to about 45 ms at
	// 150 requests/s; an overloaded program pushes it far beyond (888 ms
	// at 750 requests/s).
	serveMaxLag = 200 * time.Millisecond
	// servePoll is the client's poll interval while a job runs.
	servePoll = 5 * time.Millisecond
	// serveColdEvery: exactly one request in each block of this many is
	// cold (a never-seen seed); the rest are Zipf-distributed hot specs.
	serveColdEvery = 10
	// serveUploadEvery: every this-many-th cold request uploads its matrix
	// as Matrix Market text instead of naming the corpus instance.
	serveUploadEvery = 4
	// serveTheta is the Zipf skew over the hot specs.
	serveTheta = 0.9
	// serveHotSeeds is the number of partition seeds per (instance, p) in
	// the hot set: 30 instances × 3 part counts × 2 seeds = 180 hot specs.
	serveHotSeeds = 2
	// serveCorpusScale is the scale of the corpus the shards serve.
	serveCorpusScale = 1
	// serveShards shards, each with one engine worker and one runner.
	serveShards = 2
	// serveCacheEntries is each shard's result-cache capacity; setup fills
	// it, so cold results evict entries from the first cold request on.
	// Besides the hot set and its replicas (180 entries a shard) it holds
	// 230 filler entries, about the cold results a 30 s pass sends a shard
	// (225), so the untraced pass evicts filler and no hot entry.
	serveCacheEntries = 410
	// serveTimeout is a request's completion deadline from its
	// scheduled send; a later result counts as a failure.
	serveTimeout = 10 * time.Second
	// serveSenders bounds the requests in flight; a send finding none free
	// waits and shows as load-generator lag.
	serveSenders = 64
	// Seed ranges keep hot, filler, and cold specs disjoint.
	fillerSeedBase = 1 << 40
	coldSeedBase   = 2 << 40
)

// servePs are the part counts of serve-zipf's specs. Larger counts on
// these small matrices can exceed the balance bound at this commit (see
// README.md), and the workload must not fail.
var servePs = []int{2, 4, 8}

// serveSpec is one distinct job the load sends.
type serveSpec struct {
	name   string // corpus instance
	p      int
	seed   int64
	upload bool
	hot    bool
}

// arrival is one scheduled request: its send time from the start of the
// pass, the spec it sends, and how long it waits before its first poll.
type arrival struct {
	at   time.Duration
	spec int
	// phase is a seeded share of servePoll. With every request polling at
	// the same offset from its submit, a miss's latency moves in whole poll
	// steps and the median over misses jumps a step when the compute times
	// shift a little; a random phase makes it move smoothly.
	phase time.Duration
}

// servePlan is a precomputed pass: the spec table (hot specs first) and
// the arrival schedule.
type servePlan struct {
	specs    []serveSpec
	arrivals []arrival
	hot      int // specs[:hot] are the hot set
}

// hotSpecs is the hot set: every corpus instance at every p of servePs
// with serveHotSeeds seeds, shuffled into a popularity order.
func hotSpecs(names []string, rng *rand.Rand) []serveSpec {
	seeds := make([]int64, serveHotSeeds)
	for i := range seeds {
		seeds[i] = 1 + rng.Int63n(1<<31)
	}
	var specs []serveSpec
	for _, n := range names {
		for _, p := range servePs {
			for _, s := range seeds {
				specs = append(specs, serveSpec{name: n, p: p, seed: s, hot: true})
			}
		}
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// newServePlan builds pass number `pass` of a run: n Poisson arrivals at
// `rate` requests/s. In every block of serveColdEvery arrivals, one
// seeded position is cold; the others pick a hot spec by Zipf rank. Cold
// specs cycle through all (instance, p) pairs in a seeded order with a
// never-seen seed each, so a pass of a whole number of cycles visits
// every pair equally often. Equal arguments give an identical plan.
func newServePlan(seed int64, pass int, hot []serveSpec, names []string, rate float64, n int) *servePlan {
	rng := rand.New(rand.NewSource(seed*7919 + int64(pass)))
	plan := &servePlan{specs: slices.Clone(hot), hot: len(hot)}
	var pairs []serveSpec
	for _, name := range names {
		for _, p := range servePs {
			pairs = append(pairs, serveSpec{name: name, p: p})
		}
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	cdf := zipfCDF(len(hot), serveTheta)
	var at time.Duration
	cold, coldPos := 0, 0
	for i := 0; i < n; i++ {
		if i%serveColdEvery == 0 {
			coldPos = i + rng.Intn(serveColdEvery)
		}
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		spec := sort.SearchFloat64s(cdf, rng.Float64())
		if i == coldPos {
			s := pairs[cold%len(pairs)]
			s.seed = coldSeedBase + int64(pass)<<32 + int64(cold)
			s.upload = cold%serveUploadEvery == 0
			plan.specs = append(plan.specs, s)
			spec = len(plan.specs) - 1
			cold++
		}
		phase := 1 + time.Duration(rng.Int63n(int64(servePoll)))
		plan.arrivals = append(plan.arrivals, arrival{at: at, spec: min(spec, len(plan.specs)-1), phase: phase})
	}
	return plan
}

// zipfCDF is the cumulative distribution of rank popularity
// P(i) ∝ 1/(i+1)^theta over n ranks.
func zipfCDF(n int, theta float64) []float64 {
	cdf := make([]float64, n)
	var acc float64
	for i := range cdf {
		acc += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = acc
	}
	for i := range cdf {
		cdf[i] /= acc
	}
	cdf[n-1] = 1
	return cdf
}

// serveArrivals is the number of arrivals of one pass: the offered rate
// times the pass length, rounded to whole cold cycles (one cold request
// per serveColdEvery, cycling through every (instance, p) pair) so that
// every pass visits each pair equally often.
func serveArrivals(rate float64, seconds time.Duration, pairs int) int {
	cycle := serveColdEvery * pairs
	return cycle * max(1, int(math.Round(rate*seconds.Seconds()/float64(cycle))))
}

// serveCluster is the system under test: shards and a router on
// loopback listeners inside the benchmark process.
type serveCluster struct {
	shards    []*service.Server
	nodes     []string // shard host:port, as ring members
	routerURL string
	ring      *cluster.Ring
	servers   []*http.Server
	served    sync.WaitGroup
	dir       string
}

func startCluster(cfg config, corpusSeed int64, hashes map[string]string) (c *serveCluster, err error) {
	c = &serveCluster{}
	if c.dir, err = os.MkdirTemp(cfg.scratch, "serve-*"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			c.stop()
		}
	}()
	lns := make([]net.Listener, serveShards+1)
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			for _, ln := range lns[:i] {
				ln.Close()
			}
			return nil, err
		}
	}
	for _, ln := range lns[:serveShards] {
		c.nodes = append(c.nodes, ln.Addr().String())
	}
	if c.ring, err = cluster.NewRing(c.nodes, cluster.DefaultVNodes, serveShards); err != nil {
		return nil, err
	}
	handlers := make([]http.Handler, 0, len(lns))
	for i, node := range c.nodes {
		srv, warns := service.New(service.Config{
			Workers:      1,
			Runners:      1,
			CacheEntries: serveCacheEntries,
			DataDir:      filepath.Join(c.dir, fmt.Sprintf("shard%d", i)),
			CorpusScale:  serveCorpusScale,
			CorpusSeed:   corpusSeed,
			Cluster:      &cluster.ShardConfig{Self: node, Ring: c.ring},
		})
		if len(warns) > 0 {
			return nil, fmt.Errorf("shard %s: %v", node, errors.Join(warns...))
		}
		c.shards = append(c.shards, srv)
		handlers = append(handlers, srv.Handler())
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{Shards: c.nodes, Replicas: serveShards, CorpusHashes: hashes})
	if err != nil {
		return nil, err
	}
	handlers = append(handlers, rt.Handler())
	c.routerURL = "http://" + lns[serveShards].Addr().String()
	for i, ln := range lns {
		hs := &http.Server{Handler: handlers[i]}
		c.servers = append(c.servers, hs)
		c.served.Add(1)
		go func() {
			defer c.served.Done()
			_ = hs.Serve(ln) // returns http.ErrServerClosed on stop
		}()
	}
	return c, nil
}

// stop drains the shards, closes every listener, waits for the serving
// goroutines, and removes the persisted cache.
func (c *serveCluster) stop() {
	for _, s := range c.shards {
		s.Drain()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, hs := range c.servers {
		if err := hs.Shutdown(ctx); err != nil {
			hs.Close()
		}
	}
	c.served.Wait()
	os.RemoveAll(c.dir)
}

// firstResult is the first result a spec was answered with.
type firstResult struct {
	parts  []int
	hash   uint64
	volume int64
	matrix string // matrix_hash of the result
}

// reqSample is one request of the load.
type reqSample struct {
	ok, hit                         bool
	lat, lag                        time.Duration
	queueMS, runMS, totalMS, wallMS float64
}

// serveClient sends the load and keeps the first result of every spec.
type serveClient struct {
	http   *http.Client
	plan   *servePlan
	mtx    map[string]string // Matrix Market text of uploaded instances
	out    *outcome
	mu     sync.Mutex
	first  map[serveSpec]*firstResult
	failMu sync.Mutex
}

func (c *serveClient) job(s serveSpec) service.JobSpec {
	js := service.JobSpec{P: s.p, Method: "MG", Seed: s.seed, Workers: 1}
	if s.upload {
		js.MatrixMM = c.mtx[s.name]
	} else {
		js.Corpus = s.name
	}
	return js
}

func (c *serveClient) fail(format string, args ...any) {
	c.failMu.Lock()
	c.out.fail(format, args...)
	c.failMu.Unlock()
}

// getJSON decodes a GET of url into v and returns the status code.
func (c *serveClient) getJSON(ctx context.Context, url string, v any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}

// do runs one request against base: submit, poll first after phase and
// then every servePoll until the job is done, fetch the result. It never
// retries.
func (c *serveClient) do(ctx context.Context, base string, s serveSpec, phase time.Duration, rec *recorder, root int) (service.JobView, *service.ResultView, error) {
	var v service.JobView
	body, err := json.Marshal(c.job(s))
	if err != nil {
		return v, nil, err
	}
	id := rec.begin("http.submit", root, 0)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return v, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		rec.end(id)
		return v, nil, err
	}
	err = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	rec.end(id)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return v, nil, fmt.Errorf("submit: status %d", resp.StatusCode)
	}
	if err != nil {
		return v, nil, fmt.Errorf("submit: %w", err)
	}
	for wait := phase; v.State != service.StateDone; wait = servePoll {
		if v.State == service.StateFailed || v.State == service.StateCanceled {
			return v, nil, fmt.Errorf("job %s %s: %s", v.ID, v.State, v.Error)
		}
		select {
		case <-ctx.Done():
			return v, nil, ctx.Err()
		case <-time.After(wait):
		}
		id := rec.begin("http.poll", root, 0)
		_, err := c.getJSON(ctx, base+"/jobs/"+v.ID, &v)
		rec.end(id)
		if err != nil {
			return v, nil, err
		}
	}
	var rv service.ResultView
	id = rec.begin("http.result", root, 0)
	_, err = c.getJSON(ctx, base+"/jobs/"+v.ID+"/result", &rv)
	rec.end(id)
	if err != nil {
		return v, nil, err
	}
	return v, &rv, nil
}

// keep records the first result of a spec and checks every later result
// of the same spec against it.
func (c *serveClient) keep(s serveSpec, rv *service.ResultView) error {
	h := partsHash(rv.Parts)
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.first[s]
	if !ok {
		c.first[s] = &firstResult{parts: rv.Parts, hash: h, volume: rv.Volume, matrix: rv.Hash}
		return nil
	}
	if f.hash != h || f.volume != rv.Volume || f.matrix != rv.Hash {
		return fmt.Errorf("result differs from an earlier result of the same spec")
	}
	return nil
}

// request sends arrival i of the plan, timed from its due time.
func (c *serveClient) request(i int, due time.Time, base string, rec *recorder) reqSample {
	a := c.plan.arrivals[i]
	s := c.plan.specs[a.spec]
	smp := reqSample{lag: time.Since(due)}
	ctx, cancel := context.WithDeadline(context.Background(), due.Add(serveTimeout))
	defer cancel()
	root := rec.begin("loadgen.request", 0, int64(i+1))
	v, rv, err := c.do(ctx, base, s, a.phase, rec, root)
	rec.end(root)
	smp.lat = time.Since(due)
	if err == nil {
		err = c.keep(s, rv)
	}
	if err != nil {
		c.fail("request %d (%s p=%d seed=%d upload=%v): %v", i, s.name, s.p, s.seed, s.upload, err)
		return smp
	}
	smp.ok = true
	smp.hit = v.Cached
	smp.queueMS, smp.runMS, smp.totalMS, smp.wallMS = v.QueueMS, v.RunMS, v.TotalMS, rv.WallMS
	return smp
}

// runPass sends the plan's arrivals open loop: a dispatcher hands each
// arrival to a free sender at its scheduled time, whatever the state of
// earlier requests. A pass whose sends lag the schedule by more than
// serveMaxLag at p99 is an error.
func (c *serveClient) runPass(base string, rec *recorder) ([]reqSample, error) {
	samples := make([]reqSample, len(c.plan.arrivals))
	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < serveSenders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				samples[i] = c.request(i, start.Add(c.plan.arrivals[i].at), base, rec)
			}
		}()
	}
	for i, a := range c.plan.arrivals {
		if d := time.Until(start.Add(a.at)); d > 0 {
			time.Sleep(d)
		}
		work <- i
	}
	close(work)
	wg.Wait()
	c.out.attempted += len(samples)
	if lag := percentile(lags(samples), 99); lag > ms(serveMaxLag) {
		return nil, fmt.Errorf("load generator lagged the schedule by %.1f ms at p99 (limit %s): the run is invalid", lag, serveMaxLag)
	}
	return samples, nil
}

// warm sends every spec once, closed loop on nproc connections, and
// keeps the results.
func (c *serveClient) warm(base string, specs []serveSpec, workers int) error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	next := make(chan serveSpec)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range next {
				ctx, cancel := context.WithTimeout(context.Background(), 4*serveTimeout)
				_, rv, err := c.do(ctx, base, s, servePoll, nil, 0)
				cancel()
				if err == nil && s.hot {
					err = c.keep(s, rv)
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("%s p=%d seed=%d: %w", s.name, s.p, s.seed, err)
					}
					mu.Unlock()
				}
			}
		}()
	}
	for _, s := range specs {
		next <- s
	}
	close(next)
	wg.Wait()
	return firstErr
}

// shardTotals sums the counters of every shard's /stats; entries holds
// each shard's cache size.
type shardTotals struct {
	hits, misses, rejected, dedup, peerFetch, replicatedOut int64
	entries                                                 []int
}

func (c *serveClient) shardTotals(cl *serveCluster) (shardTotals, error) {
	var t shardTotals
	for _, node := range cl.nodes {
		var st service.StatsView
		if _, err := c.getJSON(context.Background(), "http://"+node+"/stats", &st); err != nil {
			return t, err
		}
		t.hits += st.Cache.Hits
		t.misses += st.Cache.Misses
		t.rejected += st.Rejected
		t.dedup += st.Deduplicated
		t.entries = append(t.entries, st.Cache.Entries)
		if st.Cluster != nil {
			t.peerFetch += st.Cluster.PeerFetchOK + st.Cluster.PeerFetchFailed
			t.replicatedOut += st.Cluster.ReplicatedOut
		}
	}
	return t, nil
}

func (c *serveClient) routerHedges(cl *serveCluster) (int64, error) {
	var st cluster.MergedStats
	_, err := c.getJSON(context.Background(), cl.routerURL+"/stats", &st)
	return st.Router.Hedges, err
}

// awaitReplication waits until every hot entry has been pushed to its
// other replica, or until the shards' replication count stops moving,
// and returns the count.
func (c *serveClient) awaitReplication(cl *serveCluster, want int64) (int64, error) {
	last, since := int64(-1), time.Now()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		t, err := c.shardTotals(cl)
		if err != nil {
			return 0, err
		}
		if t.replicatedOut >= want || (t.replicatedOut == last && time.Since(since) > 2*time.Second) {
			return t.replicatedOut, nil
		}
		if t.replicatedOut != last {
			last, since = t.replicatedOut, time.Now()
		}
	}
	return 0, fmt.Errorf("hot entries still replicating after 30s")
}

// fillCache tops every shard's cache up to its capacity with cheap
// filler entries, each sent to the shard that owns it, so no shard
// evicts during the fill.
func (c *serveClient) fillCache(st *serveSetup, workers int) error {
	next := int64(0)
	for round := 0; round < 8; round++ {
		t, err := c.shardTotals(st.cl)
		if err != nil {
			return err
		}
		need := make(map[string]int)
		total := 0
		for i, node := range st.cl.nodes {
			need[node] = serveCacheEntries - t.entries[i]
			total += max(0, need[node])
		}
		if total == 0 {
			return nil
		}
		var specs []serveSpec
		for len(specs) < total {
			s := serveSpec{name: st.names[next%int64(len(st.names))], p: servePs[0], seed: fillerSeedBase + next}
			next++
			key, err := cluster.RouteKey(c.job(s), st.corpusHash)
			if err != nil {
				return err
			}
			if owner := st.cl.ring.Owner(key); need[owner] > 0 {
				need[owner]--
				specs = append(specs, s)
			}
		}
		if err := c.warm(st.cl.routerURL, specs, workers); err != nil {
			return err
		}
	}
	return fmt.Errorf("caches not full after 8 filler rounds")
}

// serveSetup is the state a serve-zipf run builds before measuring.
type serveSetup struct {
	instances []corpus.Instance
	names     []string
	hashes    map[string]string
	// canon holds each instance as the service sees an upload of it:
	// canonicalized, which reorders the nonzeros of some instances.
	canon map[string]*sparse.Matrix
	hot   []serveSpec
	mtx   map[string]string
	cl    *serveCluster
}

func (st *serveSetup) corpusHash(name string) (string, bool) {
	h, ok := st.hashes[name]
	return h, ok
}

// setUp generates the inputs and starts the cluster.
func setUp(cfg config) (*serveSetup, error) {
	st := &serveSetup{hashes: map[string]string{}, mtx: map[string]string{}, canon: map[string]*sparse.Matrix{}}
	st.instances = corpus.Build(corpus.Options{Scale: serveCorpusScale, Seed: cfg.seed})
	for _, in := range st.instances {
		st.names = append(st.names, in.Name)
		st.hashes[in.Name] = cluster.MatrixHash(in.A)
		var buf strings.Builder
		if err := sparse.WriteMatrixMarket(&buf, in.A); err != nil {
			return nil, err
		}
		st.mtx[in.Name] = buf.String()
		st.canon[in.Name] = in.A.Clone()
		st.canon[in.Name].Canonicalize()
	}
	st.hot = hotSpecs(st.names, newRand(cfg.seed))
	cl, err := startCluster(cfg, cfg.seed, st.hashes)
	if err != nil {
		return nil, err
	}
	st.cl = cl
	return st, nil
}

// runServe is the serve-zipf workload.
func runServe(cfg config) (*outcome, error) {
	out := newOutcome()
	var st *serveSetup
	var starts []float64
	for k := 0; k < setupReps; k++ {
		if st != nil {
			st.cl.stop()
		}
		t := time.Now()
		var err error
		if st, err = setUp(cfg); err != nil {
			return nil, err
		}
		starts = append(starts, time.Since(t).Seconds())
	}
	defer st.cl.stop()
	n := serveArrivals(serveRate, cfg.seconds, len(st.names)*len(servePs))
	plan := newServePlan(cfg.seed, 0, st.hot, st.names, serveRate, n)
	client := &serveClient{
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     cfg.workers,
			MaxIdleConnsPerHost: cfg.workers,
		}},
		plan:  plan,
		mtx:   st.mtx,
		out:   out,
		first: make(map[serveSpec]*firstResult),
	}
	defer client.http.CloseIdleConnections()

	// Warm-up: compute the hot set and hit it until every hot entry has
	// replicated, so the measured passes run in the steady state; then top
	// every cache up to capacity and touch the hot set once more, leaving
	// the filler least recently used.
	t := time.Now()
	senders := 2 * cfg.workers
	for k := 0; k <= cluster.DefaultReplicateAfter; k++ {
		if err := client.warm(st.cl.routerURL, st.hot, senders); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	replicated, err := client.awaitReplication(st.cl, int64(len(st.hot)))
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	tHot := time.Since(t)
	if err := client.fillCache(st, senders); err != nil {
		return nil, fmt.Errorf("cache fill: %w", err)
	}
	tFill := time.Since(t) - tHot
	if err := client.warm(st.cl.routerURL, st.hot, senders); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	out.e2e["setup_s"] = median(starts) + time.Since(t).Seconds()
	out.note("setup: start %.3f s (median of %d), hot set and replication %.3f s (%d of %d replicated), cache fill %.3f s, hot touch %.3f s",
		median(starts), setupReps, tHot.Seconds(), replicated, len(st.hot), tFill.Seconds(), (time.Since(t) - tHot - tFill).Seconds())
	out.note("offered %.0f req/s open loop, %d arrivals over %.1f s, poll %s, %d hot specs (Zipf %.1f), 1 in %d cold, 1 in %d cold uploads, %d shards x (1 worker, 1 runner), cache %d/shard, %d client connections",
		serveRate, n, plan.arrivals[n-1].at.Seconds(), servePoll, len(st.hot), serveTheta, serveColdEvery, serveUploadEvery, serveShards, serveCacheEntries, cfg.workers)

	samples, err := client.runPass(st.cl.routerURL, nil)
	if err != nil {
		return nil, err
	}
	lat, miss, _ := latencies(samples)
	if len(lat) == 0 {
		return nil, fmt.Errorf("no request succeeded")
	}
	out.e2e["latency_ms_p50"] = median(lat)
	out.e2e["latency_ms_tail"] = percentile(lat, 99)
	out.e2e["miss_latency_ms_p50"] = median(miss)
	out.note("%d requests: %d misses, latency p50 %.3f ms p99 %.3f ms, lag p99 %.3f ms",
		len(samples), len(miss), median(lat), percentile(lat, 99), percentile(lags(samples), 99))

	var traced []reqSample
	var before, after shardTotals
	var hedges0, hedges1 int64
	if cfg.trace {
		rec := newRecorder()
		out.spans = rec
		client.plan = newServePlan(cfg.seed, 1, st.hot, st.names, serveRate, n)
		if before, err = client.shardTotals(st.cl); err == nil {
			hedges0, err = client.routerHedges(st.cl)
		}
		if err != nil {
			return nil, err
		}
		if traced, err = client.runPass(st.cl.routerURL, rec); err != nil {
			return nil, err
		}
		if after, err = client.shardTotals(st.cl); err == nil {
			hedges1, err = client.routerHedges(st.cl)
		}
		if err != nil {
			return nil, err
		}
	}

	vol, err := verifyServed(cfg, st, client)
	if err != nil {
		return nil, err
	}
	out.e2e["volume_total"] = float64(vol)
	if !cfg.trace {
		return out, nil
	}

	tlat, _, _ := latencies(traced)
	out.layer["trace.overhead_pct"] = 100 * (median(tlat) - median(lat)) / median(lat)
	out.layer["loadgen.lag_ms_p99"] = percentile(lags(traced), 99)
	var queue, compute, other, httpMS []float64
	for _, s := range traced {
		switch {
		case !s.ok:
		case s.hit:
			httpMS = append(httpMS, ms(s.lat)-s.totalMS)
		default:
			queue = append(queue, s.queueMS)
			compute = append(compute, s.wallMS)
			other = append(other, s.runMS-s.wallMS)
		}
	}
	out.layer["service.queue_ms_p99"] = percentile(queue, 99)
	out.layer["service.compute_ms_p50"] = median(compute)
	out.layer["service.run_other_ms_p50"] = median(other)
	out.layer["service.http_ms_p50"] = median(httpMS)
	hits, misses := after.hits-before.hits, after.misses-before.misses
	out.layer["service.hit_share"] = float64(hits) / float64(max(1, hits+misses))
	out.layer["service.rejected"] = float64(after.rejected - before.rejected)
	out.layer["service.deduplicated"] = float64(after.dedup - before.dedup)
	out.layer["cluster.peer_fetch_per_miss"] = float64(after.peerFetch-before.peerFetch) / float64(max(1, misses))
	out.layer["cluster.replicated_out"] = float64(after.replicatedOut - before.replicatedOut)
	out.layer["cluster.hedges"] = float64(hedges1 - hedges0)

	if err := routerHop(st, client, out); err != nil {
		return nil, err
	}
	if err := submitHit(st, client, out); err != nil {
		return nil, err
	}
	return out, serveProbes(cfg, st, client, out)
}

func latencies(samples []reqSample) (all, miss, hit []float64) {
	for _, s := range samples {
		if !s.ok {
			continue
		}
		all = append(all, ms(s.lat))
		if s.hit {
			hit = append(hit, ms(s.lat))
		} else {
			miss = append(miss, ms(s.lat))
		}
	}
	return all, miss, hit
}

func lags(samples []reqSample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.lag)
	}
	return out
}

// verifyServed checks every distinct served result: the oracle on its
// parts, and equality of its parts and matrix hash with the offline
// Engine.Partition result. It returns the total volume of the hot set
// and of the cold specs served.
func verifyServed(cfg config, st *serveSetup, c *serveClient) (int64, error) {
	eng := mg.New(mg.EngineConfig{Workers: cfg.workers})
	byName := make(map[string]*sparse.Matrix, len(st.instances))
	for _, in := range st.instances {
		byName[in.Name] = in.A
	}
	var vol int64
	for s, f := range c.first {
		a, hash := byName[s.name], st.hashes[s.name]
		if s.upload {
			a = st.canon[s.name]
			hash = cluster.MatrixHash(a)
		}
		if err := checkResult(a, f.parts, s.p, defaultEps, f.volume); err != nil {
			c.fail("%s p=%d seed=%d: served result: %v", s.name, s.p, s.seed, err)
			continue
		}
		want, err := eng.Partition(context.Background(), mg.Request{Matrix: a, P: s.p, Method: mg.MethodMediumGrain, Seed: s.seed})
		if err != nil {
			return 0, err
		}
		if f.matrix != hash || !slices.Equal(want.Parts, f.parts) {
			c.fail("%s p=%d seed=%d upload=%v: served result differs from the offline Engine.Partition result", s.name, s.p, s.seed, s.upload)
			continue
		}
		vol += f.volume
	}
	return vol, nil
}

// routerHop times the same hot requests through the router and directly
// at the key's ring owner, alternating which goes first.
func routerHop(st *serveSetup, c *serveClient, out *outcome) error {
	const n = 200
	var viaRouter, direct []float64
	for k := 0; k < n; k++ {
		s := st.hot[k%len(st.hot)]
		key, err := cluster.RouteKey(c.job(s), st.corpusHash)
		if err != nil {
			return err
		}
		bases := []string{st.cl.routerURL, "http://" + st.cl.ring.Owner(key)}
		times := make([]float64, 2)
		for j := range bases {
			b := (j + k) % 2
			t := time.Now()
			ctx, cancel := context.WithTimeout(context.Background(), serveTimeout)
			_, _, err := c.do(ctx, bases[b], s, servePoll, nil, 0)
			cancel()
			if err != nil {
				return fmt.Errorf("router hop probe: %w", err)
			}
			times[b] = ms(time.Since(t))
		}
		viaRouter = append(viaRouter, times[0])
		direct = append(direct, times[1])
	}
	out.layer["cluster.router_hop_ms_p50"] = median(viaRouter) - median(direct)
	return nil
}

// submitHit times in-process Server.Submit of warm keys on their owner.
func submitHit(st *serveSetup, c *serveClient, out *outcome) error {
	const n = 1000
	var us []float64
	for k := 0; k < n; k++ {
		s := st.hot[k%len(st.hot)]
		job := c.job(s)
		key, err := cluster.RouteKey(job, st.corpusHash)
		if err != nil {
			return err
		}
		owner := slices.Index(st.cl.nodes, st.cl.ring.Owner(key))
		t := time.Now()
		_, err = st.cl.shards[owner].Submit(job)
		d := time.Since(t)
		if err != nil {
			return fmt.Errorf("in-process submit: %w", err)
		}
		us = append(us, float64(d)/float64(time.Microsecond))
	}
	out.layer["service.submit_hit_us_p50"] = median(us)
	return nil
}

// serveProbes measures the partitioning, persistence, prediction, and
// parsing layers on serve-zipf's own inputs: every instance at the
// largest p of servePs with a fresh seed, run through the offline probe.
func serveProbes(cfg config, st *serveSetup, c *serveClient, out *outcome) error {
	rng := newRand(cfg.seed + 1)
	inputs := make([]offlineInput, len(st.instances))
	for i, in := range st.instances {
		inputs[i] = offlineInput{name: in.Name, a: in.A, p: servePs[len(servePs)-1], seed: 1 + rng.Int63n(1<<31)}
	}
	r := newOfflineRun(cfg, mg.New(mg.EngineConfig{Workers: cfg.workers}), inputs, out)
	probeCfg := cfg
	probeCfg.seconds = 0
	r.cfg = probeCfg
	r.pass(nil, nil)
	var ps probeStats
	r.pass(out.spans, &ps)
	layerFromProbes(out, out.spans.snapshot(), &ps)
	all := make([]int, len(inputs))
	for i := range all {
		all[i] = i
	}
	out.layer["pool.speedup"] = r.speedup(all)

	// The typical result and the uploads' matrices.
	sizes := make([]int, len(inputs))
	for i, in := range inputs {
		sizes[i] = in.a.NNZ()
	}
	slices.Sort(sizes)
	typical := slices.IndexFunc(inputs, func(in offlineInput) bool { return in.a.NNZ() == sizes[len(sizes)/2] })
	var uploads []*sparse.Matrix
	seen := map[string]bool{}
	for s := range c.first {
		if s.upload && !seen[s.name] {
			seen[s.name] = true
			uploads = append(uploads, inputs[slices.IndexFunc(inputs, func(in offlineInput) bool { return in.name == s.name })].a)
		}
	}
	in := inputs[typical]
	return ioProbes(cfg, out, in.a, r.parts[typical], in.p, uploads, 3)
}
