// Package service implements mgserve, the partitioning-as-a-service
// daemon: a long-running HTTP/JSON server that accepts partition jobs,
// runs them on a bounded scheduler whose jobs share one long-lived
// core.Engine (worker pool + scratch memory), and serves results from a
// content-addressed LRU cache so repeat submissions are O(1). Completed
// results persist as internal/distio bundles, letting a restarted
// server rehydrate its cache.
//
// # HTTP API contract
//
// POST /jobs — submit a partition job. Request body (JSON):
//
//	{
//	  "corpus":     "lap2d-24",      // named internal/corpus instance, or
//	  "matrix_mtx": "%%MatrixMarket…", // inline Matrix Market text (exactly one of the two)
//	  "p":          4,               // number of parts, >= 1
//	  "method":     "MG",            // MG | FG | LB | RN | CN (default MG)
//	  "seed":       42,              // RNG seed; equal seeds give equal results
//	  "eps":        0.03,            // load-imbalance bound; omitted = 0.03,
//	                                 // an explicit 0 requests exact balance
//	  "refine":     false,           // apply the paper's iterative refinement
//	  "parallel_fm": false,          // coarse-level FM try racing inside each
//	                                 // run: about 1.4% less volume for about
//	                                 // 55% more compute. Per-seed results differ
//	                                 // from the default, so the choice is part
//	                                 // of the cache key
//	  "workers":    1,               // accepted and ignored: every job runs on
//	                                 // the server's shared engine
//	  "tries":      1,               // > 1 races that many deterministic seed
//	                                 // variants (seed..seed+N-1) and keeps the
//	                                 // lowest-volume result; 0/1 = single run.
//	                                 // Part of the cache key
//	  "budget_ms":  0,               // wall-time budget of the search race
//	                                 // (requires tries > 1); part of the cache key
//	  "timeout_ms": 0                // per-job compute budget, overriding the
//	                                 // server default in either direction
//	                                 // (0 = default); enforced by canceling the
//	                                 // computation's context, so a timed-out
//	                                 // job's work actually stops
//	}
//
// Unknown fields are ignored. That includes "exact_fm", an FM mode that
// no longer exists: a job carrying it runs in the default mode.
//
// Responses: 200 with the job in state "done" when the result was
// served from cache ("cached": true); 202 with state "queued" when the
// job was admitted; 400 for a malformed spec (unknown corpus name, bad
// method, unparsable matrix, p < 1); 503 with a Retry-After header when
// the queue is full or the server is draining. The body of every
// success is the job view:
//
//	{"id": "j-00000001", "state": "queued|running|done|failed|canceled",
//	 "cached": false, "error": "…", "key": "<content address>",
//	 "matrix": "lap2d-24", "p": 4, "method": "MG", "seed": 42,
//	 "queue_ms": 0.1, "run_ms": 12.3, "total_ms": 12.4}
//
// GET /jobs/{id} — the job view above; 404 for unknown ids.
//
// DELETE /jobs/{id} — cancel a queued or running job. The job moves to
// state "canceled"; when it was the last job interested in its
// computation, the computation's context is canceled and the work
// stops. Answers the job view with 200; 404 for unknown ids; 409 when
// the job already finished.
//
// GET /jobs/{id}/result — the full result once the job is done:
// matrix facts (name, content hash, rows, cols, nnz), the resolved
// spec, communication volume, achieved imbalance, the BSP runtime
// prediction of spmv.Predict, wall time, and the per-nonzero parts
// vector (rejoined from the result cache; job records keep scalars
// only). 404 for unknown ids, 409 while the job is not done, 410 when
// the job failed or was canceled or its result has since been evicted
// from the cache — resubmit the spec, which recomputes or hits.
//
// GET /corpus — the named instances this server can partition:
// {"scale": 1, "seed": 20140519, "names": ["lap2d-24", …]}. A client
// building the same corpus locally gets bit-identical matrices, which
// is how cmd/mgload verifies served results offline.
//
// GET /healthz — liveness: {"status": "ok"} (or "draining") with 200.
// A draining server is still alive — it is finishing accepted work — so
// liveness never goes red during graceful shutdown.
//
// GET /readyz — readiness: 200 {"ready": true} once startup (cache
// rehydration, cluster membership checks) has completed; 503 before
// that and again from the moment a drain begins, so routers and load
// balancers stop sending new work while in-flight jobs finish.
//
// GET /stats — operational counters: queue depth, running jobs,
// accepted/completed/failed/rejected/canceled/deduplicated totals,
// race-to-best search totals (search_jobs, search_tries), cache
// entries/hits/misses/hit-rate, and per-method latency percentiles
// (p50/p90/p99).
//
// # Determinism and the cache key
//
// Results are content-addressed by (matrix hash, p, method, seed, eps,
// refine, parallel_fm, tries, budget_ms). The worker count is
// not part of the key: the library guarantees bit-identical results at
// every worker count, so a spec's "workers" field is ignored and all
// submissions of one spec share one cache slot. The race-to-best search
// spec is part of the key because a best-of-N volume must never answer
// a single-run request (or a different N), and a budgeted race is not
// deterministic; tries 0 and 1 are normalized to one slot. Uploading a matrix that byte-for-byte
// equals a corpus instance hits the same cache entries as jobs naming
// that instance. Single-flight deduplication is keyed on the same full
// key, so only identical search specs share one computation.
//
// # Scheduling, cancellation, and single-flight deduplication
//
// Admission control is a bounded queue: Submit rejects with ErrQueueFull
// when it is full, and with ErrDraining once a graceful shutdown has
// begun. A fixed set of runner goroutines executes admitted jobs; every
// job runs on the server's one core.Engine, so helper parallelism is
// shared across concurrent jobs rather than multiplied by them (each
// runner's root goroutine works inline besides the pool's helpers, so
// total compute threads are bounded by Workers + Runners - 1, not
// Workers × Runners).
//
// Identical in-flight submissions are deduplicated: jobs whose cache
// key matches a computation that is already queued or running attach to
// it instead of queueing a second one, and every attached job completes
// with that computation's outcome (its compute budget is the first
// submission's). Canceling one attached job detaches only it; the
// computation itself is canceled when its last interested job is.
//
// Per-job timeouts and DELETE cancellation act through the
// computation's context: the engine observes it at bisection, multilevel
// and scan boundaries, so the work stops within milliseconds, the
// runner is freed, and nothing leaks.
//
// Cache eviction garbage-collects the persisted bundle and meta file of
// the evicted key, so the data directory tracks the cache instead of
// growing without bound. Draining stops admission, lets the queue
// empty, and waits for in-flight jobs — accepted work is never dropped.
//
// # Peer fetch and persistence
//
// In cluster mode a shard asks the key's ring peers for a persisted
// entry while it computes a miss, so a miss no peer can answer costs the
// longer of the two, not their sum. A peer's entry is preferred: a peer
// that answers 200 stops the computation before its entry is transferred
// and validated (an entry that then fails validation is recomputed), and
// a computation that ends first waits for the fetch's answer. The job's
// budget and the peer breaker bound the wait. A miss a peer answers
// still computes until that answer arrives, which costs CPU the
// sequential order did not spend.
//
// A job is marked done before its result's files are written, but while
// the runner holds persistMu, which every export path takes (peer
// GET /cache/{key}, replication and degraded-mode pushback, the leave
// handoff). A peer asking for an entry a client saw done therefore
// waits for its files, and Drain returns only after every write. A
// crash between the two loses only that entry's files, which
// best-effort persistence never promised.
package service

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mediumgrain/internal/cluster"
	"mediumgrain/internal/cluster/membership"
	"mediumgrain/internal/core"
	"mediumgrain/internal/corpus"
	"mediumgrain/internal/metrics"
	"mediumgrain/internal/sparse"
	"mediumgrain/internal/spmv"
)

// Config sizes the daemon.
type Config struct {
	// Workers is the shared engine pool size (<= 0 selects GOMAXPROCS);
	// it never changes a result.
	// Each runner's root goroutine computes inline besides the pool's
	// helpers, so total compute threads peak at Workers + Runners - 1.
	Workers int
	// Runners is the number of concurrently executing jobs (default 2).
	Runners int
	// QueueDepth bounds the admission queue (default 64).
	QueueDepth int
	// CacheEntries bounds the in-memory result cache (default 256).
	CacheEntries int
	// JobHistory bounds how many finished jobs stay queryable by id
	// (default 4096); older finished jobs age out FIFO so a long-running
	// daemon's memory is bounded. Queued/running jobs are never evicted.
	JobHistory int
	// DataDir persists completed results as distio bundles and
	// rehydrates them on startup; empty disables persistence.
	DataDir string
	// DefaultTimeout caps a job's computation unless its spec overrides
	// it (default 5 minutes).
	DefaultTimeout time.Duration
	// CorpusScale / CorpusSeed build the named-instance corpus (defaults
	// from corpus.DefaultOptions).
	CorpusScale int
	CorpusSeed  int64
	// Machine is the BSP machine used for runtime predictions (default:
	// 1 Gflop/s, g = 10, l = 1000).
	Machine spmv.Machine
	// Cluster, when set, runs the server as one shard of a consistent-
	// hash cluster: on a local cache miss the shard fetches persisted
	// entries from the key's ring peers while computing, and hot
	// entries replicate to the key's other replicas. Nil (the default)
	// is plain single-node operation — nothing about keys, caching, or
	// the HTTP contract changes either way; cluster mode only adds the
	// /cache/{key} peer endpoints and the /stats cluster section.
	Cluster *cluster.ShardConfig
	// Members, when set alongside Cluster, is the live membership set
	// this shard routes ownership through — joins and leaves announced
	// over /cluster/{join,leave} rebuild its ring under the running
	// server. Nil selects a static set frozen at Cluster.Ring (the
	// pre-membership behavior).
	Members *membership.Set
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = -1 // GOMAXPROCS; 0 would compute on the runners alone
	}
	if c.Runners <= 0 {
		c.Runners = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.JobHistory <= 0 {
		c.JobHistory = 4096
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Minute
	}
	def := corpus.DefaultOptions()
	if c.CorpusScale <= 0 {
		c.CorpusScale = def.Scale
	}
	if c.CorpusSeed == 0 {
		c.CorpusSeed = def.Seed
	}
	if c.Machine == (spmv.Machine{}) {
		c.Machine = spmv.Machine{FlopRate: 1e9, G: 10, L: 1000}
	}
	return c
}

// flight is one in-flight computation and the set of jobs awaiting its
// outcome. The first submission of a cache key creates the flight and
// queues itself; identical submissions attach instead of queueing.
// All fields are guarded by the server's flightMu.
type flight struct {
	key  string
	jobs []*Job
	// matrix is captured at flight creation: job records release their
	// matrix reference on any terminal transition (including a cancel
	// of the submitting job), but the computation and its persistence
	// need it for the flight's whole lifetime.
	matrix *sparse.Matrix
	// cancel stops the computation's context; set once a runner claims
	// the flight.
	cancel context.CancelFunc
	// running marks the flight claimed by a runner; done marks its
	// outcome delivered (or every job canceled), after which the flight
	// is no longer in the server's map.
	running bool
	done    bool
}

// Server is the daemon: corpus, shared engines, scheduler, cache, stats.
type Server struct {
	cfg       Config
	instances []corpus.Instance
	// hashes holds the precomputed content address of every corpus
	// instance, so a named-instance submission — the cache-hit hot path
	// — never rehashes an immutable matrix.
	hashes map[string]string
	// engine executes every job; it is long-lived and safe for
	// concurrent jobs.
	engine *core.Engine
	cache  *Cache
	sched  *scheduler
	jobs   *jobStore
	stats  *statsRecorder

	// flights deduplicates identical in-flight computations by cache
	// key; see flight.
	flightMu sync.Mutex
	flights  map[string]*flight

	// persistMu serializes disk persists and eviction garbage
	// collection: distio writes bundle files in place, so two runners
	// completing the same key concurrently must not interleave — the
	// second writer sees the first's meta file and skips, keeping the
	// meta-exists ⇒ bundle-complete invariant. Export paths take it
	// too, so they wait for a write that finishFlight has begun.
	//
	// Lock order: persistMu → flightMu → the job store's lock
	// (finishFlight marks jobs done while holding persistMu). Nothing
	// may take persistMu while holding either of the others.
	persistMu sync.Mutex
	started   time.Time
	draining  atomic.Bool
	// ready gates /readyz: set once startup (rehydration, cluster
	// membership checks) completes, cleared the moment a drain begins so
	// routers stop sending new work before admission starts 503ing.
	ready atomic.Bool
	// clu is the validated cluster configuration; nil in single-node
	// mode, which disables peer fetch, replication, and the /cache
	// endpoints.
	clu *cluster.ShardConfig
	// peerBreaker tracks ring-peer health (non-nil exactly when clu is):
	// peer fetch, replication, rehydration, and handoff all report their
	// exchange outcomes here and skip peers whose circuit is open, so one
	// dead peer costs a few timeouts, not a timeout per miss.
	peerBreaker *cluster.Breaker
	// members is the live membership set behind every ownership
	// decision in cluster mode (non-nil exactly when clu is): ring
	// lookups go through s.ring() so an adopted join/leave takes effect
	// on the next request. For a static configuration it wraps clu.Ring
	// and never changes.
	members *membership.Set
}

// New builds a server, rehydrating the cache from cfg.DataDir when set.
// Rehydration errors are collected, not fatal: a corrupt bundle only
// costs its cache entry.
func New(cfg Config) (*Server, []error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		instances: corpus.Build(corpus.Options{Scale: cfg.CorpusScale, Seed: cfg.CorpusSeed}),
		engine:    core.NewEngine(cfg.Workers),
		cache:     newCache(cfg.CacheEntries),
		jobs:      newJobStore(cfg.JobHistory),
		stats:     newStatsRecorder(),
		flights:   make(map[string]*flight),
		started:   time.Now(),
	}
	s.hashes = make(map[string]string, len(s.instances))
	for _, in := range s.instances {
		s.hashes[in.Name] = cluster.MatrixHash(in.A)
	}
	s.sched = newScheduler(cfg.Runners, cfg.QueueDepth, s.execute)
	var warns []error
	if cfg.DataDir != "" {
		results, errs := loadCacheDir(cfg.DataDir, cfg.CacheEntries)
		warns = errs
		for _, res := range results {
			s.cache.Put(res.Key, res)
		}
	}
	if cfg.Cluster != nil {
		clu := cfg.Cluster.WithDefaults()
		members := cfg.Members
		if members == nil && clu.Ring != nil {
			members = membership.Static(clu.Ring)
		}
		switch {
		case members == nil:
			warns = append(warns, errors.New("service: cluster config has no ring; running single-node"))
		case !members.Ring().Contains(clu.Self):
			warns = append(warns, fmt.Errorf("service: shard %q is not in the peer ring %v; running single-node",
				clu.Self, members.Ring().Nodes()))
		default:
			s.clu = &clu
			s.peerBreaker = cluster.NewBreaker(clu.Breaker)
			s.members = members
			s.members.OnChange(func(old, cur *cluster.Ring) {
				s.stats.membershipUpdate()
				log.Printf("membership: adopted %s (%d members, was %s)", cur.Epoch(), len(cur.Nodes()), old.Epoch())
			})
		}
	}
	s.ready.Store(true)
	return s, warns
}

// ring returns the current ownership ring; cluster mode only.
func (s *Server) ring() *cluster.Ring { return s.members.Ring() }

// Members exposes the live membership set (nil outside cluster mode) —
// the serving command drives join broadcasts, planned leaves, and
// rehydration through it.
func (s *Server) Members() *membership.Set { return s.members }

// Submit resolves, admits, and (on a cache hit) immediately completes a
// job; identical in-flight submissions share one computation. The
// returned error is ErrDraining, ErrQueueFull, or a *BadSpecError; the
// job is non-nil exactly when err is nil.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	job, _, err := s.submit(spec)
	return job, err
}

// submit is Submit that also returns the job's view at admission: done
// and cached for a cache hit, queued otherwise. The queued view is taken
// before the job is published to a flight or the scheduler, because a
// runner may claim the job the moment it is, and the submit response
// must describe the job as admitted, not as a runner has since moved it.
func (s *Server) submit(spec JobSpec) (*Job, JobView, error) {
	if s.draining.Load() {
		s.stats.rejected()
		return nil, JobView{}, ErrDraining
	}
	// Shed expensive upload resolution (parse + canonicalize + hash of
	// up to 64MB) before doing it when the queue is already full: the
	// 503 would arrive anyway for a miss, and overload CPU must be
	// bounded by admission, not by open connections. Under overload a
	// would-be cache-hit upload is bounced too — the client retries;
	// named corpus specs stay cheap to resolve and are never shed here.
	if spec.MatrixMM != "" && s.sched.full() {
		s.stats.rejected()
		return nil, JobView{}, ErrQueueFull
	}
	rs, err := s.resolve(spec)
	if err != nil {
		return nil, JobView{}, err
	}
	job := s.jobs.create(rs)
	if res, hits, ok := s.cache.Touch(rs.key); ok {
		s.stats.cacheHit()
		if res.Origin != "" {
			s.stats.peerServed()
		}
		s.jobs.completeCached(job, res)
		s.maybeReplicate(res, hits)
		return job, s.jobs.View(job), nil
	}
	queued := s.jobs.View(job)
	// Single-flight: attach to an identical in-flight computation
	// instead of queueing a duplicate.
	s.flightMu.Lock()
	if f, ok := s.flights[rs.key]; ok && !f.done {
		f.jobs = append(f.jobs, job)
		s.flightMu.Unlock()
		s.stats.deduped()
		s.stats.accepted()
		return job, queued, nil
	}
	f := &flight{key: rs.key, jobs: []*Job{job}, matrix: rs.matrix}
	s.flights[rs.key] = f
	s.flightMu.Unlock()
	if err := s.sched.submit(job); err != nil {
		// Identical submissions may have attached to the flight between
		// the publish above and this failure; retire the flight and fail
		// them too — their clients already hold a 202 and would
		// otherwise poll a forever-"queued" job no runner will claim.
		s.flightMu.Lock()
		f.done = true
		members := f.jobs
		f.jobs = nil
		if s.flights[rs.key] == f {
			delete(s.flights, rs.key)
		}
		s.flightMu.Unlock()
		for _, j := range members {
			if j != job {
				s.stats.failed()
				s.jobs.fail(j, err.Error())
			}
		}
		s.jobs.drop(job.id)
		s.stats.rejected()
		return nil, JobView{}, err
	}
	// Counted only for admitted jobs, so an overloaded queue does not
	// deflate the hit rate with submissions that never computed.
	s.stats.cacheMiss()
	s.stats.accepted()
	return job, queued, nil
}

// Cancel moves a queued or running job to the canceled state. When it
// was the computation's last interested job, the computation's context
// is canceled too. ok is false for unknown ids; canceled reports
// whether the job is (now or already) canceled — false means it had
// finished first.
func (s *Server) Cancel(id string) (job *Job, ok, canceled bool) {
	job, ok = s.jobs.get(id)
	if !ok {
		return nil, false, false
	}
	switch s.jobs.state(job) {
	case StateCanceled:
		return job, true, true // idempotent
	case StateDone, StateFailed:
		return job, true, false
	}
	// Detach from the flight first so a concurrently finishing
	// computation no longer completes this job.
	s.flightMu.Lock()
	if f, fok := s.flights[job.resolved.key]; fok && !f.done {
		for i, j := range f.jobs {
			if j == job {
				f.jobs = append(f.jobs[:i], f.jobs[i+1:]...)
				break
			}
		}
		if len(f.jobs) == 0 {
			// Nobody is interested anymore: stop the computation (its
			// runner observes ctx and returns). A flight that never
			// started is retired here; a claimed one is retired by its
			// runner's finish.
			if !f.running {
				f.done = true
				delete(s.flights, f.key)
			} else if f.cancel != nil {
				f.cancel()
			}
		}
	}
	s.flightMu.Unlock()
	if s.jobs.cancel(job) {
		s.stats.canceled()
	}
	// The job may have finished in the race window above.
	return job, true, s.jobs.state(job) == StateCanceled
}

// claimFlight marks the job's flight as running and snapshots its
// members; ok is false when every interested job was canceled before a
// runner got here (the flight is already retired).
func (s *Server) claimFlight(job *Job) (f *flight, members []*Job, ok bool) {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	f = s.flights[job.resolved.key]
	if f == nil || f.done || f.running || len(f.jobs) == 0 {
		return nil, nil, false
	}
	f.running = true
	return f, append([]*Job(nil), f.jobs...), true
}

// outcome is one computation's result.
type outcome struct {
	res *CachedResult
	err error
}

// peerEntry is one peer fetch's answer; ok reports a validated entry.
type peerEntry struct {
	res    *CachedResult
	matrix *sparse.Matrix
	ok     bool
}

// finishFlight retires a flight and delivers its outcome to every still
// attached job. Successful results enter the cache (and disk) even when
// every job has been canceled meanwhile: the work is done, and a
// re-submission should hit. The jobs are marked done before the disk
// write but under persistMu, which every export path takes, so a peer
// that asks for the entry after a client saw "done" waits for its files.
func (s *Server) finishFlight(f *flight, o outcome, matrix *sparse.Matrix) {
	var evicted string
	persist := o.err == nil && s.cfg.DataDir != ""
	if o.err == nil {
		evicted = s.cache.Put(o.res.Key, o.res)
	}
	if persist {
		s.persistMu.Lock()
		defer s.persistMu.Unlock()
	}
	s.flightMu.Lock()
	f.done = true
	members := f.jobs
	f.jobs = nil
	if s.flights[f.key] == f {
		delete(s.flights, f.key)
	}
	s.flightMu.Unlock()
	for _, j := range members {
		switch {
		case o.err == nil:
			s.stats.completed(o.res.Method, o.res.WallMS)
			s.jobs.complete(j, o.res)
		case errors.Is(o.err, context.Canceled):
			// Raced: canceled between the member snapshot and here.
			if s.jobs.cancel(j) {
				s.stats.canceled()
			}
		default:
			s.stats.failed()
			s.jobs.fail(j, o.err.Error())
		}
	}
	if persist {
		s.persistLocked(o.res, matrix, evicted)
	}
}

// execute runs one admitted job (and every deduplicated job attached to
// its flight) on a scheduler runner, enforcing the per-job timeout
// through the computation's context.
func (s *Server) execute(job *Job) {
	rs := job.resolved
	f, members, ok := s.claimFlight(job)
	if !ok {
		return // every interested job was canceled while queued
	}

	// The spec's timeout overrides the server default in either
	// direction; attached duplicates share this budget.
	timeout := s.cfg.DefaultTimeout
	if rs.spec.TimeoutMS > 0 {
		timeout = time.Duration(rs.spec.TimeoutMS) * time.Millisecond
	}
	// The flight's reference, not rs.matrix: the job store releases the
	// latter as soon as the submitting job reaches any terminal state
	// (e.g. a DELETE while queued), which can precede this computation.
	matrix := f.matrix

	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	s.flightMu.Lock()
	f.cancel = cancel
	s.flightMu.Unlock()
	for _, j := range members {
		s.jobs.markRunning(j)
	}
	// Cluster mode: while computing, ask the key's ring peers for a
	// persisted entry — another shard may have computed this key already
	// (direct submission, or ownership moved). A miss no peer can answer
	// then costs the longer of the fetch and the computation, not their
	// sum. The fetch runs under the job's context and is never cut short
	// because the computation ended: a peer's entry is preferred. A peer
	// that answers 200 stops a computation still running, so the entry's
	// transfer and validation do not compete with it for CPU; should that
	// entry then fail validation, the job computes after all. The adopted
	// result enters the cache and disk through the normal finish path; it
	// is marked replicated so this shard never pushes it back where it
	// came from.
	computeCtx, stopCompute := context.WithCancel(ctx)
	defer stopCompute()
	var fetched chan peerEntry
	if s.clu != nil {
		fetched = make(chan peerEntry, 1)
		go func() {
			var e peerEntry
			e.res, e.matrix, e.ok = s.tryPeerFetch(ctx, rs, stopCompute)
			fetched <- e
		}()
	}
	res, err := s.partition(computeCtx, rs, matrix)
	if fetched != nil {
		if e := <-fetched; e.ok {
			s.finishFlight(f, outcome{e.res, nil}, e.matrix)
			s.cache.MarkReplicated(rs.key)
			return
		}
		if err != nil && computeCtx.Err() != nil && ctx.Err() == nil {
			res, err = s.partition(ctx, rs, matrix)
		}
	}
	if err != nil && errors.Is(err, context.DeadlineExceeded) {
		err = fmt.Errorf("timeout after %s (computation canceled)", timeout)
	}
	// Degraded-mode pushback: a router routed us a key we don't own
	// because the whole owner set was down or open-circuit (results are
	// content-addressed, so any shard can compute any key). Serve it and
	// chase the owners' recovery in the background so the entry ends up
	// where the ring routes future submissions. The MarkReplicated latch
	// makes the chase single-shot and keeps hot-hit replication from
	// re-pushing it. The job is counted before it is finished, so a
	// client that sees it done also sees it in degraded_jobs.
	degraded := err == nil && s.clu != nil && !s.ownsKey(rs.key)
	if degraded {
		s.stats.degradedJob()
	}
	s.finishFlight(f, outcome{res, err}, matrix)
	if degraded && s.cfg.DataDir != "" && s.cache.MarkReplicated(rs.key) {
		go s.pushBack(rs.key)
	}
}

// ownsKey reports whether this shard is in the key's replica set under
// the current ring.
func (s *Server) ownsKey(key string) bool {
	return slices.Contains(s.ring().Replicas(key), s.clu.Self)
}

// keepResult enters a completed result into the cache (and disk, when
// persistence is on) and garbage-collects the files of the entry the
// insert evicted, so the data directory tracks the cache.
func (s *Server) keepResult(res *CachedResult, matrix *sparse.Matrix) {
	evicted := s.cache.Put(res.Key, res)
	if s.cfg.DataDir == "" {
		return
	}
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	s.persistLocked(res, matrix, evicted)
}

// persistLocked writes a result's files and removes those of the entry
// its cache insert evicted. Callers hold persistMu.
func (s *Server) persistLocked(res *CachedResult, matrix *sparse.Matrix, evicted string) {
	if err := saveCacheEntry(s.cfg.DataDir, res, matrix); err != nil {
		// Persistence is best-effort: the result is still served
		// from memory; the entry is simply absent after restart.
		s.stats.persistErr()
	}
	if evicted != "" && evicted != res.Key {
		if err := removeCacheEntry(s.cfg.DataDir, evicted); err != nil {
			s.stats.persistErr()
		}
	}
}

// partition executes the resolved spec on the server's engine and
// assembles the cacheable result. The matrix is passed explicitly (not
// read from rs): the job store releases rs.matrix when the job reaches a
// terminal state, which for a canceled job can happen while this
// computation is still unwinding.
func (s *Server) partition(ctx context.Context, rs *resolvedSpec, a *sparse.Matrix) (*CachedResult, error) {
	opts := core.DefaultOptions()
	opts.Eps = rs.eps
	opts.Refine = rs.spec.Refine
	opts.Config.ParallelFM = rs.spec.ParallelFM
	rng := rand.New(rand.NewSource(rs.spec.Seed))

	start := time.Now()
	var (
		res       *core.Result
		winnerTry int
		err       error
	)
	var tries int // recorded in the result; 0 = single classic run
	if rs.tries > 1 {
		tries = rs.tries
		spec := core.SearchSpec{
			Tries:  rs.tries,
			Budget: time.Duration(rs.spec.BudgetMS) * time.Millisecond,
		}
		var rep core.SearchReport
		res, rep, err = s.engine.PartitionSearch(ctx, a, rs.spec.P, rs.method, opts, rs.spec.Seed, spec, nil)
		winnerTry = rep.WinnerTry
		s.stats.search(rs.tries)
	} else {
		res, err = s.engine.Partition(ctx, a, rs.spec.P, rs.method, opts, rng)
	}
	if err != nil {
		return nil, err
	}
	wallMS := float64(time.Since(start).Microseconds()) / 1000

	pred, err := spmv.Predict(a, res.Parts, rs.spec.P, s.cfg.Machine)
	if err != nil {
		return nil, err
	}
	return &CachedResult{
		Key:        rs.key,
		MatrixName: rs.name,
		MatrixHash: rs.hash,
		Rows:       a.Rows,
		Cols:       a.Cols,
		NNZ:        a.NNZ(),
		P:          rs.spec.P,
		Method:     rs.method.String(),
		Seed:       rs.spec.Seed,
		Eps:        rs.eps,
		Refine:     rs.spec.Refine,
		ParallelFM: rs.spec.ParallelFM,
		Tries:      tries,
		BudgetMS:   rs.spec.BudgetMS,
		WinnerTry:  winnerTry,
		Volume:     res.Volume,
		Imbalance:  metrics.Imbalance(res.Parts, rs.spec.P),
		WallMS:     wallMS,
		Predict:    pred,
		Parts:      res.Parts,
	}, nil
}

// Job returns the job with the given id, if any.
func (s *Server) Job(id string) (*Job, bool) { return s.jobs.get(id) }

// Corpus lists the named instances with the options that built them.
func (s *Server) Corpus() (scale int, seed int64, names []string) {
	names = make([]string, len(s.instances))
	for i, in := range s.instances {
		names[i] = in.Name
	}
	return s.cfg.CorpusScale, s.cfg.CorpusSeed, names
}

// Draining reports whether a graceful shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain stops admission and blocks until every accepted job (queued or
// running) has finished. Safe to call more than once. Readiness drops
// first: a router probing /readyz (or failing over on the 503s new
// submissions now get) stops sending work here, which is what makes
// taking one shard down lossless for clients.
func (s *Server) Drain() {
	s.ready.Store(false)
	s.draining.Store(true)
	s.sched.drain()
}

// lookupInstance finds a corpus instance by name.
func (s *Server) lookupInstance(name string) (*sparse.Matrix, error) {
	in, err := corpus.Find(s.instances, name)
	if err != nil {
		return nil, err
	}
	return in.A, nil
}
