package service

import (
	"sync"
	"sync/atomic"
	"time"

	"mediumgrain/internal/report"
)

// latencySampleCap bounds the per-method latency window the percentiles
// are computed over; older observations age out ring-buffer style.
const latencySampleCap = 4096

// statsRecorder accumulates the operational counters behind /stats.
type statsRecorder struct {
	acceptedN   atomic.Int64
	completedN  atomic.Int64
	failedN     atomic.Int64
	rejectedN   atomic.Int64
	canceledN   atomic.Int64
	dedupedN    atomic.Int64
	cacheHitN   atomic.Int64
	cacheMissN  atomic.Int64
	persistErrN atomic.Int64
	searchJobsN atomic.Int64
	searchTryN  atomic.Int64

	// Cluster counters; only move in cluster mode.
	peerFetchOKN   atomic.Int64
	peerFetchFailN atomic.Int64
	peerFetchSkipN atomic.Int64
	peerServedN    atomic.Int64
	replicatedInN  atomic.Int64
	replicatedOutN atomic.Int64

	// Degraded-mode counters: jobs computed for keys this shard does not
	// own (routed here because the owner set was down), and the fate of
	// the background pushes that return those entries to their owners.
	degradedJobN    atomic.Int64
	pushbackDoneN   atomic.Int64
	pushbackFailedN atomic.Int64

	// Live-membership counters. rehydratePendingN is a gauge (keys still
	// to pull during a join's bulk rehydration); the rest are totals.
	membershipN       atomic.Int64
	epochConflictN    atomic.Int64
	rehydratePendingN atomic.Int64
	rehydrateDoneN    atomic.Int64
	rehydrateFailedN  atomic.Int64
	handoffDoneN      atomic.Int64
	handoffFailedN    atomic.Int64

	mu        sync.Mutex
	latencies map[string]*latencyRing
}

type latencyRing struct {
	buf  []float64
	next int
}

func (r *latencyRing) add(ms float64) {
	if len(r.buf) < latencySampleCap {
		r.buf = append(r.buf, ms)
		return
	}
	r.buf[r.next] = ms
	r.next = (r.next + 1) % latencySampleCap
}

func newStatsRecorder() *statsRecorder {
	return &statsRecorder{latencies: make(map[string]*latencyRing)}
}

func (st *statsRecorder) accepted()   { st.acceptedN.Add(1) }
func (st *statsRecorder) failed()     { st.failedN.Add(1) }
func (st *statsRecorder) rejected()   { st.rejectedN.Add(1) }
func (st *statsRecorder) canceled()   { st.canceledN.Add(1) }
func (st *statsRecorder) deduped()    { st.dedupedN.Add(1) }
func (st *statsRecorder) cacheHit()   { st.cacheHitN.Add(1) }
func (st *statsRecorder) cacheMiss()  { st.cacheMissN.Add(1) }
func (st *statsRecorder) persistErr() { st.persistErrN.Add(1) }

func (st *statsRecorder) peerFetchOK()      { st.peerFetchOKN.Add(1) }
func (st *statsRecorder) peerFetchFailed()  { st.peerFetchFailN.Add(1) }
func (st *statsRecorder) peerFetchSkipped() { st.peerFetchSkipN.Add(1) }
func (st *statsRecorder) peerServed()       { st.peerServedN.Add(1) }
func (st *statsRecorder) replicatedIn()     { st.replicatedInN.Add(1) }
func (st *statsRecorder) replicatedOut()    { st.replicatedOutN.Add(1) }
func (st *statsRecorder) degradedJob()      { st.degradedJobN.Add(1) }
func (st *statsRecorder) pushbackDone()     { st.pushbackDoneN.Add(1) }
func (st *statsRecorder) pushbackFailed()   { st.pushbackFailedN.Add(1) }

func (st *statsRecorder) membershipUpdate()        { st.membershipN.Add(1) }
func (st *statsRecorder) epochConflict()           { st.epochConflictN.Add(1) }
func (st *statsRecorder) rehydratePending(n int64) { st.rehydratePendingN.Store(n) }
func (st *statsRecorder) rehydrateDone() {
	st.rehydrateDoneN.Add(1)
	st.rehydratePendingN.Add(-1)
}
func (st *statsRecorder) rehydrateFailed() {
	st.rehydrateFailedN.Add(1)
	st.rehydratePendingN.Add(-1)
}
func (st *statsRecorder) handoffDone()   { st.handoffDoneN.Add(1) }
func (st *statsRecorder) handoffFailed() { st.handoffFailedN.Add(1) }

// search counts one race-to-best computation of the given width.
func (st *statsRecorder) search(tries int) {
	st.searchJobsN.Add(1)
	st.searchTryN.Add(int64(tries))
}

func (st *statsRecorder) completed(method string, wallMS float64) {
	st.completedN.Add(1)
	st.mu.Lock()
	defer st.mu.Unlock()
	r := st.latencies[method]
	if r == nil {
		r = &latencyRing{}
		st.latencies[method] = r
	}
	r.add(wallMS)
}

func (st *statsRecorder) methodSummaries() map[string]report.LatencySummary {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[string]report.LatencySummary, len(st.latencies))
	for m, r := range st.latencies {
		out[m] = report.SummarizeLatencies(r.buf)
	}
	return out
}

// ClusterStats is the cluster section of /stats, present only when the
// server runs as a shard. PeerFetchOK/Failed count miss-time entry
// fetches from ring peers (failed includes unreachable peers, 404s, and
// rejected transfers); PeerServed counts cache hits answered from an
// entry this shard adopted from a peer; ReplicatedIn/Out count adopted
// and pushed hot-entry replications. The json tags are a wire contract
// with the cluster router's merged /stats.
// Epoch/Counter and the membership counters expose the live-membership
// state: MembershipUpdates counts adopted member-set proposals,
// EpochConflicts counts routed requests bounced with a structured 409
// for carrying a different ring epoch, RehydratePending/Done/Failed
// track a join's bulk cache pull, and HandoffDone/Failed track a
// planned leave's entry pushes to the new owners.
// PeerFetchSkipped, DegradedJobs, Pushback*, and the PeerBreaker*
// fields expose the resilience layer: fetches not even attempted
// because a peer's circuit was open, jobs computed for keys this shard
// does not own (degraded-mode routing), the background pushes
// returning those entries to their owners, and the peer breaker's live
// and lifetime transition counts.
type ClusterStats struct {
	Self              string            `json:"self"`
	Nodes             []string          `json:"nodes"`
	Epoch             string            `json:"epoch"`
	Counter           uint64            `json:"counter"`
	PeerFetchOK       int64             `json:"peer_fetch_ok"`
	PeerFetchFailed   int64             `json:"peer_fetch_failed"`
	PeerFetchSkipped  int64             `json:"peer_fetch_skipped"`
	PeerServed        int64             `json:"peer_served"`
	ReplicatedIn      int64             `json:"replicated_in"`
	ReplicatedOut     int64             `json:"replicated_out"`
	DegradedJobs      int64             `json:"degraded_jobs"`
	PushbackDone      int64             `json:"pushback_done"`
	PushbackFailed    int64             `json:"pushback_failed"`
	PeerBreakerOpen   int               `json:"peer_breaker_open"`
	PeerBreakerOpened int64             `json:"peer_breaker_opened"`
	PeerBreakerClosed int64             `json:"peer_breaker_closed"`
	PeerBreakerStates map[string]string `json:"peer_breaker_states,omitempty"`
	MembershipUpdates int64             `json:"membership_updates"`
	EpochConflicts    int64             `json:"epoch_conflicts"`
	RehydratePending  int64             `json:"rehydrate_pending"`
	RehydrateDone     int64             `json:"rehydrate_done"`
	RehydrateFailed   int64             `json:"rehydrate_failed"`
	HandoffDone       int64             `json:"handoff_done"`
	HandoffFailed     int64             `json:"handoff_failed"`
}

// CacheStats is the cache section of /stats.
type CacheStats struct {
	Entries  int     `json:"entries"`
	Capacity int     `json:"capacity"`
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	HitRate  float64 `json:"hit_rate"`
}

// StatsView is the /stats JSON.
type StatsView struct {
	Status     string  `json:"status"`
	UptimeMS   float64 `json:"uptime_ms"`
	Workers    int     `json:"workers"`
	Runners    int     `json:"runners"`
	QueueCap   int     `json:"queue_capacity"`
	QueueDepth int     `json:"queue_depth"`
	Running    int64   `json:"running"`
	Accepted   int64   `json:"accepted"`
	Completed  int64   `json:"completed"`
	Failed     int64   `json:"failed"`
	Rejected   int64   `json:"rejected"`
	// Canceled counts jobs canceled via DELETE /jobs/{id}; Deduplicated
	// counts submissions that attached to an identical in-flight
	// computation instead of queueing their own.
	Canceled     int64 `json:"canceled"`
	Deduplicated int64 `json:"deduplicated"`
	// SearchJobs counts computations that ran a race-to-best search
	// (tries > 1); SearchTries is the total number of variants they
	// raced, so SearchTries/SearchJobs is the mean search width.
	SearchJobs  int64                            `json:"search_jobs"`
	SearchTries int64                            `json:"search_tries"`
	PersistErrs int64                            `json:"persist_errors"`
	Cache       CacheStats                       `json:"cache"`
	Cluster     *ClusterStats                    `json:"cluster,omitempty"`
	Methods     map[string]report.LatencySummary `json:"method_latency"`
}

// Stats assembles the current operational snapshot.
func (s *Server) Stats() StatsView {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	hits := s.stats.cacheHitN.Load()
	misses := s.stats.cacheMissN.Load()
	var rate float64
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	var clusterStats *ClusterStats
	if s.clu != nil {
		ring := s.ring()
		clusterStats = &ClusterStats{
			Self:              s.clu.Self,
			Nodes:             ring.Nodes(),
			Epoch:             ring.Epoch(),
			Counter:           ring.Counter(),
			PeerFetchOK:       s.stats.peerFetchOKN.Load(),
			PeerFetchFailed:   s.stats.peerFetchFailN.Load(),
			PeerFetchSkipped:  s.stats.peerFetchSkipN.Load(),
			PeerServed:        s.stats.peerServedN.Load(),
			ReplicatedIn:      s.stats.replicatedInN.Load(),
			ReplicatedOut:     s.stats.replicatedOutN.Load(),
			DegradedJobs:      s.stats.degradedJobN.Load(),
			PushbackDone:      s.stats.pushbackDoneN.Load(),
			PushbackFailed:    s.stats.pushbackFailedN.Load(),
			PeerBreakerOpen:   s.peerBreaker.OpenCount(),
			PeerBreakerOpened: s.peerBreaker.Opened(),
			PeerBreakerClosed: s.peerBreaker.Closed(),
			PeerBreakerStates: s.peerBreaker.States(),
			MembershipUpdates: s.stats.membershipN.Load(),
			EpochConflicts:    s.stats.epochConflictN.Load(),
			RehydratePending:  max(0, s.stats.rehydratePendingN.Load()),
			RehydrateDone:     s.stats.rehydrateDoneN.Load(),
			RehydrateFailed:   s.stats.rehydrateFailedN.Load(),
			HandoffDone:       s.stats.handoffDoneN.Load(),
			HandoffFailed:     s.stats.handoffFailedN.Load(),
		}
	}
	return StatsView{
		Status:       status,
		UptimeMS:     float64(time.Since(s.started).Microseconds()) / 1000,
		Workers:      s.engine.Workers(),
		Runners:      s.cfg.Runners,
		QueueCap:     s.cfg.QueueDepth,
		QueueDepth:   s.sched.depth(),
		Running:      s.sched.active(),
		Accepted:     s.stats.acceptedN.Load(),
		Completed:    s.stats.completedN.Load(),
		Failed:       s.stats.failedN.Load(),
		Rejected:     s.stats.rejectedN.Load(),
		Canceled:     s.stats.canceledN.Load(),
		Deduplicated: s.stats.dedupedN.Load(),
		SearchJobs:   s.stats.searchJobsN.Load(),
		SearchTries:  s.stats.searchTryN.Load(),
		PersistErrs:  s.stats.persistErrN.Load(),
		Cache: CacheStats{
			Entries:  s.cache.Len(),
			Capacity: s.cfg.CacheEntries,
			Hits:     hits,
			Misses:   misses,
			HitRate:  rate,
		},
		Cluster: clusterStats,
		Methods: s.stats.methodSummaries(),
	}
}
