package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Router is the stateless front of a shard cluster: it owns no jobs, no
// cache, and no queue — only the ring. POST /jobs hashes the
// canonicalized spec to its cache key, proxies the submission to the
// owning shard, and fails over along the key's replica set when a shard
// is unreachable or sheds load (503, which is also what a draining
// shard answers, making single-shard shutdown lossless for clients).
// Job ids returned to clients are prefixed with a stable 8-hex-digit
// hash of the owning shard's address ("s1f3a9c2e-j-00000001"), so every
// later GET/DELETE routes back to the shard that owns the job without
// the router keeping any state — and, because the prefix names the
// shard rather than its position in the sorted -shards list, an id
// minted before a membership change either still resolves to the same
// shard or fails with 404, never silently routing to a different one.
// /stats merges
// every shard's stats into one rolled-up view; /stats/ring exposes the
// ownership arcs; /readyz aggregates shard readiness.
//
// Because the ring is a pure function of the member list, any number of
// router processes over the same member set route identically; routers
// can be added, restarted, or load-balanced freely. With live
// membership (a MemberSet backed by internal/cluster/membership), the
// member list itself can change under a running router: every routed
// submission carries the router's ring epoch (EpochHeader), a shard
// that disagrees answers a structured 409, and the router resolves it
// by adopting the newer view (or pushing its own to the stale shard)
// and retrying — the mid-change window costs one extra hop, never a
// wrong-shard answer.
type Router struct {
	members MemberSet
	// CorpusHashes maps corpus instance names to matrix hashes; built by
	// the caller from the same corpus options the shards run with.
	corpusHashes map[string]string
	client       *http.Client
	secret       string

	// nodeByID/idByNode map between members and the stable shard ids
	// carried in job-id prefixes. Departed members are retained (grace):
	// a client's trailing poll for a job minted on a shard that just
	// planned-left still routes to that shard's lingering listener
	// instead of 404ing. Membership churn is operator-rate, so the
	// retained set stays tiny over any router's lifetime.
	idmu     sync.RWMutex
	idEpoch  string // ring epoch the maps were last synced at
	nodeByID map[string]string
	idByNode map[string]string

	// breaker tracks per-shard health; backoff paces retry passes and
	// hedgeDelay arms duplicate GETs for slow idempotent reads.
	breaker    *Breaker
	backoff    Backoff
	hedgeDelay time.Duration

	forwarded    atomic.Int64 // proxied job submissions (first attempt per request)
	failovers    atomic.Int64 // submissions retried on the next replica
	proxyErrs    atomic.Int64 // requests that exhausted every candidate
	epochRetries atomic.Int64 // submissions re-run after an epoch 409
	refreshes    atomic.Int64 // membership views adopted (poll or 409)
	retries      atomic.Int64 // backoff'd re-attempts (submit passes + read retries)
	degraded     atomic.Int64 // submissions served by a non-owner shard
	hedges       atomic.Int64 // duplicate GETs fired for slow reads
	started      time.Time
}

// RouterConfig assembles a Router.
type RouterConfig struct {
	// Shards is the cluster's initial node list; must agree with the
	// -peers list the shards themselves run with (order-insensitive).
	// Ignored when Members is set.
	Shards []string
	// Members, when set, is the dynamic member set the router routes
	// over (an internal/cluster/membership.Set wired by the serving
	// command); when nil the router runs over a static ring built from
	// Shards, the pre-membership behavior.
	Members MemberSet
	// VNodes and Replicas size the ring; zero values select defaults
	// (DefaultVNodes, 2).
	VNodes   int
	Replicas int
	// CorpusHashes maps named corpus instances to their matrix hashes so
	// the router can key corpus jobs without materializing matrices.
	CorpusHashes map[string]string
	// Client overrides the proxy HTTP client entirely (tests). When nil
	// the router builds one with per-attempt dial/response-header
	// timeouts and no overall deadline, so a slow shard fails fast at
	// connect/first-header time while a long result stream is never cut
	// mid-body.
	Client *http.Client
	// DialTimeout and HeaderTimeout bound each proxy attempt when Client
	// is nil; zero values select DefaultDialTimeout/DefaultHeaderTimeout.
	DialTimeout   time.Duration
	HeaderTimeout time.Duration
	// WrapTransport, when set, wraps the built client's transport — the
	// fault-injection hook. Ignored when Client is set.
	WrapTransport func(http.RoundTripper) http.RoundTripper
	// Breaker tunes the per-shard circuit breaker (zero = defaults).
	Breaker BreakerConfig
	// RetryBackoff paces replica-set retry passes and read retries
	// (zero = defaults).
	RetryBackoff Backoff
	// HedgeDelay arms a duplicate GET when an idempotent read has not
	// answered within this delay; 0 selects DefaultHedgeDelay, negative
	// disables hedging.
	HedgeDelay time.Duration
	// Secret authenticates the router's membership fetches and sync
	// announcements to shards (the same -cluster-secret the shards run
	// with). Routed job traffic itself never needs it.
	Secret string
}

// Default per-attempt proxy timeouts and hedging delay.
const (
	DefaultDialTimeout   = 2 * time.Second
	DefaultHeaderTimeout = 30 * time.Second
	DefaultHedgeDelay    = 200 * time.Millisecond
)

// NewRouter builds the router and its ring.
func NewRouter(cfg RouterConfig) (*Router, error) {
	members := cfg.Members
	if members == nil {
		replicas := cfg.Replicas
		if replicas <= 0 {
			replicas = 2
		}
		ring, err := NewRing(cfg.Shards, cfg.VNodes, replicas)
		if err != nil {
			return nil, err
		}
		members = staticSet{ring: ring}
	}
	client := cfg.Client
	if client == nil {
		dial := cfg.DialTimeout
		if dial <= 0 {
			dial = DefaultDialTimeout
		}
		header := cfg.HeaderTimeout
		if header <= 0 {
			header = DefaultHeaderTimeout
		}
		var base http.RoundTripper = &http.Transport{
			DialContext:           (&net.Dialer{Timeout: dial}).DialContext,
			ResponseHeaderTimeout: header,
			MaxIdleConnsPerHost:   16,
			IdleConnTimeout:       90 * time.Second,
		}
		if cfg.WrapTransport != nil {
			base = cfg.WrapTransport(base)
		}
		client = &http.Client{Transport: base}
	}
	hedge := cfg.HedgeDelay
	if hedge == 0 {
		hedge = DefaultHedgeDelay
	}
	if hedge < 0 {
		hedge = 0
	}
	rt := &Router{
		members:      members,
		corpusHashes: cfg.CorpusHashes,
		client:       client,
		secret:       cfg.Secret,
		breaker:      NewBreaker(cfg.Breaker),
		backoff:      cfg.RetryBackoff,
		hedgeDelay:   hedge,
		nodeByID:     make(map[string]string),
		idByNode:     make(map[string]string),
		started:      time.Now(),
	}
	rt.snapshot()
	return rt, nil
}

// Ring returns the router's current ring (for tests and the serving
// command).
func (rt *Router) Ring() *Ring { return rt.members.Ring() }

// snapshot returns the current ring and lazily syncs the shard-id maps
// to it. Current members are (re)added and departed ones retained, so
// ids minted before a membership change keep resolving to the shard
// that owns them.
func (rt *Router) snapshot() *Ring {
	ring := rt.members.Ring()
	epoch := ring.Epoch()
	rt.idmu.RLock()
	synced := rt.idEpoch == epoch
	rt.idmu.RUnlock()
	if synced {
		return ring
	}
	rt.idmu.Lock()
	if rt.idEpoch != epoch {
		for _, n := range ring.Nodes() {
			id := ShardID(n)
			rt.nodeByID[id] = n
			rt.idByNode[n] = id
		}
		rt.idEpoch = epoch
	}
	rt.idmu.Unlock()
	return ring
}

// RefreshMembership pulls the membership view from the first reachable
// member and adopts it if newer. The serving command calls it on a poll
// interval; the 409 path (resolveEpoch) handles the same convergence
// reactively, so polling is a freshness floor, not a correctness
// requirement.
func (rt *Router) RefreshMembership(ctx context.Context) error {
	ring := rt.members.Ring()
	var lastErr error
	for _, node := range ring.Nodes() {
		st, err := FetchMembers(ctx, rt.client, node, rt.secret)
		if err != nil {
			lastErr = err
			continue
		}
		adopted, err := rt.members.Propose(st.Members, st.Counter)
		if err != nil {
			lastErr = err
			continue
		}
		if adopted {
			rt.refreshes.Add(1)
			log.Printf("router: adopted membership %s from %s (%d members)", st.Epoch, node, len(st.Members))
		}
		return nil
	}
	return lastErr
}

// resolveEpoch reconciles an epoch 409 from a shard: adopt the shard's
// view when it is ahead, or push our own view back when the shard is
// the stale side (a "sync" announcement — adoption on the shard is
// counter-ordered, so this is safe to send unconditionally).
func (rt *Router) resolveEpoch(ctx context.Context, node string, em EpochMismatch) {
	cur := rt.members.Ring()
	if em.Counter > cur.Counter() {
		if adopted, err := rt.members.Propose(em.Members, em.Counter); err == nil {
			if adopted {
				rt.refreshes.Add(1)
				log.Printf("router: adopted membership %s from %s via 409 (%d members)", em.Epoch, node, len(em.Members))
			}
			return
		}
	}
	st := StateOf(cur)
	if _, _, err := AnnounceMembership(ctx, rt.client, node, rt.secret,
		Announcement{Action: "sync", Members: st.Members, Counter: st.Counter}); err != nil {
		log.Printf("router: membership sync to stale shard %s failed: %v", node, err)
	}
}

// maxRouterBody mirrors the shard's submission bound.
const maxRouterBody = 64 << 20

// Handler returns the router's HTTP API: the shard API surface proxied
// by ownership, plus the router's own health, readiness, and merged
// stats endpoints.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", rt.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", rt.handleJobProxy)
	mux.HandleFunc("DELETE /jobs/{id}", rt.handleJobProxy)
	mux.HandleFunc("GET /jobs/{id}/result", rt.handleResultProxy)
	mux.HandleFunc("GET /corpus", rt.handleCorpus)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /readyz", rt.handleReadyz)
	mux.HandleFunc("GET /stats", rt.handleStats)
	mux.HandleFunc("GET /stats/ring", rt.handleRing)
	return mux
}

type routerError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// shardIDLen is the hex length of a shard id in job-id prefixes.
const shardIDLen = 8

// ShardID is the stable identity a shard carries in router job-id
// prefixes: the leading 8 hex digits of a versioned hash of the
// normalized node address. Unlike a position in the sorted -shards
// list, it does not shift when the shard set changes across a router
// restart — an old id either resolves to the same shard or to no
// current member at all, which the router rejects detectably.
func ShardID(node string) string {
	sum := sha256.Sum256([]byte("mgshardid/1|" + NormalizeNode(node)))
	return hex.EncodeToString(sum[:shardIDLen/2])
}

// prefixID namespaces a shard-local job id with the shard's stable id.
func prefixID(shardID, id string) string {
	return "s" + shardID + "-" + id
}

// splitID parses a router job id back into (shard id, shard-local id).
func splitID(id string) (string, string, bool) {
	rest, ok := strings.CutPrefix(id, "s")
	if !ok {
		return "", "", false
	}
	sid, local, ok := strings.Cut(rest, "-")
	if !ok || len(sid) != shardIDLen || local == "" {
		return "", "", false
	}
	for i := 0; i < len(sid); i++ {
		c := sid[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return "", "", false
		}
	}
	return sid, local, true
}

// rewriteID re-encodes a shard job-view response with the id field
// prefixed, so clients always talk to the router in router ids.
func rewriteID(body []byte, shardID string) []byte {
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		return body
	}
	id, ok := m["id"].(string)
	if !ok {
		return body
	}
	m["id"] = prefixID(shardID, id)
	out, err := json.Marshal(m)
	if err != nil {
		return body
	}
	return out
}

// retriable reports whether a shard response justifies failing over to
// the next replica: unreachable, or shedding/draining (503). Anything
// else — including a 400 — is the authoritative answer for the spec.
func retriable(resp *http.Response, err error) bool {
	if err != nil {
		return true
	}
	return resp.StatusCode == http.StatusServiceUnavailable ||
		resp.StatusCode == http.StatusBadGateway
}

func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRouterBody))
	if err != nil {
		writeJSON(w, http.StatusRequestEntityTooLarge, routerError{Error: err.Error()})
		return
	}
	var spec JobSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		writeJSON(w, http.StatusBadRequest, routerError{Error: "decoding job spec: " + err.Error()})
		return
	}
	key, err := RouteKey(spec, func(name string) (string, bool) {
		h, ok := rt.corpusHashes[name]
		return h, ok
	})
	if err != nil {
		writeJSON(w, http.StatusBadRequest, routerError{Error: "service: bad job spec: " + err.Error()})
		return
	}
	rt.forwarded.Add(1)
	var lastErr string
	attempted := 0
	// Outer loop: epoch reconciliation. A structured 409 from a shard
	// restarts the whole attempt on the refreshed ring (the key's replica
	// set may have changed); anything else resolves within one iteration.
	for epochTry := 0; epochTry < maxEpochRetries; epochTry++ {
		if epochTry > 0 {
			rt.epochRetries.Add(1)
		}
		ring := rt.snapshot()
		epoch := ring.Epoch()
		replicas := ring.Replicas(key)
		// Replica passes: walk the owner set, skipping open circuits,
		// with one backoff'd retry pass — enough to ride out a shard
		// restart or a shed burst without stacking client latency.
		out := submitFailed
		for pass := 0; pass < submitPasses; pass++ {
			var tried int
			out, tried = rt.tryCandidates(w, r, body, epoch, replicas, false, &lastErr, &attempted)
			if out != submitFailed {
				break
			}
			if tried == 0 {
				// Every replica is open-circuit: nothing to wait for,
				// degrade immediately.
				break
			}
			if pass+1 < submitPasses {
				if !SleepCtx(r.Context(), rt.backoff.Delay(pass, key)) {
					break
				}
				rt.retries.Add(1)
			}
		}
		if out == submitDone {
			return
		}
		if out == submitEpoch {
			continue
		}
		// Degraded mode: the whole owner set is down or open-circuit, but
		// results are content-addressed, so any live shard can compute
		// the key. The non-owner pushes the entry back to the owner set
		// when it recovers (service-side pushback), so degradation costs
		// placement, not correctness.
		var fallback []string
		for _, n := range ring.Nodes() {
			if !slices.Contains(replicas, n) {
				fallback = append(fallback, n)
			}
		}
		out, _ = rt.tryCandidates(w, r, body, epoch, fallback, true, &lastErr, &attempted)
		if out == submitDone {
			return
		}
		if out == submitEpoch {
			continue
		}
		break
	}
	rt.proxyErrs.Add(1)
	rt.setRetryAfter(w)
	writeJSON(w, http.StatusServiceUnavailable,
		routerError{Error: "no shard reachable for submission: " + lastErr})
}

// maxEpochRetries bounds submissions re-run after epoch 409s: each
// retry either runs on a strictly newer adopted ring or follows a sync
// push to the one stale shard, so disagreement longer than this means
// the cluster itself has not converged and 503 is the honest answer.
const maxEpochRetries = 3

// submitPasses is the per-request retry budget over the replica set:
// the initial pass plus one backoff'd retry pass.
const submitPasses = 2

// submitOutcome is tryCandidates' verdict for one candidate walk.
type submitOutcome int

const (
	submitFailed submitOutcome = iota // every candidate skipped or retriable-failed
	submitDone                        // response written (success or authoritative error)
	submitEpoch                       // epoch 409: caller restarts on the refreshed ring
)

// tryCandidates walks nodes in order, skipping open circuits, and
// proxies the submission to the first one that gives an authoritative
// answer. It reports every exchange outcome into the breaker. tried
// counts candidates actually contacted (0 = everything was open-circuit).
func (rt *Router) tryCandidates(w http.ResponseWriter, r *http.Request, body []byte, epoch string, nodes []string, degraded bool, lastErr *string, attempted *int) (out submitOutcome, tried int) {
	for _, node := range nodes {
		if !rt.breaker.Allow(node) {
			*lastErr = "shard " + node + " circuit open"
			continue
		}
		if *attempted > 0 {
			rt.failovers.Add(1)
		}
		*attempted++
		tried++
		req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, NodeURL(node)+"/jobs", bytes.NewReader(body))
		if err != nil {
			*lastErr = err.Error()
			rt.breaker.Success(node) // not the node's fault; release the probe slot
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(EpochHeader, epoch)
		resp, err := rt.client.Do(req)
		if retriable(resp, err) {
			rt.breaker.Failure(node)
			if err != nil {
				*lastErr = err.Error()
			} else {
				*lastErr = fmt.Sprintf("shard %s answered %d", node, resp.StatusCode)
				resp.Body.Close()
			}
			continue
		}
		rt.breaker.Success(node)
		respBody, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			rt.proxyErrs.Add(1)
			writeJSON(w, http.StatusBadGateway, routerError{Error: err.Error()})
			return submitDone, tried
		}
		if resp.StatusCode == http.StatusConflict {
			var em EpochMismatch
			if json.Unmarshal(respBody, &em) == nil && em.RingEpochMismatch {
				*lastErr = fmt.Sprintf("shard %s at epoch %s, router at %s", node, em.Epoch, epoch)
				rt.resolveEpoch(r.Context(), node, em)
				return submitEpoch, tried
			}
		}
		if degraded && resp.StatusCode < 300 {
			rt.degraded.Add(1)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(resp.StatusCode)
		w.Write(rewriteID(respBody, rt.shardID(node)))
		return submitDone, tried
	}
	return submitFailed, tried
}

// setRetryAfter tells a refused client when trying again can actually
// help: the earliest half-open probe horizon when circuits are open,
// else the 1s transient default.
func (rt *Router) setRetryAfter(w http.ResponseWriter) {
	ra := 1
	if d := rt.breaker.RetryAfter(); d > 0 {
		if s := int(math.Ceil(d.Seconds())); s > ra {
			ra = s
		}
	}
	w.Header().Set("Retry-After", strconv.Itoa(ra))
}

// shardID returns the stable id for a node, consulting (and populating)
// the retained map.
func (rt *Router) shardID(node string) string {
	rt.idmu.RLock()
	id, ok := rt.idByNode[node]
	rt.idmu.RUnlock()
	if ok {
		return id
	}
	id = ShardID(node)
	rt.idmu.Lock()
	rt.idByNode[node] = id
	rt.nodeByID[id] = node
	rt.idmu.Unlock()
	return id
}

// shardForID resolves the shard id encoded in a router job id and
// returns (shard id, node, shard-local id); ok is false after it has
// already written an error response. Because a shard id is a hash of
// the node address, an id can only ever resolve to the shard that
// minted it; ids of current members and of recently departed ones
// (retained in the grace map, still answering on their -linger
// listener) resolve, anything else 404s — never a silent reroute to a
// different shard.
func (rt *Router) shardForID(w http.ResponseWriter, id string) (string, string, string, bool) {
	rt.snapshot() // make sure the id maps cover the current membership
	sid, local, ok := splitID(id)
	rt.idmu.RLock()
	node, known := rt.nodeByID[sid]
	rt.idmu.RUnlock()
	if !ok || !known {
		writeJSON(w, http.StatusNotFound, routerError{
			Error: "unknown job id (router ids look like s1f3a9c2e-j-00000001; the id's shard must be a current or recently departed ring member)",
		})
		return "", "", "", false
	}
	return sid, node, local, true
}

func (rt *Router) handleJobProxy(w http.ResponseWriter, r *http.Request) {
	sid, node, local, ok := rt.shardForID(w, r.PathValue("id"))
	if !ok {
		return
	}
	resp, err := rt.proxyRead(r, node, "/jobs/"+local, r.Method)
	if err != nil {
		rt.proxyErrs.Add(1)
		rt.setRetryAfter(w)
		writeJSON(w, http.StatusBadGateway, routerError{Error: fmt.Sprintf("shard %s unreachable: %v", node, err)})
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		rt.proxyErrs.Add(1)
		writeJSON(w, http.StatusBadGateway, routerError{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.StatusCode)
	w.Write(rewriteID(body, sid))
}

func (rt *Router) handleResultProxy(w http.ResponseWriter, r *http.Request) {
	_, node, local, ok := rt.shardForID(w, r.PathValue("id"))
	if !ok {
		return
	}
	resp, err := rt.proxyRead(r, node, "/jobs/"+local+"/result", http.MethodGet)
	if err != nil {
		rt.proxyErrs.Add(1)
		rt.setRetryAfter(w)
		writeJSON(w, http.StatusBadGateway, routerError{Error: fmt.Sprintf("shard %s unreachable: %v", node, err)})
		return
	}
	defer resp.Body.Close()
	// Streamed through untouched: the result body carries the whole
	// per-nonzero parts vector, and no follow-up request is addressed by
	// the id inside it.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// proxyReadRetries is the extra-attempt budget for pinned reads.
const proxyReadRetries = 2

// proxyRead performs a job-pinned read or cancel. Unlike submissions it
// cannot fail over — the job's state lives on exactly one shard — so it
// retries the same node on transient failures (transport errors,
// 502/503: a shard never answers 503 about a job it knows, so that can
// only be shedding middleware or an injected fault) with backoff, and
// hedges slow GETs with a duplicate request. Outcomes feed the breaker,
// but an open circuit does not block the read: it is this node or
// nothing.
func (rt *Router) proxyRead(r *http.Request, node, path, method string) (*http.Response, error) {
	var lastErr error
	for attempt := 0; attempt <= proxyReadRetries; attempt++ {
		if attempt > 0 {
			if !SleepCtx(r.Context(), rt.backoff.Delay(attempt-1, path)) {
				break
			}
			rt.retries.Add(1)
		}
		resp, err := rt.readOnce(r, node, path, method)
		if err != nil {
			rt.breaker.Failure(node)
			lastErr = err
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusBadGateway {
			rt.breaker.Failure(node)
			lastErr = fmt.Errorf("shard %s answered %d", node, resp.StatusCode)
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			continue
		}
		rt.breaker.Success(node)
		return resp, nil
	}
	return nil, lastErr
}

// readOnce issues one read attempt, hedged for GETs: when the first
// request has not answered within hedgeDelay, a duplicate is fired and
// the first success wins (the loser is drained in the background).
func (rt *Router) readOnce(r *http.Request, node, path, method string) (*http.Response, error) {
	mk := func() (*http.Response, error) {
		req, err := http.NewRequestWithContext(r.Context(), method, NodeURL(node)+path, nil)
		if err != nil {
			return nil, err
		}
		return rt.client.Do(req)
	}
	if method != http.MethodGet || rt.hedgeDelay <= 0 {
		return mk()
	}
	type reply struct {
		resp *http.Response
		err  error
	}
	ch := make(chan reply, 2)
	launch := func() {
		go func() {
			resp, err := mk()
			ch <- reply{resp, err}
		}()
	}
	launch()
	launched, got := 1, 0
	timer := time.NewTimer(rt.hedgeDelay)
	defer timer.Stop()
	for {
		select {
		case rep := <-ch:
			got++
			if rep.err == nil {
				if pending := launched - got; pending > 0 {
					go func() {
						for i := 0; i < pending; i++ {
							if late := <-ch; late.resp != nil {
								io.Copy(io.Discard, io.LimitReader(late.resp.Body, 1<<20))
								late.resp.Body.Close()
							}
						}
					}()
				}
				return rep.resp, nil
			}
			if got == launched {
				return nil, rep.err
			}
			// One attempt failed while another is still in flight: wait
			// for the survivor.
		case <-timer.C:
			if launched < 2 {
				launched++
				rt.hedges.Add(1)
				launch()
			}
		}
	}
}

func (rt *Router) handleCorpus(w http.ResponseWriter, r *http.Request) {
	for _, node := range rt.members.Ring().Nodes() {
		resp, err := rt.client.Get(NodeURL(node) + "/corpus")
		if err != nil {
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(body)
		return
	}
	rt.proxyErrs.Add(1)
	writeJSON(w, http.StatusBadGateway, routerError{Error: "no shard reachable for /corpus"})
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	// The router itself is stateless: alive means healthy. Shard health
	// is /readyz's business.
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// shardReady is one shard's row in the router's readiness view.
type shardReady struct {
	Node  string `json:"node"`
	Ready bool   `json:"ready"`
	Error string `json:"error,omitempty"`
}

func (rt *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	nodes := rt.members.Ring().Nodes()
	rows := make([]shardReady, len(nodes))
	var wg sync.WaitGroup
	for i, node := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows[i] = shardReady{Node: node}
			resp, err := rt.client.Get(NodeURL(node) + "/readyz")
			if err != nil {
				rows[i].Error = err.Error()
				return
			}
			resp.Body.Close()
			rows[i].Ready = resp.StatusCode == http.StatusOK
			if !rows[i].Ready {
				rows[i].Error = fmt.Sprintf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	all := true
	for _, r := range rows {
		all = all && r.Ready
	}
	status := http.StatusOK
	if !all {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{"ready": all, "shards": rows})
}

// shardStatsLite decodes the subset of a shard's /stats the router
// totals up; the full raw JSON still rides in the merged view.
type shardStatsLite struct {
	QueueDepth int   `json:"queue_depth"`
	Running    int64 `json:"running"`
	Accepted   int64 `json:"accepted"`
	Completed  int64 `json:"completed"`
	Failed     int64 `json:"failed"`
	Rejected   int64 `json:"rejected"`
	Canceled   int64 `json:"canceled"`
	Dedup      int64 `json:"deduplicated"`
	Cache      struct {
		Entries int   `json:"entries"`
		Hits    int64 `json:"hits"`
		Misses  int64 `json:"misses"`
	} `json:"cache"`
	Cluster struct {
		PeerFetchOK     int64 `json:"peer_fetch_ok"`
		PeerFetchFailed int64 `json:"peer_fetch_failed"`
		PeerServed      int64 `json:"peer_served"`
		ReplicatedIn    int64 `json:"replicated_in"`
		ReplicatedOut   int64 `json:"replicated_out"`
		DegradedJobs    int64 `json:"degraded_jobs"`
		PushbackDone    int64 `json:"pushback_done"`
		PushbackFailed  int64 `json:"pushback_failed"`
		RehydrateDone   int64 `json:"rehydrate_done"`
		RehydrateFailed int64 `json:"rehydrate_failed"`
		HandoffDone     int64 `json:"handoff_done"`
		HandoffFailed   int64 `json:"handoff_failed"`
	} `json:"cluster"`
}

// MergedTotals is the rolled-up cross-shard section of the router's
// /stats: each field is the sum over every reachable shard.
type MergedTotals struct {
	Shards          int     `json:"shards"`
	ShardsReachable int     `json:"shards_reachable"`
	QueueDepth      int     `json:"queue_depth"`
	Running         int64   `json:"running"`
	Accepted        int64   `json:"accepted"`
	Completed       int64   `json:"completed"`
	Failed          int64   `json:"failed"`
	Rejected        int64   `json:"rejected"`
	Canceled        int64   `json:"canceled"`
	Deduplicated    int64   `json:"deduplicated"`
	CacheEntries    int     `json:"cache_entries"`
	CacheHits       int64   `json:"cache_hits"`
	CacheMisses     int64   `json:"cache_misses"`
	HitRate         float64 `json:"hit_rate"`
	PeerFetchOK     int64   `json:"peer_fetch_ok"`
	PeerFetchFailed int64   `json:"peer_fetch_failed"`
	PeerServed      int64   `json:"peer_served"`
	ReplicatedIn    int64   `json:"replicated_in"`
	ReplicatedOut   int64   `json:"replicated_out"`
	DegradedJobs    int64   `json:"degraded_jobs"`
	PushbackDone    int64   `json:"pushback_done"`
	PushbackFailed  int64   `json:"pushback_failed"`
	RehydrateDone   int64   `json:"rehydrate_done"`
	RehydrateFailed int64   `json:"rehydrate_failed"`
	HandoffDone     int64   `json:"handoff_done"`
	HandoffFailed   int64   `json:"handoff_failed"`
}

// shardStatsRow pairs a shard with its raw /stats snapshot.
type shardStatsRow struct {
	Node  string          `json:"node"`
	OK    bool            `json:"ok"`
	Error string          `json:"error,omitempty"`
	Stats json.RawMessage `json:"stats,omitempty"`
}

// RouterStats is the router's own counter section.
type RouterStats struct {
	UptimeMS            float64 `json:"uptime_ms"`
	Forwarded           int64   `json:"forwarded"`
	Failovers           int64   `json:"failovers"`
	ProxyErrors         int64   `json:"proxy_errors"`
	RingEpoch           string  `json:"ring_epoch"`
	Members             int     `json:"members"`
	EpochRetries        int64   `json:"epoch_retries"`
	MembershipRefreshes int64   `json:"membership_refreshes"`
	// Resilience counters: backoff'd re-attempts, submissions served by
	// a non-owner shard while the whole owner set was open-circuit,
	// duplicate GETs hedged for slow reads, and the breaker's live and
	// lifetime transition counts.
	Retries        int64             `json:"retries"`
	DegradedServed int64             `json:"degraded_served"`
	Hedges         int64             `json:"hedged_requests"`
	BreakerOpen    int               `json:"breaker_open"`
	BreakerOpened  int64             `json:"breaker_opened"`
	BreakerClosed  int64             `json:"breaker_closed"`
	BreakerStates  map[string]string `json:"breaker_states,omitempty"`
}

// MergedStats is the /stats JSON of the router: per-shard raw stats,
// cross-shard totals, and the router's own counters.
type MergedStats struct {
	Status string          `json:"status"`
	Shards []shardStatsRow `json:"shards"`
	Totals MergedTotals    `json:"totals"`
	Router RouterStats     `json:"router"`
}

// Stats fetches every shard's /stats concurrently and merges them.
func (rt *Router) Stats() MergedStats {
	nodes := rt.members.Ring().Nodes()
	rows := make([]shardStatsRow, len(nodes))
	var wg sync.WaitGroup
	for i, node := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows[i] = shardStatsRow{Node: node}
			resp, err := rt.client.Get(NodeURL(node) + "/stats")
			if err != nil {
				rows[i].Error = err.Error()
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				rows[i].Error = fmt.Sprintf("status %d", resp.StatusCode)
				return
			}
			rows[i].OK = true
			rows[i].Stats = body
		}()
	}
	wg.Wait()

	totals := MergedTotals{Shards: len(nodes)}
	for _, row := range rows {
		if !row.OK {
			continue
		}
		var s shardStatsLite
		if err := json.Unmarshal(row.Stats, &s); err != nil {
			continue
		}
		totals.ShardsReachable++
		totals.QueueDepth += s.QueueDepth
		totals.Running += s.Running
		totals.Accepted += s.Accepted
		totals.Completed += s.Completed
		totals.Failed += s.Failed
		totals.Rejected += s.Rejected
		totals.Canceled += s.Canceled
		totals.Deduplicated += s.Dedup
		totals.CacheEntries += s.Cache.Entries
		totals.CacheHits += s.Cache.Hits
		totals.CacheMisses += s.Cache.Misses
		totals.PeerFetchOK += s.Cluster.PeerFetchOK
		totals.PeerFetchFailed += s.Cluster.PeerFetchFailed
		totals.PeerServed += s.Cluster.PeerServed
		totals.ReplicatedIn += s.Cluster.ReplicatedIn
		totals.ReplicatedOut += s.Cluster.ReplicatedOut
		totals.DegradedJobs += s.Cluster.DegradedJobs
		totals.PushbackDone += s.Cluster.PushbackDone
		totals.PushbackFailed += s.Cluster.PushbackFailed
		totals.RehydrateDone += s.Cluster.RehydrateDone
		totals.RehydrateFailed += s.Cluster.RehydrateFailed
		totals.HandoffDone += s.Cluster.HandoffDone
		totals.HandoffFailed += s.Cluster.HandoffFailed
	}
	if n := totals.CacheHits + totals.CacheMisses; n > 0 {
		totals.HitRate = float64(totals.CacheHits) / float64(n)
	}
	breakerOpen := rt.breaker.OpenCount()
	status := "ok"
	if totals.ShardsReachable < totals.Shards || breakerOpen > 0 {
		status = "degraded"
	}
	return MergedStats{
		Status: status,
		Shards: rows,
		Totals: totals,
		Router: RouterStats{
			UptimeMS:            float64(time.Since(rt.started).Microseconds()) / 1000,
			Forwarded:           rt.forwarded.Load(),
			Failovers:           rt.failovers.Load(),
			ProxyErrors:         rt.proxyErrs.Load(),
			RingEpoch:           rt.members.Ring().Epoch(),
			Members:             len(rt.members.Ring().Nodes()),
			EpochRetries:        rt.epochRetries.Load(),
			MembershipRefreshes: rt.refreshes.Load(),
			Retries:             rt.retries.Load(),
			DegradedServed:      rt.degraded.Load(),
			Hedges:              rt.hedges.Load(),
			BreakerOpen:         breakerOpen,
			BreakerOpened:       rt.breaker.Opened(),
			BreakerClosed:       rt.breaker.Closed(),
			BreakerStates:       rt.breaker.States(),
		},
	}
}

func (rt *Router) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, rt.Stats())
}

func (rt *Router) handleRing(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, rt.snapshot().View())
}
