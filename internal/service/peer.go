package service

import (
	"context"
	"crypto/subtle"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"mediumgrain/internal/cluster"
	"mediumgrain/internal/sparse"
)

// Peer cache-entry exchange: the shard-to-shard half of cluster mode.
// On a local miss a shard asks the key's other ring replicas for their
// persisted entry (GET /cache/{key}, a tar-framed distio bundle + meta)
// while it computes; entries that cross the configured hit threshold are
// pushed to the key's other replicas (PUT /cache/{key}) so hot keys are
// answerable by every replica. Every adopted entry — fetched or pushed —
// passes the same validation as cache rehydration plus a re-derivation
// of the cache key from the entry's own fields, so a corrupt, truncated,
// or mislabeled transfer can never poison a cache: it is rejected and
// the shard falls back to computing. When the cluster is configured
// with a shared secret, both endpoints additionally require it in the
// X-Mediumgrain-Secret header — validation alone cannot tell a peer's
// entry from an outsider's self-consistent fabrication.

// peerHeader carries the sending shard's ring identity on a replication
// PUT, recorded as the adopted entry's Origin.
const peerHeader = "X-Mediumgrain-Peer"

// secretHeader carries the cluster's shared secret on every peer
// cache-exchange and membership request when ShardConfig.Secret is set.
const secretHeader = cluster.SecretHeader

// peerAuthorized checks the shared-secret header against the configured
// cluster secret (constant-time). With no secret configured the
// endpoints are open and the operator is trusting the network.
func (s *Server) peerAuthorized(r *http.Request) bool {
	if s.clu.Secret == "" {
		return true
	}
	return subtle.ConstantTimeCompare([]byte(r.Header.Get(secretHeader)), []byte(s.clu.Secret)) == 1
}

// checkCacheKey gates every /cache/{key} handler: ServeMux delivers the
// path segment percent-decoded, so without this an escaped "../" in the
// URL becomes a real path traversal the moment the key is joined onto a
// directory. Only the exact CacheKey shape (32 hex digits) passes; the
// helper writes the 400/401 itself and reports whether to proceed.
func (s *Server) checkCacheKey(w http.ResponseWriter, r *http.Request, key string) bool {
	if !cluster.ValidKey(key) {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "malformed cache key (want 32 hex digits)"})
		return false
	}
	if !s.peerAuthorized(r) {
		writeJSON(w, http.StatusUnauthorized, errorBody{Error: "missing or wrong " + secretHeader + " header"})
		return false
	}
	return true
}

// Ready reports whether the shard has finished startup (cache
// rehydration, ring membership checks) and is not draining — the
// /readyz answer. Liveness (/healthz) stays true while draining so
// process supervisors don't kill a shard that is finishing its queue.
func (s *Server) Ready() bool { return s.ready.Load() }

// handleReadyz is the readiness probe: 200 once startup completed, 503
// before that and again as soon as a drain begins (so routers and load
// balancers stop sending new work while in-flight jobs finish).
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.Ready() {
		writeJSON(w, http.StatusOK, map[string]any{"ready": true})
		return
	}
	status := "starting"
	if s.draining.Load() {
		status = "draining"
	}
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "status": status})
}

// handleCacheGet exports one persisted entry as a tar stream. Only
// entries whose meta file exists are served — the meta-last persist
// ordering makes that the "bundle is complete" signal. persistMu is
// held only long enough to hard-link the files into a private snapshot
// dir; the tar (up to the 64MB matrix text) then streams lock-free, so
// a slow or concurrent peer fetch neither buffers the entry in memory
// nor stalls persists and eviction on this shard.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !s.checkCacheKey(w, r, key) {
		return
	}
	if s.cfg.DataDir == "" {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "shard runs without persistence"})
		return
	}
	snap, err := s.exportSnapshot(key)
	if errors.Is(err, fs.ErrNotExist) {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no persisted entry for key"})
		return
	}
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	defer os.RemoveAll(snap)
	w.Header().Set("Content-Type", "application/x-tar")
	w.WriteHeader(http.StatusOK)
	// Past this point an error can no longer change the status; the
	// receiver's validation treats a truncated tar as a failed fetch.
	_ = cluster.WriteEntryTar(w, snap, key)
}

// exportSnapshot pins a persisted entry for export: under persistMu it
// hard-links (falling back to copying) the entry's five files into a
// fresh .export-* dir inside DataDir, which eviction GC never touches.
// Callers stream from the snapshot without holding any lock and remove
// the dir when done; links make the common case five metadata ops, not
// a data copy. Returns fs.ErrNotExist when the entry is not persisted.
func (s *Server) exportSnapshot(key string) (string, error) {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	if _, err := os.Stat(filepath.Join(s.cfg.DataDir, key+".meta.json")); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(s.cfg.DataDir, ".export-*")
	if err != nil {
		return "", err
	}
	for _, name := range cluster.EntryFiles(key) {
		src := filepath.Join(s.cfg.DataDir, name)
		dst := filepath.Join(dir, name)
		if err := os.Link(src, dst); err != nil {
			if err = copyFile(src, dst); err != nil {
				os.RemoveAll(dir)
				return "", err
			}
		}
	}
	return dir, nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	_, err = io.Copy(out, in)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}

// handleCachePut adopts a replication push. Idempotent: a key already in
// the cache is acknowledged without re-reading the body's content (both
// sides of a pair may replicate to each other at once).
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !s.checkCacheKey(w, r, key) {
		return
	}
	if _, ok := s.cache.Get(key); ok {
		_, _ = io.Copy(io.Discard, r.Body)
		writeJSON(w, http.StatusOK, map[string]string{"status": "already cached"})
		return
	}
	from := r.Header.Get(peerHeader)
	if from == "" {
		from = r.RemoteAddr
	}
	res, matrix, err := s.adoptEntryTar(http.MaxBytesReader(w, r.Body, maxBodyBytes), key, from)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	s.keepResult(res, matrix)
	// Adopted entries never replicate onward: replication fans out from
	// the shard that observed the hits, one hop, no ping-pong.
	s.cache.MarkReplicated(key)
	s.stats.replicatedIn()
	writeJSON(w, http.StatusOK, map[string]string{"status": "adopted"})
}

// adoptEntryTar extracts a peer's tar-framed entry into a scratch
// directory and validates it like cache rehydration; among other checks,
// the cache key re-derived from the entry's own fields must equal the
// key it was transferred under, so a peer cannot (even accidentally)
// bind a valid entry to the wrong address.
func (s *Server) adoptEntryTar(r io.Reader, key, from string) (*CachedResult, *sparse.Matrix, error) {
	scratch, err := os.MkdirTemp("", "mgserve-peer-*")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(scratch)
	if err := cluster.ExtractEntryTar(r, scratch, key); err != nil {
		return nil, nil, err
	}
	res, matrix, err := loadCacheEntryMatrix(scratch, key)
	if err != nil {
		return nil, nil, err
	}
	res.Origin = "peer:" + from
	return res, matrix, nil
}

// tryPeerFetch asks the key's other ring replicas for a persisted entry
// while the job computes, calling found when a peer answers that it has
// one. First validated answer wins; every failed attempt (unreachable
// peer, 404, corrupt transfer) counts peer_fetch_failed and falls
// through — worst case the shard computes locally, exactly as if it had
// no peers. Peers whose circuit is open are skipped outright
// (peer_fetch_skipped), so a dead peer costs a few connect timeouts
// total, not one per cache miss.
func (s *Server) tryPeerFetch(ctx context.Context, rs *resolvedSpec, found func()) (*CachedResult, *sparse.Matrix, bool) {
	for _, node := range s.ring().Replicas(rs.key) {
		if node == s.clu.Self {
			continue
		}
		if !s.peerBreaker.Allow(node) {
			s.stats.peerFetchSkipped()
			continue
		}
		res, matrix, err := s.fetchEntry(ctx, node, rs.key, found)
		if err != nil {
			s.stats.peerFetchFailed()
			continue
		}
		s.stats.peerFetchOK()
		return res, matrix, true
	}
	return nil, nil, false
}

// notePeer classifies one peer exchange for the breaker: transport
// errors and 5xx answers are node-health failures; any other complete
// HTTP answer — a 404 for a missing entry, even a 200 whose body fails
// validation — proves the node alive and closes its circuit.
func (s *Server) notePeer(node string, err error, status int) {
	if err != nil || status >= 500 {
		s.peerBreaker.Failure(node)
		return
	}
	s.peerBreaker.Success(node)
}

// fetchFrom retrieves and validates one peer's entry for key.
func (s *Server) fetchFrom(ctx context.Context, node, key string) (*CachedResult, *sparse.Matrix, error) {
	return s.fetchEntry(ctx, node, key, func() {})
}

// fetchEntry is fetchFrom that calls found once the peer has answered
// 200, before the entry's transfer and validation. A request that failed
// because the caller canceled ctx (a DELETE of the job) is no verdict on
// the peer and leaves its circuit as it was; one cut by ctx's deadline
// counts as a failure, which is how a hung peer opens its circuit.
func (s *Server) fetchEntry(ctx context.Context, node, key string, found func()) (*CachedResult, *sparse.Matrix, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cluster.NodeURL(node)+"/cache/"+key, nil)
	if err != nil {
		return nil, nil, err
	}
	if s.clu.Secret != "" {
		req.Header.Set(secretHeader, s.clu.Secret)
	}
	resp, err := s.clu.Client.Do(req)
	if err != nil {
		if errors.Is(ctx.Err(), context.Canceled) {
			s.peerBreaker.Abandon(node)
		} else {
			s.notePeer(node, err, 0)
		}
		return nil, nil, err
	}
	defer resp.Body.Close()
	s.notePeer(node, nil, resp.StatusCode)
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("service: peer %s has no entry %s (status %d)", node, key, resp.StatusCode)
	}
	found()
	return s.adoptEntryTar(resp.Body, key, node)
}

// maybeReplicate pushes a hot entry to the key's other replicas, once:
// the first Touch that crosses the threshold wins the MarkReplicated
// latch and replicates in the background; later hits are no-ops.
func (s *Server) maybeReplicate(res *CachedResult, hits int64) {
	if s.clu == nil || s.cfg.DataDir == "" || hits < s.clu.ReplicateAfter {
		return
	}
	if !s.cache.MarkReplicated(res.Key) {
		return
	}
	go s.replicateOut(res.Key)
}

// pushTimeout bounds one entry PUT to a peer. Replication and handoff
// pushes run from background goroutines that hold an export snapshot
// dir open, so a hung peer must not pin either indefinitely.
const pushTimeout = 60 * time.Second

// replicateOut snapshots the persisted entry once and PUTs it to every
// other member of the key's replica set, streaming the tar through a
// pipe so even a 64MB entry never sits in memory. Each push carries its
// own deadline (pushTimeout); open-circuit peers are skipped and
// failures are counted but not retried here: replication is an
// optimization, and the next hot period on a restarted cache
// retriggers it. Returns how many peers accepted the entry (pushBack
// keys its retry loop on it).
func (s *Server) replicateOut(key string) int {
	snap, err := s.exportSnapshot(key)
	if err != nil {
		s.stats.persistErr()
		return 0
	}
	defer os.RemoveAll(snap)
	pushed := 0
	for _, node := range s.ring().Replicas(key) {
		if node == s.clu.Self {
			continue
		}
		if !s.peerBreaker.Allow(node) {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), pushTimeout)
		if s.pushEntry(ctx, node, snap, key) == nil {
			s.stats.replicatedOut()
			pushed++
		}
		cancel()
	}
	return pushed
}

// pushBackAttempts bounds how long a degraded-mode entry chases its
// owner set's recovery; with the default backoff the chase spans a
// couple of minutes of outage.
const pushBackAttempts = 8

// pushBack delivers an entry this shard computed for a key it does not
// own (degraded-mode routing during an owner outage) to the key's
// replica set, retrying with backoff until at least one owner accepts
// it. One acceptance ends the chase: the entry then lives where the
// ring routes future submissions, and this shard's copy is just extra
// cache. Gives up after pushBackAttempts — the owners' own rehydration
// on restart is the backstop.
func (s *Server) pushBack(key string) {
	bo := s.clu.Breaker.Backoff
	for attempt := 0; attempt < pushBackAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(bo.Delay(attempt-1, key))
		}
		if s.replicateOut(key) > 0 {
			s.stats.pushbackDone()
			return
		}
	}
	s.stats.pushbackFailed()
}

// pushEntry PUTs one snapshotted entry to a peer, streaming the tar
// through a pipe. The context bounds the whole exchange — on expiry the
// transport aborts the request and the pipe writer unblocks, so the
// caller's snapshot dir is released.
func (s *Server) pushEntry(ctx context.Context, node, snap, key string) error {
	pr, pw := io.Pipe()
	go func() { pw.CloseWithError(cluster.WriteEntryTar(pw, snap, key)) }()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, cluster.NodeURL(node)+"/cache/"+key, pr)
	if err != nil {
		pr.Close()
		return err
	}
	req.Header.Set("Content-Type", "application/x-tar")
	req.Header.Set(peerHeader, s.clu.Self)
	if s.clu.Secret != "" {
		req.Header.Set(secretHeader, s.clu.Secret)
	}
	resp, err := s.clu.Client.Do(req)
	if err != nil {
		s.notePeer(node, err, 0)
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	s.notePeer(node, nil, resp.StatusCode)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("service: peer %s answered %d to entry push %s", node, resp.StatusCode, key)
	}
	return nil
}
