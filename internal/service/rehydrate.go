package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strconv"
	"time"

	"mediumgrain/internal/cluster"
)

// Bulk cache rehydration: when a shard joins a live cluster, the keys
// that remap to it (the bounded ~1/(N+1) fraction) already have owners
// with warm, persisted entries. Rather than cold-starting and
// recomputing each on first demand, the joiner enumerates every old
// owner's keys (GET /cache/keys, a sorted, cursor-paged, secret-gated
// listing), filters to keys it now owns but lacks, and pulls each over
// the existing validated tar transfer (GET /cache/{key}). The pull is
// rate-limited (one entry at a time with a configurable pause) so a
// join never floods the donors, and resumable: losing a source
// mid-enumeration retries the same cursor, and each key is fetched
// independently, so no progress is ever thrown away.

// rehydratePageSize is the /cache/keys page the rehydrator requests.
const rehydratePageSize = 256

// rehydratePageRetries bounds retries of one enumeration page against a
// flaky source before the source is abandoned (its remaining keys are
// counted failed).
const rehydratePageRetries = 3

// maxCacheKeysPage caps the limit a /cache/keys client may request.
const maxCacheKeysPage = 1024

// keysPage is the JSON of GET /cache/keys: one sorted page of this
// shard's cached keys. Next is the cursor to pass as ?after= for the
// following page; More is false on the last page.
type keysPage struct {
	Keys []string `json:"keys"`
	Next string   `json:"next,omitempty"`
	More bool     `json:"more"`
}

// handleCacheKeys enumerates the shard's cached keys in sorted order,
// one bounded page per request (?after=<cursor>&limit=<n>). Gated by
// the cluster secret like the entry transfer it feeds: key listings
// reveal what the cluster has computed.
func (s *Server) handleCacheKeys(w http.ResponseWriter, r *http.Request) {
	if !s.peerAuthorized(r) {
		writeJSON(w, http.StatusUnauthorized, errorBody{Error: "missing or wrong " + secretHeader + " header"})
		return
	}
	q := r.URL.Query()
	after := q.Get("after")
	if after != "" && !cluster.ValidKey(after) {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "malformed after cursor (want 32 hex digits)"})
		return
	}
	limit := rehydratePageSize
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "limit must be a positive integer"})
			return
		}
		limit = min(n, maxCacheKeysPage)
	}
	keys := s.cache.Keys()
	// The cursor is exclusive: resume strictly after it, so a retried
	// page never depends on the cursor key still being cached.
	i := sort.SearchStrings(keys, after)
	if i < len(keys) && keys[i] == after {
		i++
	}
	end := min(i+limit, len(keys))
	page := keysPage{Keys: keys[i:end], More: end < len(keys)}
	if len(page.Keys) > 0 {
		page.Next = page.Keys[len(page.Keys)-1]
	}
	writeJSON(w, http.StatusOK, page)
}

// fetchKeys pulls one enumeration page from a peer.
func (s *Server) fetchKeys(ctx context.Context, node, after string, limit int) (*keysPage, error) {
	url := cluster.NodeURL(node) + "/cache/keys?limit=" + strconv.Itoa(limit)
	if after != "" {
		url += "&after=" + after
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if s.clu.Secret != "" {
		req.Header.Set(secretHeader, s.clu.Secret)
	}
	resp, err := s.clu.Client.Do(req)
	if err != nil {
		s.notePeer(node, err, 0)
		return nil, err
	}
	defer resp.Body.Close()
	s.notePeer(node, nil, resp.StatusCode)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("service: %s /cache/keys: status %d", node, resp.StatusCode)
	}
	var page keysPage
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(&page); err != nil {
		return nil, fmt.Errorf("service: %s /cache/keys: %w", node, err)
	}
	return &page, nil
}

// RehydrateReport summarizes one bulk rehydration pass.
type RehydrateReport struct {
	// Scanned counts keys enumerated across every source; Wanted the
	// subset this shard owns under the current ring and did not already
	// hold; Pulled/Failed its disposition.
	Scanned int `json:"scanned"`
	Wanted  int `json:"wanted"`
	Pulled  int `json:"pulled"`
	Failed  int `json:"failed"`
}

// Rehydrate bulk-pulls every key this shard now owns but does not hold,
// from the members of the pre-join ring `before` (every old owner is a
// candidate source; replication means several may hold a key, and the
// first successful pull wins). Runs in two phases so /stats can report
// honest progress: enumerate first (building the wanted set and setting
// rehydrate_pending), then pull one entry at a time, pacing by pause
// between transfers. Safe to re-run: keys already cached are skipped.
func (s *Server) Rehydrate(ctx context.Context, before *cluster.Ring, pause time.Duration) RehydrateReport {
	var rep RehydrateReport
	if s.clu == nil {
		return rep
	}
	self := cluster.NormalizeNode(s.clu.Self)

	// Phase 1: enumerate every old member's keys, keeping those the
	// current ring assigns to us. sources maps key -> donors in
	// enumeration order.
	sources := make(map[string][]string)
	order := make([]string, 0)
	for _, node := range before.Nodes() {
		if node == self {
			continue
		}
		after := ""
		retries := 0
		for {
			if ctx.Err() != nil {
				return rep
			}
			page, err := s.fetchKeys(ctx, node, after, rehydratePageSize)
			if err != nil {
				retries++
				if retries > rehydratePageRetries {
					log.Printf("rehydrate: abandoning source %s after %d enumeration failures at cursor %q: %v",
						node, retries-1, after, err)
					break
				}
				// Resume from the same cursor — the pages already consumed
				// stay consumed — after the shared backoff schedule.
				if !cluster.SleepCtx(ctx, s.clu.Breaker.Backoff.Delay(retries-1, node)) {
					return rep
				}
				continue
			}
			retries = 0
			rep.Scanned += len(page.Keys)
			for _, key := range page.Keys {
				if !cluster.ValidKey(key) || s.ring().Owner(key) != self {
					continue
				}
				if _, cached := s.cache.Get(key); cached {
					continue
				}
				if _, seen := sources[key]; !seen {
					order = append(order, key)
				}
				sources[key] = append(sources[key], node)
			}
			if !page.More {
				break
			}
			after = page.Next
		}
	}
	rep.Wanted = len(order)
	s.stats.rehydratePending(int64(len(order)))

	// Phase 2: pull, one entry at a time.
	for _, key := range order {
		if ctx.Err() != nil {
			// Count the rest failed so the pending gauge drains to zero.
			for range order[rep.Pulled+rep.Failed:] {
				rep.Failed++
				s.stats.rehydrateFailed()
			}
			return rep
		}
		pulled := false
		for _, node := range sources[key] {
			if !s.peerBreaker.Allow(node) {
				continue
			}
			r, m, err := s.fetchFrom(ctx, node, key)
			if err != nil {
				continue
			}
			s.keepResult(r, m)
			// Rehydrated entries never replicate onward: the donors still
			// hold their copies.
			s.cache.MarkReplicated(key)
			pulled = true
			break
		}
		if pulled {
			rep.Pulled++
			s.stats.rehydrateDone()
		} else {
			rep.Failed++
			s.stats.rehydrateFailed()
		}
		if pause > 0 {
			select {
			case <-time.After(pause):
			case <-ctx.Done():
			}
		}
	}
	return rep
}
