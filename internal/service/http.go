package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// maxBodyBytes bounds a job submission (matrix uploads included).
const maxBodyBytes = 64 << 20

// Handler returns the daemon's HTTP API; see the package comment for
// the contract.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /corpus", s.handleCorpus)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /stats", s.handleStats)
	if s.clu != nil {
		// Shard-to-shard cache-entry exchange, the shard's own view of
		// the ring, and the live-membership protocol; absent in
		// single-node mode, where no peer may push entries into this
		// cache or rewrite its member set. The literal /cache/keys route
		// wins over the /cache/{key} wildcard by ServeMux precedence.
		mux.HandleFunc("GET /cache/{key}", s.handleCacheGet)
		mux.HandleFunc("PUT /cache/{key}", s.handleCachePut)
		mux.HandleFunc("GET /cache/keys", s.handleCacheKeys)
		mux.HandleFunc("GET /stats/ring", s.handleRing)
		mux.HandleFunc("GET /cluster/members", s.handleClusterMembers)
		mux.HandleFunc("POST /cluster/join", s.handleClusterAnnounce)
		mux.HandleFunc("POST /cluster/leave", s.handleClusterAnnounce)
	}
	return mux
}

func (s *Server) handleRing(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.ring().View())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeJSONCompact skips indentation; the result endpoint's parts array
// has one element per nonzero, and pretty-printing would triple its
// size with whitespace.
func writeJSONCompact(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// A routed submission carrying a ring epoch we disagree with is
	// bounced with a structured 409 before any work: the router refreshes
	// its membership and retries on the right shard.
	if !s.checkRingEpoch(w, r) {
		return
	}
	// Shed large bodies before decoding them when the queue is full:
	// named-corpus specs are tiny, so anything over a megabyte — or a
	// chunked body of unknown length (ContentLength < 0), which could
	// hide one — would only be parsed and then bounced anyway.
	if (r.ContentLength > 1<<20 || r.ContentLength < 0) && s.sched.full() {
		w.Header().Set("Retry-After", "1")
		s.stats.rejected()
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: ErrQueueFull.Error()})
		return
	}
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(&spec); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorBody{Error: fmt.Sprintf("job spec exceeds the %d-byte limit", tooBig.Limit)})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "decoding job spec: " + err.Error()})
		return
	}
	_, v, err := s.submit(spec)
	if err != nil {
		var bad *BadSpecError
		switch {
		case errors.As(err, &bad):
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		default:
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		}
		return
	}
	// v is the job as admitted (submit snapshots it before a runner can
	// claim it): 200 with a done view means "served from cache", 202
	// with a queued view means "accepted".
	status := http.StatusAccepted
	if v.Cached {
		status = http.StatusOK
	}
	writeJSON(w, status, v)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job id"})
		return
	}
	writeJSON(w, http.StatusOK, s.jobs.View(job))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok, canceled := s.Cancel(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job id"})
		return
	}
	if !canceled {
		// Finished before the cancel landed; nothing to undo.
		writeJSON(w, http.StatusConflict, s.jobs.View(job))
		return
	}
	writeJSON(w, http.StatusOK, s.jobs.View(job))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job id"})
		return
	}
	if res, ok := s.jobs.Result(job); ok {
		// The job record holds scalars only; the parts vector lives in
		// the content-addressed cache.
		full, hit := s.cache.Get(res.Key)
		if !hit {
			writeJSON(w, http.StatusGone, errorBody{
				Error: "result evicted from cache; resubmit the job (a repeat submission recomputes or hits)",
			})
			return
		}
		res.Parts = full.Parts
		writeJSONCompact(w, http.StatusOK, res)
		return
	}
	v := s.jobs.View(job)
	if v.State == StateFailed || v.State == StateCanceled {
		writeJSON(w, http.StatusGone, v)
		return
	}
	writeJSON(w, http.StatusConflict, v)
}

type corpusView struct {
	Scale int      `json:"scale"`
	Seed  int64    `json:"seed"`
	Names []string `json:"names"`
}

func (s *Server) handleCorpus(w http.ResponseWriter, _ *http.Request) {
	scale, seed, names := s.Corpus()
	writeJSON(w, http.StatusOK, corpusView{Scale: scale, Seed: seed, Names: names})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": status})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
