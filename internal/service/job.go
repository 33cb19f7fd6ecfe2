package service

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"mediumgrain/internal/cluster"
	"mediumgrain/internal/core"
	"mediumgrain/internal/sparse"
	"mediumgrain/internal/spmv"
)

// Sentinel errors of the admission path; the HTTP layer maps them to
// status codes (503 / 503 / 400).
var (
	ErrDraining  = errors.New("service: draining, not accepting jobs")
	ErrQueueFull = errors.New("service: job queue full")
)

// BadSpecError marks a submission the server can never run; resubmitting
// it unchanged is pointless.
type BadSpecError struct{ Reason string }

func (e *BadSpecError) Error() string { return "service: bad job spec: " + e.Reason }

func badSpec(format string, args ...any) error {
	return &BadSpecError{Reason: fmt.Sprintf(format, args...)}
}

// JobSpec is the wire form of a partition job; see the package comment
// for field semantics and defaults. The type lives in internal/cluster
// so the cluster router decodes, normalizes, and content-addresses
// submissions identically to every shard.
type JobSpec = cluster.JobSpec

// maxTries re-exports the race-to-best width bound (see
// cluster.MaxTries) under its historical in-package name.
const maxTries = cluster.MaxTries

// resolvedSpec is a validated spec bound to its matrix and content
// address.
type resolvedSpec struct {
	spec   JobSpec
	method core.Method
	eps    float64 // spec.Eps with the default applied
	tries  int     // spec.Tries normalized to >= 1
	matrix *sparse.Matrix
	name   string // corpus name, or "upload"
	hash   string // matrix content hash
	key    string // cache key
}

// resolve validates a spec, materializes its matrix, and computes the
// content-addressed cache key. All failures are *BadSpecError. Scalar
// normalization is shared with the cluster router (cluster.Normalize),
// so a routed spec keys identically here and there.
func (s *Server) resolve(spec JobSpec) (*resolvedSpec, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return nil, badSpec("%v", err)
	}
	method, eps, tries := norm.Method, norm.Eps, norm.Tries

	var a *sparse.Matrix
	name := "upload"
	switch {
	case spec.Corpus != "" && spec.MatrixMM != "":
		return nil, badSpec("give either corpus or matrix_mtx, not both")
	case spec.Corpus != "":
		a, err = s.lookupInstance(spec.Corpus)
		if err != nil {
			return nil, badSpec("%v", err)
		}
		name = spec.Corpus
	case spec.MatrixMM != "":
		a, err = sparse.ReadMatrixMarket(strings.NewReader(spec.MatrixMM))
		if err != nil {
			return nil, badSpec("matrix_mtx: %v", err)
		}
		// Uploads may list coordinates in any order (or repeat them);
		// canonicalize so the library's sorted-unique invariant holds
		// and equal patterns content-address identically regardless of
		// the upload's line order.
		a.Canonicalize()
		// The raw text is dead once parsed; drop it so neither the
		// queued job nor the retained history pins up to 64MB of it.
		spec.MatrixMM = ""
	default:
		return nil, badSpec("give a corpus name or matrix_mtx text")
	}
	if a.NNZ() == 0 {
		return nil, badSpec("matrix has no nonzeros")
	}
	// More parts than nonzeros is meaningless (parts would be empty)
	// and the bisection recursion does O(p) node work regardless of
	// matrix size — an unbounded p would let a tiny request burn a
	// compute slot for minutes.
	if spec.P > a.NNZ() {
		return nil, badSpec("p = %d exceeds the matrix's %d nonzeros", spec.P, a.NNZ())
	}

	// Named instances carry a precomputed hash; only uploads pay the
	// O(nnz) rehash on the submission path.
	hash, ok := s.hashes[name]
	if !ok {
		hash = cluster.MatrixHash(a)
	}
	return &resolvedSpec{
		spec:   spec,
		method: method,
		eps:    eps,
		tries:  tries,
		matrix: a,
		name:   name,
		hash:   hash,
		key:    cluster.CacheKey(hash, spec.P, method.String(), spec.Seed, eps, spec.Refine, spec.ParallelFM, tries, spec.BudgetMS),
	}, nil
}

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// terminal reports whether a job state is final; terminal transitions
// are applied at most once (a cancel racing a completion keeps
// whichever landed first).
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// Job is one submission's lifecycle record. All fields are guarded by
// the owning jobStore; read them through View/ResultView.
type Job struct {
	id       string
	resolved *resolvedSpec

	state     string
	cached    bool
	errMsg    string
	result    *CachedResult
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// ID is immutable after creation and safe to read without the store.
func (j *Job) ID() string { return j.id }

// JobView is the status JSON of a job.
type JobView struct {
	ID      string  `json:"id"`
	State   string  `json:"state"`
	Cached  bool    `json:"cached"`
	Error   string  `json:"error,omitempty"`
	Key     string  `json:"key"`
	Matrix  string  `json:"matrix"`
	P       int     `json:"p"`
	Method  string  `json:"method"`
	Seed    int64   `json:"seed"`
	QueueMS float64 `json:"queue_ms"`
	RunMS   float64 `json:"run_ms"`
	TotalMS float64 `json:"total_ms"`
}

// ResultView is the full-result JSON of a done job.
type ResultView struct {
	ID         string  `json:"id"`
	State      string  `json:"state"`
	Cached     bool    `json:"cached"`
	Key        string  `json:"key"`
	Matrix     string  `json:"matrix"`
	Hash       string  `json:"matrix_hash"`
	Rows       int     `json:"rows"`
	Cols       int     `json:"cols"`
	NNZ        int     `json:"nnz"`
	P          int     `json:"p"`
	Method     string  `json:"method"`
	Seed       int64   `json:"seed"`
	Eps        float64 `json:"eps"`
	Refine     bool    `json:"refine"`
	ParallelFM bool    `json:"parallel_fm,omitempty"`
	// Tries/BudgetMS echo the job's race-to-best search spec (absent for
	// single-run jobs); WinnerTry is the 1-based winning variant, whose
	// seed is Seed+WinnerTry-1.
	Tries     int `json:"tries,omitempty"`
	BudgetMS  int `json:"budget_ms,omitempty"`
	WinnerTry int `json:"winner_try,omitempty"`
	// Origin is empty for locally computed results; "peer:<addr>" when
	// the entry arrived over the cluster peer-fetch or replication path.
	Origin    string           `json:"origin,omitempty"`
	Volume    int64            `json:"volume"`
	Imbalance float64          `json:"imbalance"`
	WallMS    float64          `json:"wall_ms"`
	Predict   *spmv.Prediction `json:"predict"`
	Parts     []int            `json:"parts"`
}

// jobStore owns every job's mutable state. Finished jobs (done or
// failed) are kept for status queries but only the most recent `retain`
// of them: older ones age out FIFO so a long-running daemon's memory
// stays bounded. Queued and running jobs are never evicted.
type jobStore struct {
	mu       sync.RWMutex
	next     int
	retain   int
	m        map[string]*Job
	finished []string // finished job ids, oldest first
}

func newJobStore(retain int) *jobStore {
	if retain < 1 {
		retain = 1
	}
	return &jobStore{retain: retain, m: make(map[string]*Job)}
}

func (st *jobStore) create(rs *resolvedSpec) *Job {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.next++
	j := &Job{
		id:        fmt.Sprintf("j-%08d", st.next),
		resolved:  rs,
		state:     StateQueued,
		submitted: time.Now(),
	}
	st.m[j.id] = j
	return j
}

// finish records a job's terminal state and ages out the oldest
// finished jobs past the retention cap. The job's matrix reference is
// released: results live on in the cache, and an uploaded matrix must
// not stay pinned by its job record. Callers hold st.mu.
func (st *jobStore) finishLocked(j *Job) {
	j.finished = time.Now()
	// A job can fail before it ever ran (slot-wait timeout); give it a
	// zero run span rather than a garbage one.
	if j.started.IsZero() {
		j.started = j.finished
	}
	j.resolved.matrix = nil
	st.finished = append(st.finished, j.id)
	for len(st.finished) > st.retain {
		delete(st.m, st.finished[0])
		st.finished = st.finished[1:]
	}
}

func (st *jobStore) get(id string) (*Job, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	j, ok := st.m[id]
	return j, ok
}

func (st *jobStore) drop(id string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.m, id)
}

func (st *jobStore) markRunning(j *Job) {
	st.mu.Lock()
	defer st.mu.Unlock()
	// A DELETE can land between a runner's member snapshot and this
	// call; a terminal job must not be resurrected into "running".
	if terminal(j.state) {
		return
	}
	j.state = StateRunning
	j.started = time.Now()
}

// resultMeta returns a copy of res without the parts vector: the job
// record keeps only scalars, so the retained history never pins an
// NNZ-length parts array past its cache lifetime (the /result endpoint
// rejoins the parts from the cache by key).
func resultMeta(res *CachedResult) *CachedResult {
	meta := *res
	meta.Parts = nil
	return &meta
}

func (st *jobStore) complete(j *Job, res *CachedResult) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if terminal(j.state) {
		return
	}
	j.state = StateDone
	j.result = resultMeta(res)
	st.finishLocked(j)
}

// completeCached finishes a job straight from the cache at submit time.
func (st *jobStore) completeCached(j *Job, res *CachedResult) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j.state = StateDone
	j.cached = true
	j.result = resultMeta(res)
	j.started = j.submitted
	st.finishLocked(j)
}

func (st *jobStore) fail(j *Job, msg string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if terminal(j.state) {
		return
	}
	j.state = StateFailed
	j.errMsg = msg
	st.finishLocked(j)
}

// cancel moves a job to the canceled state; false when the job already
// reached a terminal state first.
func (st *jobStore) cancel(j *Job) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if terminal(j.state) {
		return false
	}
	j.state = StateCanceled
	j.errMsg = "canceled by client"
	st.finishLocked(j)
	return true
}

// View snapshots a job's status under the store lock.
func (st *jobStore) View(j *Job) JobView {
	st.mu.RLock()
	defer st.mu.RUnlock()
	rs := j.resolved
	v := JobView{
		ID:     j.id,
		State:  j.state,
		Cached: j.cached,
		Error:  j.errMsg,
		Key:    rs.key,
		Matrix: rs.name,
		P:      rs.spec.P,
		Method: rs.method.String(),
		Seed:   rs.spec.Seed,
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	switch j.state {
	case StateQueued:
		v.QueueMS = ms(time.Since(j.submitted))
	case StateRunning:
		v.QueueMS = ms(j.started.Sub(j.submitted))
		v.RunMS = ms(time.Since(j.started))
	default:
		v.QueueMS = ms(j.started.Sub(j.submitted))
		v.RunMS = ms(j.finished.Sub(j.started))
		v.TotalMS = ms(j.finished.Sub(j.submitted))
	}
	return v
}

// Result snapshots a done job's result scalars; ok is false otherwise.
// The parts vector is not included — the HTTP layer rejoins it from the
// result cache by Key, so evicted results answer 410 instead of
// pinning their parts in the job history.
func (st *jobStore) Result(j *Job) (ResultView, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if j.state != StateDone || j.result == nil {
		return ResultView{}, false
	}
	r := j.result
	return ResultView{
		ID:     j.id,
		State:  j.state,
		Cached: j.cached,
		Key:    r.Key,
		// This job's own matrix name, not the cached result's: a
		// corpus-named job can be answered by an entry first populated
		// by a byte-identical upload (or vice versa).
		Matrix:     j.resolved.name,
		Hash:       r.MatrixHash,
		Rows:       r.Rows,
		Cols:       r.Cols,
		NNZ:        r.NNZ,
		P:          r.P,
		Method:     r.Method,
		Seed:       r.Seed,
		Eps:        r.Eps,
		Refine:     r.Refine,
		ParallelFM: r.ParallelFM,
		Tries:      r.Tries,
		BudgetMS:   r.BudgetMS,
		WinnerTry:  r.WinnerTry,
		Origin:     r.Origin,
		Volume:     r.Volume,
		Imbalance:  r.Imbalance,
		WallMS:     r.WallMS,
		Predict:    r.Predict,
		Parts:      r.Parts,
	}, true
}

// state returns the current state string (for tests and the scheduler).
func (st *jobStore) state(j *Job) string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return j.state
}
