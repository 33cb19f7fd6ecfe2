package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"

	"mediumgrain/internal/core"
	"mediumgrain/internal/sparse"
)

// JobSpec is the wire form of a partition job, shared by the shard
// daemon (internal/service) and the cluster router so both normalize
// and content-address a submission identically. See the
// internal/service package comment for the full HTTP contract.
type JobSpec struct {
	Corpus   string `json:"corpus,omitempty"`
	MatrixMM string `json:"matrix_mtx,omitempty"`
	P        int    `json:"p"`
	Method   string `json:"method,omitempty"`
	Seed     int64  `json:"seed"`
	// Eps is a pointer so an explicit 0 — a strict balance request — is
	// distinguishable from an omitted field (the 0.03 default).
	Eps    *float64 `json:"eps,omitempty"`
	Refine bool     `json:"refine,omitempty"`
	// ParallelFM enables coarse-level FM try racing inside each
	// partition run; per-seed results differ from the serial-refinement
	// default, so the choice is part of the cache key.
	ParallelFM bool `json:"parallel_fm,omitempty"`
	// Workers is accepted and ignored: every job runs on the server's
	// shared engine, and the worker count never changes a result.
	Workers int `json:"workers,omitempty"`
	// Tries > 1 races that many deterministic seed variants (seed..
	// seed+N-1) and keeps the lowest-volume result; BudgetMS bounds the
	// race's wall time. Both are part of the cache key: best-of-N
	// volumes must never answer single-run requests or a different N.
	Tries     int `json:"tries,omitempty"`
	BudgetMS  int `json:"budget_ms,omitempty"`
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// MaxTries bounds a job's race-to-best search width: each try is a full
// partitioning, so an unbounded N would let one request multiply its
// compute cost arbitrarily past the admission controls.
const MaxTries = 64

// Normalized is the scalar part of a validated spec: defaults applied
// and search width normalized. It is everything the cache key needs
// besides the matrix hash.
type Normalized struct {
	Method core.Method
	Eps    float64
	Tries  int // >= 1
}

// Normalize validates a spec's scalar fields and applies the documented
// defaults. It is the single source of truth for spec semantics: the
// shard's resolve step and the router's key computation both go through
// it, so a spec can never route to one shard and key differently on
// another.
func (spec JobSpec) Normalize() (Normalized, error) {
	var n Normalized
	if spec.P < 1 {
		return n, fmt.Errorf("p must be >= 1, got %d", spec.P)
	}
	m := spec.Method
	if m == "" {
		m = "MG"
	}
	method, err := core.ParseMethod(m)
	if err != nil {
		return n, err
	}
	eps := core.DefaultOptions().Eps
	if spec.Eps != nil {
		eps = *spec.Eps
	}
	if eps < 0 {
		return n, fmt.Errorf("eps must be >= 0, got %g", eps)
	}
	if spec.Tries < 0 {
		return n, fmt.Errorf("tries must be >= 0, got %d", spec.Tries)
	}
	if spec.Tries > MaxTries {
		return n, fmt.Errorf("tries must be <= %d, got %d", MaxTries, spec.Tries)
	}
	if spec.BudgetMS < 0 {
		return n, fmt.Errorf("budget_ms must be >= 0, got %d", spec.BudgetMS)
	}
	if spec.BudgetMS > 0 && spec.Tries <= 1 {
		return n, fmt.Errorf("budget_ms needs tries > 1")
	}
	// 0 and 1 both mean the single classic run; normalize so they share
	// one cache slot.
	tries := spec.Tries
	if tries < 1 {
		tries = 1
	}
	n.Method = method
	n.Eps = eps
	n.Tries = tries
	return n, nil
}

// MatrixHash returns the content address of a matrix pattern: a 128-bit
// hex digest over (rows, cols, nnz, coordinates). Values are ignored —
// partitioning is purely structural — so a pattern upload and a valued
// upload of the same structure share cache entries. Canonicalized
// matrices with equal patterns always hash equally regardless of how
// they were constructed.
func MatrixHash(a *sparse.Matrix) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	put(a.Rows)
	put(a.Cols)
	put(a.NNZ())
	for k := range a.RowIdx {
		put(a.RowIdx[k])
		put(a.ColIdx[k])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// CacheKey derives the content address of a result from the matrix hash
// and the partitioning configuration. The worker count is not part of
// it: every worker count gives bit-identical results, so all share one
// slot. ParallelFM's try racing changes per-seed results, so it is part
// of the key, and so is the full race-to-best search spec (tries,
// budgetMS): a best-of-N result must never answer a single-run request
// or a different N, and a budgeted race is not even deterministic. The
// version tag ("mgserve/10") is bumped with every key-shape change and
// every algorithm change that moves per-seed results, so results
// computed under older semantics can never answer a current request.
// Callers pass tries normalized (>= 1) and budgetMS >= 0.
//
// The same key is the cluster routing key: Ring ownership, router
// failover, peer cache fetches, and hot-entry replication all address
// shards by it.
func CacheKey(matrixHash string, p int, method string, seed int64, eps float64, refine, parallelFM bool, tries, budgetMS int) string {
	h := sha256.New()
	fmt.Fprintf(h, "mgserve/10|%s|p=%d|m=%s|seed=%d|eps=%g|refine=%t|parallelfm=%t|tries=%d|budget=%dms",
		matrixHash, p, method, seed, eps, refine, parallelFM, tries, budgetMS)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// ValidKey reports whether key has the exact shape CacheKey produces:
// 32 lowercase hex digits. Anything arriving over the wire that claims
// to be a cache key — the /cache/{key} path segment above all, which
// ServeMux hands over percent-decoded and therefore able to smuggle
// "../" — must pass this before it touches a filesystem path.
func ValidKey(key string) bool {
	if len(key) != 32 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// RouteKey computes a spec's cache key without access to a shard's
// corpus: named instances resolve through the supplied hash lookup
// (precomputed by whoever built the same corpus), uploads are parsed,
// canonicalized, and hashed exactly as the shard's resolve step will.
// This is how the stateless router picks a spec's owning shard: equal
// specs produce equal keys on the router and on every shard.
func RouteKey(spec JobSpec, corpusHash func(name string) (string, bool)) (string, error) {
	n, err := spec.Normalize()
	if err != nil {
		return "", err
	}
	var hash string
	switch {
	case spec.Corpus != "" && spec.MatrixMM != "":
		return "", fmt.Errorf("give either corpus or matrix_mtx, not both")
	case spec.Corpus != "":
		h, ok := corpusHash(spec.Corpus)
		if !ok {
			return "", fmt.Errorf("unknown corpus instance %q", spec.Corpus)
		}
		hash = h
	case spec.MatrixMM != "":
		a, err := sparse.ReadMatrixMarket(strings.NewReader(spec.MatrixMM))
		if err != nil {
			return "", fmt.Errorf("matrix_mtx: %v", err)
		}
		a.Canonicalize()
		hash = MatrixHash(a)
	default:
		return "", fmt.Errorf("give a corpus name or matrix_mtx text")
	}
	return CacheKey(hash, spec.P, n.Method.String(), spec.Seed, n.Eps, spec.Refine, spec.ParallelFM, n.Tries, spec.BudgetMS), nil
}
