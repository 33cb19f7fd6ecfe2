package core

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mediumgrain/internal/sparse"
)

// SearchSpec configures a speculative best-of-N partitioning race: N
// fully deterministic seed variants of one request run concurrently on
// the engine's existing worker budget, the running best volume prunes
// stragglers, and the winner is chosen by a deterministic tie-break.
type SearchSpec struct {
	// Tries is the number of seed variants raced; try i (0-based) draws
	// its RNG stream from seed+i, so each variant is individually
	// bit-identical per seed at every worker count. Values below 1 run a
	// single try.
	Tries int
	// Budget, when positive, bounds the whole search's wall time: when
	// it expires, unfinished tries are canceled and the best completed
	// result (if any) is returned. A budgeted search trades the
	// determinism guarantee for a latency bound — which tries finish
	// inside the budget depends on machine speed.
	Budget time.Duration
	// VaryFM races the two FM refinement modes besides the seeds: odd
	// tries flip Options.Config.ExactFM, so a two-try search races the
	// boundary-driven default against the exact all-vertex passes on
	// adjacent seeds. The race stays deterministic — each variant is
	// still bit-identical per (seed, mode).
	VaryFM bool
}

// SearchHooks observes a search's progress. Either field may be nil;
// both may be called concurrently from several goroutines and must be
// cheap and thread-safe.
type SearchHooks struct {
	// OnLeaf fires once per finalized bisection leaf of any try with the
	// 1-based try index and the leaf's nonzero count.
	OnLeaf func(try, nnz int)
	// OnTry fires once per try as it leaves the race: vol is the try's
	// final volume, or -1 when it was pruned (its partial volume could no
	// longer beat the incumbent) or cut off by the budget. best/bestTry
	// describe the incumbent after the try's result was merged (best is
	// -1 while no try has finished).
	OnTry func(try int, vol, best int64, bestTry int)
}

// SearchReport summarizes how a search went besides its winner.
type SearchReport struct {
	// Tries is the number of variants raced.
	Tries int
	// WinnerTry is the 1-based index of the winning try.
	WinnerTry int
	// Pruned counts tries canceled early because their monotone partial
	// volume already exceeded the incumbent best.
	Pruned int
	// TimedOut reports that the budget expired before every try
	// finished; the winner is the best of the tries that did.
	TimedOut bool
}

// errOutpaced is the cancel cause of a pruned try: its partial volume
// exceeded the incumbent, so it could not win and was stopped early.
var errOutpaced = errors.New("core: try outpaced by incumbent")

// searchState is the shared incumbent of one race. The atomic best
// mirror is what per-split prune checks read (lock-free, hot path); the
// mutex guards the full (volume, try, result) tie-break update.
type searchState struct {
	mu       sync.Mutex
	bestVol  int64
	bestTry  int // 0-based; -1 while no try has finished
	bestRes  *Result
	best     atomic.Int64 // monotone mirror of bestVol; -1 while unset
	monitors []*tryMonitor
}

// tryMonitor tracks one try: the monotone partial-volume lower bound and
// the cancel handle its pruning acts through.
type tryMonitor struct {
	partial atomic.Int64
	cancel  context.CancelCauseFunc
}

// merge records a finished try under the deterministic tie-break
// (lowest volume, then lowest try index) and prunes every other try
// whose partial volume can no longer beat the new incumbent. Returns
// the incumbent after the merge.
func (s *searchState) merge(try int, res *Result) (best int64, bestTry int) {
	s.mu.Lock()
	if s.bestTry < 0 || res.Volume < s.bestVol || (res.Volume == s.bestVol && try < s.bestTry) {
		s.bestVol, s.bestTry, s.bestRes = res.Volume, try, res
		s.best.Store(res.Volume)
	}
	best, bestTry = s.bestVol, s.bestTry
	s.mu.Unlock()
	for i, m := range s.monitors {
		// Strictly greater: a try that can still tie must finish, so the
		// lowest-index tie-break (and thus the winner) is independent of
		// which try completed first.
		if i != try && m.partial.Load() > best {
			m.cancel(errOutpaced)
		}
	}
	return best, bestTry
}

// PartitionSearch races spec.Tries deterministic variants of one
// partitioning request — try i draws its RNG stream from seed+i (and,
// with spec.VaryFM, odd tries flip the FM mode) — and returns the best
// result under the deterministic tie-break (lowest volume, then lowest
// try index). Tries fan out over the engine's existing worker budget:
// at most Workers() tries run at once (one on an inline engine), and
// each try's internal parallelism shares the same pool.
//
// Pruning: the sum of completed split volumes is a monotone lower bound
// on a try's final volume, so a try whose partial volume strictly
// exceeds the incumbent best is canceled through its per-try context.
// Because a try is only pruned when it can no longer win — ties are
// always allowed to finish — the winner is bit-identical across repeated
// runs and worker counts for an unbudgeted search.
//
// Cancellation of ctx aborts the whole race with ctx.Err(); an expired
// spec.Budget instead returns the best result completed so far, or
// context.DeadlineExceeded when there is none.
func (e *Engine) PartitionSearch(ctx context.Context, a *sparse.Matrix, p int, method Method, opts Options, seed int64, spec SearchSpec, hooks *SearchHooks) (*Result, SearchReport, error) {
	tries := spec.Tries
	if tries < 1 {
		tries = 1
	}
	rep := SearchReport{Tries: tries}

	searchCtx := ctx
	if spec.Budget > 0 {
		var cancel context.CancelFunc
		searchCtx, cancel = context.WithTimeout(ctx, spec.Budget)
		defer cancel()
	}

	st := &searchState{bestTry: -1, monitors: make([]*tryMonitor, tries)}
	st.best.Store(-1)
	ctxs := make([]context.Context, tries)
	for i := range st.monitors {
		tryCtx, cancel := context.WithCancelCause(searchCtx)
		st.monitors[i] = &tryMonitor{cancel: cancel}
		ctxs[i] = tryCtx
	}

	// At most `limit` tries race at once; each try's root goroutine works
	// inline besides the pool's helpers (the mgserve runner pattern), so
	// the engine's worker budget is the fan-out bound, not multiplied.
	limit := e.pl.Workers() // 1 for an inline engine
	if limit > tries {
		limit = tries
	}
	var (
		sem     = make(chan struct{}, limit)
		wg      sync.WaitGroup
		pruned  atomic.Int64
		timeout atomic.Bool
		errMu   sync.Mutex
		runErr  error
	)
	for i := 0; i < tries; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			mon := st.monitors[i]
			tryOpts := opts
			if spec.VaryFM && i%2 == 1 {
				tryOpts.Config.ExactFM = !opts.Config.ExactFM
			}
			rh := &runHooks{
				onSplit: func(vol int64) {
					partial := mon.partial.Add(vol)
					if best := st.best.Load(); best >= 0 && partial > best {
						mon.cancel(errOutpaced)
					}
				},
			}
			if hooks != nil && hooks.OnLeaf != nil {
				rh.onLeaf = func(nnz int) { hooks.OnLeaf(i+1, nnz) }
			}
			res, err := e.partition(ctxs[i], a, p, method, tryOpts, rand.New(rand.NewSource(seed+int64(i))), rh)
			// Release the context's resources; the cause (if any) is kept.
			defer mon.cancel(nil)
			switch {
			case err == nil:
				best, bestTry := st.merge(i, res)
				if hooks != nil && hooks.OnTry != nil {
					hooks.OnTry(i+1, res.Volume, best, bestTry+1)
				}
			case context.Cause(ctxs[i]) == errOutpaced:
				pruned.Add(1)
				if hooks != nil && hooks.OnTry != nil {
					best, bestTry := st.incumbent()
					hooks.OnTry(i+1, -1, best, bestTry+1)
				}
			case errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil:
				// The search budget expired, not the caller's context.
				timeout.Store(true)
				if hooks != nil && hooks.OnTry != nil {
					best, bestTry := st.incumbent()
					hooks.OnTry(i+1, -1, best, bestTry+1)
				}
			default:
				errMu.Lock()
				if runErr == nil {
					runErr = err
				}
				errMu.Unlock()
			}
		}(i)
	}
	wg.Wait()

	rep.Pruned = int(pruned.Load())
	rep.TimedOut = timeout.Load()
	// The caller's cancellation always wins over a partial result.
	if err := ctx.Err(); err != nil {
		return nil, rep, err
	}
	st.mu.Lock()
	res, bestTry := st.bestRes, st.bestTry
	st.mu.Unlock()
	if res == nil {
		if runErr != nil {
			return nil, rep, runErr
		}
		// Every try was cut off by the budget before finishing.
		return nil, rep, context.DeadlineExceeded
	}
	if runErr != nil {
		// A try failed for a non-benign reason (not pruning, not budget):
		// the request is broken in a way every variant shares, so surface
		// it rather than a winner from an inconsistent race.
		return nil, rep, runErr
	}
	rep.WinnerTry = bestTry + 1
	return res, rep, nil
}

// incumbent snapshots the current best (volume, 0-based try) pair;
// (-1, -1) while no try has finished.
func (s *searchState) incumbent() (int64, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bestVol, s.bestTry
}
