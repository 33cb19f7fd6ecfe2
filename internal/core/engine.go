package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"mediumgrain/internal/kway"
	"mediumgrain/internal/metrics"
	"mediumgrain/internal/pool"
	"mediumgrain/internal/sparse"
)

// Engine is a reusable, concurrency-safe partitioning handle: it owns
// the worker-pool semaphore and a free list of at most max(workers, 1)
// scratches. A call holds one scratch per goroutine that runs its
// bisection tree and checks the root's in last, so the next call starts
// on warm root-sized buffers. A long-lived caller (library user, CLI,
// the mgserve daemon) therefore creates one Engine and runs every
// request through it instead of paying pool and scratch setup per call.
// All methods take a context and stop
// cooperatively — at bisection-node, coarsening-level, FM-pass, and
// scan-chunk boundaries — when it is canceled, returning ctx.Err() with
// every scratch checked back in and no goroutine left behind.
//
// Determinism: there is one algorithm, and the pool only schedules it.
// For equal seeds every engine returns bit-identical results, whatever
// its worker count — including 0, which runs the same algorithm inline.
// Concurrent calls on one Engine never affect each other's results: each
// run owns its RNG stream, and scratches are content-agnostic.
type Engine struct {
	pl *pool.Pool
	st *scratchStore
}

// NewEngine returns an engine executing on `workers` goroutines.
// workers == 0 runs everything inline on the calling goroutine (a nil
// pool); workers < 0 selects runtime.GOMAXPROCS(0). The worker count
// never changes a result.
func NewEngine(workers int) *Engine {
	if workers == 0 {
		return &Engine{st: newScratchStore(1)}
	}
	pl := pool.New(workers)
	return &Engine{pl: pl, st: newScratchStore(pl.Workers())}
}

// Workers reports the engine's pool size; 0 for an inline engine.
func (e *Engine) Workers() int {
	if e.pl == nil {
		return 0
	}
	return e.pl.Workers()
}

// Partition distributes the nonzeros of a over p parts by recursive
// bisection with the chosen method (§IV: "the medium-grain method can
// also be used in a recursive bisection scheme to obtain partitionings
// into p parts"). The global imbalance budget ε is spread over the
// ⌈log2 p⌉ bisection levels so the final partitioning satisfies eqn (1).
// The two halves of every bisection are disjoint subproblems and run
// concurrently on the engine's pool.
func (e *Engine) Partition(ctx context.Context, a *sparse.Matrix, p int, method Method, opts Options, rng *rand.Rand) (*Result, error) {
	return e.partition(ctx, a, p, method, opts, rng, nil)
}

// PartitionProgress is Partition reporting completion: onLeaf is called
// once per finalized bisection leaf with the number of nonzeros whose
// part just became final (possibly from several goroutines at once).
func (e *Engine) PartitionProgress(ctx context.Context, a *sparse.Matrix, p int, method Method, opts Options, rng *rand.Rand, onLeaf func(nnz int)) (*Result, error) {
	return e.partition(ctx, a, p, method, opts, rng, leafHooks(onLeaf))
}

// partition is Partition observed through hooks (nil observes nothing).
func (e *Engine) partition(ctx context.Context, a *sparse.Matrix, p int, method Method, opts Options, rng *rand.Rand, hooks *runHooks) (*Result, error) {
	if p < 1 {
		return nil, fmt.Errorf("core: p must be >= 1, got %d", p)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	parts := make([]int, a.NNZ())
	if p == 1 {
		hooks.leaf(a.NNZ())
		return &Result{Parts: parts, Volume: 0, Method: method, Refined: opts.Refine}, nil
	}

	levels := int(math.Ceil(math.Log2(float64(p))))
	// Per-level imbalance δ with (1+δ)^levels = 1+ε.
	delta := math.Pow(1+opts.Eps, 1/float64(levels)) - 1

	// all is the run's only index array: bisect reorders it in place and
	// hands each child its own subslice.
	all := make([]int, a.NNZ())
	for k := range all {
		all[k] = k
	}
	sc := e.st.get()
	err := bisect(ctx, a, all, 0, p, parts, method, opts, delta, rng, e.pl, e.st, sc, hooks)
	e.st.put(sc)
	if err != nil {
		return nil, err
	}
	vol := metrics.VolumeIndexed(ctx, a, parts, p, nil, nil, e.pl)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &Result{
		Parts:   parts,
		Volume:  vol,
		Method:  method,
		Refined: opts.Refine,
	}, nil
}

// Bipartition splits the nonzeros of a into two parts using the given
// method, on the engine's pool and under ctx. rng drives all randomized
// choices, making runs reproducible.
func (e *Engine) Bipartition(ctx context.Context, a *sparse.Matrix, method Method, opts Options, rng *rand.Rand) (*Result, error) {
	sc := e.st.get()
	defer e.st.put(sc)
	return bipartitionScratch(ctx, a, tieShape{a.Rows, a.Cols}, method, opts, rng, e.pl, sc)
}

// IterativeRefine applies the paper's Algorithm 2 to an existing
// bipartitioning, returning the refined parts and their volume (the
// loop tracks it, so no separate evaluation is ever paid). A canceled
// ctx discards the work in favor of ctx.Err().
func (e *Engine) IterativeRefine(ctx context.Context, a *sparse.Matrix, parts []int, opts Options, rng *rand.Rand) ([]int, int64, error) {
	sc := e.st.get()
	defer e.st.put(sc)
	out, vol := iterativeRefineIndexed(ctx, a, parts, opts, rng, nil, sc)
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	return out, vol, nil
}

// KWayRefine post-processes a p-way partitioning with direct k-way
// greedy refinement under the λ−1 metric, modifying parts in place and
// returning the final volume. Canceled refinements leave parts valid —
// every applied move lowered the volume — but return ctx.Err().
func (e *Engine) KWayRefine(ctx context.Context, a *sparse.Matrix, parts []int, p int, eps float64, rng *rand.Rand) (int64, error) {
	vol := kway.RefineOn(ctx, a, parts, p, kway.Options{Eps: eps}, rng, e.pl)
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return vol, nil
}

// Volume evaluates the communication volume of a p-way partitioning on
// the engine's pool, stopping early when ctx is canceled.
func (e *Engine) Volume(ctx context.Context, a *sparse.Matrix, parts []int, p int) (int64, error) {
	v := metrics.VolumeIndexed(ctx, a, parts, p, nil, nil, e.pl)
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return v, nil
}

// scratchesOutstanding reports how many scratches are currently checked
// out of the engine's free list; it is 0 whenever no call is in flight,
// canceled calls included (the balance invariant the cancellation tests
// assert).
func (e *Engine) scratchesOutstanding() int64 {
	return e.st.outstanding()
}

// scratchesMade reports how many scratches the engine has allocated
// since it was created.
func (e *Engine) scratchesMade() int64 {
	return e.st.made.Load()
}
