package mediumgrain

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mediumgrain/internal/core"
	"mediumgrain/internal/metrics"
)

// EngineConfig sizes an Engine. The zero value is usable: an inline
// engine with the paper's Mondriaan-like partitioner.
type EngineConfig struct {
	// Workers sizes the engine's worker pool: N >= 1 runs on N
	// goroutines, a negative value on runtime.GOMAXPROCS(0), and 0 runs
	// inline on the calling goroutine. It is purely a throughput knob:
	// for a given seed every value, 0 included, produces bit-identical
	// results.
	Workers int
	// Partitioner tunes the multilevel hypergraph engine; the zero value
	// selects MondriaanLikeConfig(), the paper's primary engine. Its
	// ExactFM field selects between the boundary-driven FM refinement
	// default and the historical exact all-vertex passes, and its
	// ParallelFM field spends the worker budget inside refinement
	// itself — coarse-level try racing plus speculative boundary move
	// batches; see PartitionerConfig and the package comment's
	// FM-refinement-modes section for the determinism contract of each
	// flag. Its Workers field is ignored: EngineConfig.Workers sizes the
	// pool.
	Partitioner PartitionerConfig
}

// Engine is a reusable, cancellable partitioning handle — the single
// entry point for library, CLI, and daemon callers. Create one with
// New, keep it for the lifetime of the process, and run every request
// through it: the engine owns the worker-pool semaphore and the
// per-worker scratch free list, so repeated calls reuse memory instead
// of reallocating, and concurrent calls share one machine-wide worker
// budget instead of multiplying goroutines.
//
// All methods are safe for concurrent use and honor their context:
// cancellation propagates cooperatively into recursive bisection, the
// multilevel coarsen/init/FM loops, and the metric scans, so a canceled
// call returns context.Canceled promptly, leaks no goroutine, and
// leaves the scratch free list balanced.
//
// Determinism: requests carry a Seed from which the engine derives every
// per-subproblem RNG stream, so for equal seeds results are
// bit-identical at every worker count.
type Engine struct {
	cfg EngineConfig
	eng *core.Engine
}

// New creates an Engine. The handle is long-lived: construct it once
// and share it; see EngineConfig for the worker semantics.
func New(cfg EngineConfig) *Engine {
	if cfg.Partitioner == (PartitionerConfig{}) {
		cfg.Partitioner = MondriaanLikeConfig()
	}
	return &Engine{cfg: cfg, eng: core.NewEngine(cfg.Workers)}
}

// Workers reports the engine's pool size; 0 for an inline engine.
func (e *Engine) Workers() int { return e.eng.Workers() }

// defaultEngine serves callers that want a shared handle without
// plumbing one through their code.
var (
	defaultEngineOnce sync.Once
	defaultEngine     *Engine
)

// DefaultEngine returns the process-wide engine (Workers < 0, i.e.
// GOMAXPROCS), creating it on first use.
func DefaultEngine() *Engine {
	defaultEngineOnce.Do(func() {
		defaultEngine = New(EngineConfig{Workers: -1})
	})
	return defaultEngine
}

// Stage identifies the phase of the request an Event reports on.
type Stage string

// The stages an Event can carry. Partition and Bipartition report
// StagePartition while running and StageDone on completion; Refine and
// Evaluate report StageRefine and StageEvaluate respectively.
const (
	StagePartition Stage = "partition"
	StageRefine    Stage = "refine"
	StageEvaluate  Stage = "evaluate"
	StageDone      Stage = "done"
)

// Event reports Engine progress to a Request's Progress callback.
//
// Concurrency contract: the callback may be invoked concurrently from
// several worker goroutines, and — during a search — events of
// different tries interleave in no particular order; the callback must
// be cheap and thread-safe. No event is delivered after the Engine
// method returns. Events never influence results.
type Event struct {
	// Stage is the phase being reported.
	Stage Stage
	// CompletedNNZ counts nonzeros whose final part is decided;
	// TotalNNZ is the request matrix's nonzero count. During a search,
	// CompletedNNZ counts the event's own try (see Try).
	CompletedNNZ, TotalNNZ int
	// Try is the 1-based index of the search try this event belongs to;
	// it is 0 for non-search requests (Search.Tries <= 1). The StageDone
	// event of a search carries the winning try.
	Try int
	// BestVolume is the running best volume of the search race: -1 while
	// no try has finished yet, the incumbent volume afterwards. It is 0
	// for non-search requests.
	BestVolume int64
	// Elapsed is the wall time since the request started.
	Elapsed time.Duration
}

// Request describes one Engine call. Matrix is required; the zero value
// of every other field selects a sensible default, so
// Request{Matrix: a, Method: MethodMediumGrain, Seed: 42} is a complete
// medium-grain request.
type Request struct {
	// Matrix is the sparse matrix to partition (required).
	Matrix *Matrix
	// P is the number of parts (default 2).
	P int
	// Method selects the partitioning model. The zero value is
	// MethodRowNet by enumeration order; most callers want
	// MethodMediumGrain, the paper's method.
	Method Method
	// Seed drives every randomized choice: equal seeds give bit-identical
	// results at every worker count.
	Seed int64
	// Eps is the allowed load imbalance of eqn (1). 0 selects the
	// paper's 0.03; a negative value requests exact balance (ε = 0).
	Eps float64
	// Refine applies the paper's iterative refinement (Algorithm 2)
	// after partitioning.
	Refine bool
	// Strategy overrides the medium-grain initial split (default
	// SplitNNZ, Algorithm 1). Ignored by other methods.
	Strategy SplitStrategy
	// Parts is the existing partitioning that Refine and Evaluate
	// operate on; Partition and Bipartition ignore it.
	Parts []int
	// Search, when Tries > 1, races that many deterministic seed
	// variants of the request and returns the best; see Search. The zero
	// value runs the single classic partitioning.
	Search Search
	// Progress, when non-nil, receives Events as the request advances;
	// see Event for the concurrency contract.
	Progress func(Event)
}

// Search configures speculative best-of-N partitioning on a Request:
// Partition races Tries fully deterministic variants of the request —
// variant i uses Seed+i, each bit-identical at every worker count —
// over the engine's existing worker budget, prunes variants that can no
// longer beat the running best (the partial volume down the bisection
// tree is a monotone lower bound on the final volume), and returns the
// winner under a deterministic tie-break: lowest volume, then lowest
// try index. The winner is therefore bit-identical across repeated runs
// and worker counts. Progress events stream the race via Event.Try and
// Event.BestVolume.
type Search struct {
	// Tries is the number of seed variants raced; values <= 1 disable
	// the search and run the single classic partitioning.
	Tries int
	// Budget, when positive, bounds the search's wall time: expired
	// tries are cut off and the best completed result is returned (or
	// context.DeadlineExceeded when none finished). A budgeted search
	// trades the bit-identical guarantee for a latency bound.
	Budget time.Duration
	// VaryFM additionally races the two FM refinement modes: odd tries
	// flip EngineConfig.Partitioner.ExactFM, so seeds and refinement
	// styles are explored together. Still deterministic per variant.
	VaryFM bool
}

// ErrNoMatrix is returned for requests without a matrix.
var ErrNoMatrix = errors.New("mediumgrain: request has no matrix")

// PartsLengthError reports a Refine or Evaluate request whose Parts
// slice does not have one entry per nonzero of the matrix.
type PartsLengthError struct {
	// Got is len(Request.Parts); Want is the matrix's nonzero count.
	Got, Want int
}

func (e *PartsLengthError) Error() string {
	return fmt.Sprintf("mediumgrain: request has %d parts for %d nonzeros", e.Got, e.Want)
}

// BipartitionPError reports a Bipartition request carrying P > 2;
// Partition handles p-way requests.
type BipartitionPError struct {
	// P is the part count the request asked for.
	P int
}

func (e *BipartitionPError) Error() string {
	return fmt.Sprintf("mediumgrain: Bipartition cannot produce %d parts; use Partition", e.P)
}

// resolve validates the request and returns the effective part count
// (P defaulted to 2). With needParts it additionally checks that Parts
// covers the matrix, the Refine/Evaluate precondition.
func (req Request) resolve(needParts bool) (int, error) {
	if req.Matrix == nil {
		return 0, ErrNoMatrix
	}
	p := req.P
	if p == 0 {
		p = 2
	}
	if needParts && len(req.Parts) != req.Matrix.NNZ() {
		return 0, &PartsLengthError{Got: len(req.Parts), Want: req.Matrix.NNZ()}
	}
	return p, nil
}

// options maps a Request onto the internal Options, resolving defaults.
func (e *Engine) options(req Request) Options {
	opts := Options{
		Eps:    req.Eps,
		Refine: req.Refine,
		Config: e.cfg.Partitioner,
		Split:  req.Strategy,
	}
	if req.Eps == 0 {
		opts.Eps = DefaultOptions().Eps
	} else if req.Eps < 0 {
		opts.Eps = 0
	}
	return opts
}

// progress wires a Request's Progress callback into a leaf counter; the
// returned onLeaf is nil when the request has no callback.
func progressHooks(req Request, start time.Time) (onLeaf func(int), emit func(stage Stage, completed int)) {
	if req.Progress == nil {
		return nil, func(Stage, int) {}
	}
	total := req.Matrix.NNZ()
	var completed atomic.Int64
	onLeaf = func(nnz int) {
		done := completed.Add(int64(nnz))
		req.Progress(Event{
			Stage:        StagePartition,
			CompletedNNZ: int(done),
			TotalNNZ:     total,
			Elapsed:      time.Since(start),
		})
	}
	emit = func(stage Stage, done int) {
		req.Progress(Event{
			Stage:        stage,
			CompletedNNZ: done,
			TotalNNZ:     total,
			Elapsed:      time.Since(start),
		})
	}
	return onLeaf, emit
}

// Partition distributes the nonzeros of req.Matrix over req.P parts by
// recursive bisection with req.Method. The result satisfies the
// load-balance constraint of eqn (1) and reports the communication
// volume V. Cancellation of ctx aborts the run with ctx.Err().
//
// With req.Search.Tries > 1 it instead races that many deterministic
// seed variants and returns the best; see Search.
func (e *Engine) Partition(ctx context.Context, req Request) (*Result, error) {
	p, err := req.resolve(false)
	if err != nil {
		return nil, err
	}
	if req.Search.Tries > 1 {
		return e.partitionSearch(ctx, req, p)
	}
	start := time.Now()
	onLeaf, emit := progressHooks(req, start)
	res, err := e.eng.PartitionProgress(ctx, req.Matrix, p, req.Method, e.options(req), NewRNG(req.Seed), onLeaf)
	if err != nil {
		return nil, err
	}
	emit(StageDone, req.Matrix.NNZ())
	return res, nil
}

// partitionSearch runs the race-to-best path of Partition: it maps the
// request onto core.PartitionSearch and translates the race's hooks
// into Events with per-try completion counters and the running best.
func (e *Engine) partitionSearch(ctx context.Context, req Request, p int) (*Result, error) {
	spec := core.SearchSpec{
		Tries:  req.Search.Tries,
		Budget: req.Search.Budget,
		VaryFM: req.Search.VaryFM,
	}
	start := time.Now()
	total := req.Matrix.NNZ()
	var hooks *core.SearchHooks
	if req.Progress != nil {
		completed := make([]atomic.Int64, spec.Tries)
		var best atomic.Int64
		best.Store(-1)
		hooks = &core.SearchHooks{
			OnLeaf: func(try, nnz int) {
				done := completed[try-1].Add(int64(nnz))
				req.Progress(Event{
					Stage:        StagePartition,
					CompletedNNZ: int(done),
					TotalNNZ:     total,
					Try:          try,
					BestVolume:   best.Load(),
					Elapsed:      time.Since(start),
				})
			},
			OnTry: func(try int, vol, incumbent int64, bestTry int) {
				best.Store(incumbent)
				req.Progress(Event{
					Stage:        StagePartition,
					CompletedNNZ: int(completed[try-1].Load()),
					TotalNNZ:     total,
					Try:          try,
					BestVolume:   incumbent,
					Elapsed:      time.Since(start),
				})
			},
		}
	}
	res, rep, err := e.eng.PartitionSearch(ctx, req.Matrix, p, req.Method, e.options(req), req.Seed, spec, hooks)
	if err != nil {
		return nil, err
	}
	if req.Progress != nil {
		req.Progress(Event{
			Stage:        StageDone,
			CompletedNNZ: total,
			TotalNNZ:     total,
			Try:          rep.WinnerTry,
			BestVolume:   res.Volume,
			Elapsed:      time.Since(start),
		})
	}
	return res, nil
}

// Bipartition is Partition fixed at two parts; it exists because the
// paper's core contribution is the bipartitioning step. Requests asking
// for more than two parts are rejected with a *BipartitionPError.
func (e *Engine) Bipartition(ctx context.Context, req Request) (*Result, error) {
	p, err := req.resolve(false)
	if err != nil {
		return nil, err
	}
	if p > 2 {
		return nil, &BipartitionPError{P: p}
	}
	start := time.Now()
	_, emit := progressHooks(req, start)
	res, err := e.eng.Bipartition(ctx, req.Matrix, req.Method, e.options(req), NewRNG(req.Seed))
	if err != nil {
		return nil, err
	}
	emit(StageDone, req.Matrix.NNZ())
	return res, nil
}

// Refine improves the existing partitioning req.Parts (of req.P parts;
// default 2) without ever increasing its volume: for two parts it runs
// the paper's iterative refinement (Algorithm 2), for more it runs
// direct k-way greedy refinement under the λ−1 metric. req.Parts is not
// modified; the refined copy rides in the returned Result.
func (e *Engine) Refine(ctx context.Context, req Request) (*Result, error) {
	p, err := req.resolve(true)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	_, emit := progressHooks(req, start)
	opts := e.options(req)
	rng := NewRNG(req.Seed)

	parts := append([]int(nil), req.Parts...)
	var vol int64
	if p == 2 {
		parts, vol, err = e.eng.IterativeRefine(ctx, req.Matrix, parts, opts, rng)
	} else {
		vol, err = e.eng.KWayRefine(ctx, req.Matrix, parts, p, opts.Eps, rng)
	}
	if err != nil {
		return nil, err
	}
	emit(StageRefine, req.Matrix.NNZ())
	return &Result{Parts: parts, Volume: vol, Method: req.Method, Refined: true}, nil
}

// Evaluation is the quality report of Evaluate.
type Evaluation struct {
	// Volume is the communication volume V of eqn (3).
	Volume int64
	// Imbalance is the achieved load imbalance ε' with
	// max_i |A_i| = (1+ε')·N/p.
	Imbalance float64
	// BSPCost is the BSP communication cost (Table II metric).
	BSPCost int64
}

// Evaluate measures an existing partitioning req.Parts over req.P parts
// (default 2) on the engine's pool: communication volume, achieved
// imbalance, and BSP cost.
func (e *Engine) Evaluate(ctx context.Context, req Request) (*Evaluation, error) {
	p, err := req.resolve(true)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	_, emit := progressHooks(req, start)
	vol, err := e.eng.Volume(ctx, req.Matrix, req.Parts, p)
	if err != nil {
		return nil, err
	}
	cost, _ := metrics.BSPCost(req.Matrix, req.Parts, p)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	emit(StageEvaluate, req.Matrix.NNZ())
	return &Evaluation{
		Volume:    vol,
		Imbalance: metrics.Imbalance(req.Parts, p),
		BSPCost:   cost,
	}, nil
}
