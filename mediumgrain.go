// Package mediumgrain is a Go implementation of the medium-grain method
// for fast 2D bipartitioning of sparse matrices (Pelt & Bisseling, IPDPS
// 2014), together with the classical baselines it is evaluated against
// (row-net, column-net, localbest, fine-grain), the iterative-refinement
// post-process of the paper, recursive bisection to general p, a
// from-scratch multilevel FM hypergraph partitioner, and a parallel SpMV
// substrate for validating communication volumes.
//
// Quick start — create one Engine for the life of the process and run
// every request through it:
//
//	a, _ := mediumgrain.ReadMatrixMarketFile("matrix.mtx")
//	eng := mediumgrain.New(mediumgrain.EngineConfig{Workers: -1}) // GOMAXPROCS pool
//	res, _ := eng.Partition(context.Background(), mediumgrain.Request{
//	    Matrix: a,
//	    P:      4,
//	    Method: mediumgrain.MethodMediumGrain,
//	    Seed:   42,
//	    Refine: true, // apply the paper's iterative refinement
//	})
//	fmt.Println("communication volume:", res.Volume)
//
// The Engine owns the worker pool and the per-worker scratch memory, is
// safe for concurrent use, and honors its context: canceling ctx stops
// the computation cooperatively (recursive bisection nodes, multilevel
// coarsening levels, FM passes, and metric scan chunks all observe it),
// returns ctx.Err() promptly, and leaks nothing. Requests are seeded:
// equal seeds give bit-identical results at every worker count.
//
// # Parallel execution
//
// There is one partitioning algorithm; an Engine's worker count only
// decides how many goroutines execute it:
//
//   - Workers == N >= 1 runs on a pool of N goroutines; N < 0 selects
//     runtime.GOMAXPROCS(0).
//   - Workers == 0 (the zero value) runs the same algorithm inline on
//     the calling goroutine.
//
// The pool is a counting semaphore threaded through the whole run.
// Recursive bisection fans the two disjoint halves of every split out
// over it (Partition on p parts exposes up to p-way task parallelism);
// inside each bisection, the medium-grain split scores nonzeros in
// parallel, and the multilevel hypergraph partitioner runs its
// initial-partition tries (and, with ParallelFM, its coarse-level FM
// tries) as independent subproblems; metric and k-way evaluation split
// their row/column scans. Coarsening's matching (one greedy sweep in
// vertex index order), contraction (which merges nets with identical
// pin sets into one weighted net) and every FM pass sequence that is
// not raced run sequentially on the calling goroutine.
//
// Determinism: every random choice is drawn from a deterministic
// stream — child subproblems receive RNG streams seeded from the parent
// stream in a fixed order before the fork, and parallel phases draw
// their randomness before fanning out — so a given seed produces
// bit-identical partitionings for every worker count, 0 included, and
// any scheduling. Where the pool size does select between two
// implementations (fused or per-row k-way counts), both produce the
// same bits.
//
// # FM refinement
//
// The hypergraph partitioner's FM refinement has three layers (see
// internal/hgpart's package comment for the full mechanics):
//
//   - Locked-net pruning: per-net locked-pin counts skip gain-update
//     scans that are provably no-ops. It never changes a result bit.
//   - Boundary-driven passes: once the state is feasible, each pass
//     seeds its gain buckets from the pins of cut nets only, grown
//     incrementally as moves cut new nets, with an adaptive early
//     exit — refinement cost tracks the partition boundary instead of
//     the hypergraph size. An infeasible state gets exact all-vertex
//     passes until balance is restored.
//   - Coarse-level try racing (PartitionerConfig.ParallelFM): small
//     coarse levels race several FM sequences across the worker pool —
//     the serial continuation plus extra tries on side substreams — and
//     keep the best by (overload, cut, try index), so an extra try
//     displaces the serial result only when strictly better.
//
// ParallelFM is a quality knob, not a speedup: on the scale-1 mgbench
// grid (15 seeds, two workers) it costs about 55% more wall time for
// about 1.4% less total volume, a better trade than Search.Tries = 2
// (about 60% more time for 1.0% less volume). It is a mode switch:
// per-seed results differ from the default — the bench suite gates its
// quality delta at <= 5% volume per grid point — but within the mode
// results are bit-identical for a given seed at every worker count, 0
// included. ParallelFM shapes the multilevel bisections only: the
// paper's iterative refinement (Request.Refine, Algorithm 2) is a
// single serial KL/FM run per encoding in both modes.
//
// # Race-to-best search
//
// The paper competes on communication volume, not wall time, so spare
// cores can be spent on quality directly: setting Request.Search.Tries
// to N makes Engine.Partition race N fully deterministic seed variants
// of the request (variant i uses Seed+i) over the engine's existing
// worker budget and return the best. Because the partial volume down
// the bisection tree is a monotone lower bound on the final volume,
// variants that can no longer beat the running best are canceled early
// through per-try contexts; a variant that could still tie is never
// pruned, so the winner — lowest volume, then lowest try index — is
// bit-identical across repeated runs and worker counts. Search.Budget
// bounds the race's wall time (returning the best completed variant),
// and progress events stream the race via Event.Try and
// Event.BestVolume.
// See the Search type and ExampleEngine_search.
//
// # Memory model
//
// Recursive bisection keeps the per-node cost at O(nnz(sub)): every
// bisection node extracts its subproblem as a *compact view* — nonzeros
// relabeled onto the occupied rows and columns, with back-maps to the
// parent's coordinates — instead of a full-dimension copy, and all
// working memory (the compaction maps, the CSR/CSC index shared by
// model build and refinement, hypergraph build arrays, the
// multilevel engine's matching/contraction/FM buffers) comes from an
// explicit scratch that is reused node to node. A call holds one
// scratch per goroutine that runs its bisection tree: a branch that runs
// inline keeps its parent's, and only a branch the pool runs on a helper
// goroutine checks one out. So a call holds at most max(Workers, 1)
// scratches, and an inline engine uses exactly one. The engine keeps up
// to that many between calls and hands the root's back first, so a
// steady-state call regrows no buffer, and buffer reuse is
// deterministic, unlike sync.Pool. Each node reorders the call's one
// index array in place rather than copying its halves out, and the
// CSR/CSC index stores nonzero positions as int32.
//
// Compaction never changes a tie: the relabeling is order preserving,
// and the medium-grain split's global tie orientation is decided from
// the root matrix's shape at every node.
//
// # Benchmarking
//
// The cmd/mgbench runner executes a fixed experiment grid over the
// synthetic corpus and writes a machine-readable report:
//
//	go run ./cmd/mgbench -out BENCH_$(date +%F).json
//
// Each JSON entry records matrix shape, p, method, worker count, wall
// time in milliseconds, communication volume, achieved imbalance,
// allocations and bytes per partitioning call ("allocs_per_op",
// "bytes_per_op"), and the speedup of the parallel run over the
// Workers=1 run of the same grid point ("speedup_vs_seq"); the header
// records the Go version, GOMAXPROCS, and the seed, so reports are
// comparable across commits. Raising -scale past 1 adds the huge tier —
// a generated grid Laplacian with millions of nonzeros, the paper's
// size regime — timed once per point over methods {MG, FG} and
// p ∈ {16, 64}. `make bench-json` is the
// one-command entry point, `make bench-diff OLD=a.json NEW=b.json`
// compares two reports grid point by grid point (failing on >5% volume
// regression), and CI runs a smoke grid on every push, gates it against
// the committed baseline report, and uploads the JSON artifact.
//
// The exported types are aliases of the internal implementation packages
// so that the whole surface is reachable from this single import.
package mediumgrain

import (
	"math/rand"
	"os"

	"mediumgrain/internal/cartesian"
	"mediumgrain/internal/core"
	"mediumgrain/internal/distio"
	"mediumgrain/internal/hgpart"
	"mediumgrain/internal/metrics"
	"mediumgrain/internal/sparse"
	"mediumgrain/internal/spmv"
)

// Matrix is a sparse matrix in coordinate format; see the methods on the
// type for construction, I/O, and pattern analysis.
type Matrix = sparse.Matrix

// Class labels a matrix rectangular / symmetric / square non-symmetric,
// the three groups of the paper's evaluation.
type Class = sparse.Class

// Matrix classes.
const (
	ClassRectangular  = sparse.ClassRectangular
	ClassSymmetric    = sparse.ClassSymmetric
	ClassSquareNonSym = sparse.ClassSquareNonSym
)

// Method selects a partitioning method.
type Method = core.Method

// Partitioning methods. MethodMediumGrain is the paper's contribution and
// the recommended default; MethodLocalBest is the strongest 1D baseline.
const (
	MethodRowNet      = core.MethodRowNet
	MethodColNet      = core.MethodColNet
	MethodLocalBest   = core.MethodLocalBest
	MethodFineGrain   = core.MethodFineGrain
	MethodMediumGrain = core.MethodMediumGrain
)

// ParseMethod converts an abbreviation ("MG", "LB", "FG", "RN", "CN") or
// full name ("mediumgrain", ...) into a Method.
func ParseMethod(s string) (Method, error) { return core.ParseMethod(s) }

// Options configures a partitioning run; see DefaultOptions.
type Options = core.Options

// Result is the outcome of a partitioning run: the per-nonzero part
// assignment and its communication volume.
type Result = core.Result

// SplitStrategy selects the medium-grain initial split (Algorithm 1 by
// default); alternatives exist for ablation studies.
type SplitStrategy = core.SplitStrategy

// Initial-split strategies.
const (
	SplitNNZ    = core.SplitNNZ
	SplitRandom = core.SplitRandom
	SplitAllAc  = core.SplitAllAc
	SplitAllAr  = core.SplitAllAr
)

// PartitionerConfig tunes the underlying multilevel hypergraph
// bipartitioner.
type PartitionerConfig = hgpart.Config

// MondriaanLikeConfig returns the engine preset mimicking Mondriaan's
// internal hypergraph partitioner (the paper's primary engine).
func MondriaanLikeConfig() PartitionerConfig { return hgpart.ConfigMondriaanLike() }

// AltConfig returns the alternative engine preset standing in for PaToH
// in the paper's Fig. 6 / Table II experiments.
func AltConfig() PartitionerConfig { return hgpart.ConfigAlt() }

// DefaultOptions returns the paper's experimental settings: ε = 0.03 and
// the Mondriaan-like engine, without iterative refinement.
func DefaultOptions() Options { return core.DefaultOptions() }

// NewRNG returns a seeded random source; every randomized choice of the
// library is driven by the rng passed in, so equal seeds give equal
// partitionings.
func NewRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// NewMatrix returns an empty rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix { return sparse.New(rows, cols) }

// ReadMatrixMarketFile loads a sparse matrix from a Matrix Market file.
func ReadMatrixMarketFile(path string) (*Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return sparse.ReadMatrixMarket(f)
}

// WriteMatrixMarketFile stores a matrix in Matrix Market format.
func WriteMatrixMarketFile(path string, a *Matrix) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sparse.WriteMatrixMarket(f, a); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// InitialSplit computes the medium-grain split A = Ar + Ac (Algorithm 1
// for SplitNNZ); inRow[k] is true when nonzero k belongs to the row
// group Ar.
func InitialSplit(a *Matrix, strategy SplitStrategy, rng *rand.Rand) []bool {
	return core.Split(a, strategy, rng)
}

// Volume returns the communication volume (eqn (3) of the paper) of a
// p-way nonzero partitioning.
func Volume(a *Matrix, parts []int, p int) int64 { return metrics.Volume(a, parts, p) }

// BSPCost returns the BSP communication cost (Table II metric): fan-out
// h-relation plus fan-in h-relation under a greedy vector distribution.
func BSPCost(a *Matrix, parts []int, p int) int64 {
	c, _ := metrics.BSPCost(a, parts, p)
	return c
}

// Imbalance returns the achieved load imbalance ε' of a partitioning:
// max_i |A_i| = (1+ε')·N/p.
func Imbalance(parts []int, p int) float64 { return metrics.Imbalance(parts, p) }

// CartesianResult is a coarse-grain p×q Cartesian partitioning (rows
// into p stripes, columns into q under multi-constraint balance).
type CartesianResult = cartesian.Result

// CartesianPartition runs the coarse-grain method of Çatalyürek &
// Aykanat (the rigid 2D baseline the medium-grain method relaxes, paper
// §II): phase 1 partitions rows into p stripes, phase 2 partitions
// columns into q parts balancing every stripe simultaneously.
func CartesianPartition(a *Matrix, p, q int, opts Options, rng *rand.Rand) (*CartesianResult, error) {
	return cartesian.Partition(a, p, q, opts, rng)
}

// VectorDistribution assigns input-vector and output-vector components
// to processors (-1 for components touching no nonzero).
type VectorDistribution = metrics.VectorDistribution

// OptimizeVectorDistribution improves vector-component placement by
// local search on the BSP cost; the matrix partition (and hence the
// total volume) is unchanged. Pass maxMoves 0 for the default budget.
func OptimizeVectorDistribution(a *Matrix, parts []int, p int, dist *VectorDistribution, maxMoves int) (*VectorDistribution, int64) {
	return metrics.OptimizeVectorDistribution(a, parts, p, dist, maxMoves)
}

// DistributedBundle is the on-disk form of a distributed matrix: the
// pattern, per-nonzero owners, and vector-component owners.
type DistributedBundle = distio.Bundle

// NewDistributedBundle assembles and validates a bundle; a nil vec
// derives the greedy vector distribution.
func NewDistributedBundle(a *Matrix, parts []int, p int, vec *VectorDistribution) (*DistributedBundle, error) {
	return distio.NewBundle(a, parts, p, vec)
}

// WriteDistributed stores a bundle as <dir>/<name>.{mtx,parts,invec,outvec}.
func WriteDistributed(dir, name string, b *DistributedBundle) error {
	return distio.Write(dir, name, b)
}

// ReadDistributed loads and validates a bundle written by
// WriteDistributed.
func ReadDistributed(dir, name string) (*DistributedBundle, error) {
	return distio.Read(dir, name)
}

// Distribution is a full data distribution for parallel SpMV: nonzero
// owners plus input/output vector owners.
type Distribution = spmv.Distribution

// SpMVStats reports the communication observed during a parallel SpMV
// run.
type SpMVStats = spmv.Stats

// NewDistribution derives a parallel-SpMV data distribution from a
// nonzero partitioning, choosing vector owners greedily.
func NewDistribution(a *Matrix, parts []int, p int) (*Distribution, error) {
	return spmv.NewDistribution(a, parts, p)
}

// RunSpMV executes the four-phase parallel SpMV (fan-out, local multiply,
// fan-in, summation) on goroutine processors and returns y = A·x with
// communication statistics; the measured traffic equals Volume.
func RunSpMV(a *Matrix, dist *Distribution, x []float64) ([]float64, *SpMVStats, error) {
	return spmv.Run(a, dist, x)
}

// BSPMachine holds BSP machine parameters (flop rate, per-word gap g,
// per-superstep latency l) for runtime prediction.
type BSPMachine = spmv.Machine

// BSPPrediction is the modelled cost breakdown of one parallel SpMV.
type BSPPrediction = spmv.Prediction

// PredictSpMV evaluates the BSP cost model T = w + g·h + 4·l for a
// partitioning on the given machine, returning computation, traffic,
// total cost, and modelled speedup.
func PredictSpMV(a *Matrix, parts []int, p int, m BSPMachine) (*BSPPrediction, error) {
	return spmv.Predict(a, parts, p, m)
}

// SymmetricVolume returns the total SpMV communication when the input
// and output vectors of a square matrix must share one distribution
// (the constraint of the enhanced models reviewed in the paper's §II);
// it is at least Volume.
func SymmetricVolume(a *Matrix, parts []int, p int) (int64, error) {
	return metrics.SymmetricVolume(a, parts, p)
}
