package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"mediumgrain/internal/hgpart"
	"mediumgrain/internal/hypergraph"
	"mediumgrain/internal/metrics"
	"mediumgrain/internal/pool"
	"mediumgrain/internal/sparse"
)

// Method identifies a bipartitioning method from the paper's evaluation.
type Method int

const (
	// MethodRowNet is the 1D row-net model: columns are vertices, rows
	// are nets; columns are never cut.
	MethodRowNet Method = iota
	// MethodColNet is the 1D column-net model (row-net of the transpose).
	MethodColNet
	// MethodLocalBest runs both 1D models and keeps the lower-volume
	// result — Mondriaan ≤3.11's default ("LB" in the paper).
	MethodLocalBest
	// MethodFineGrain is the 2D fine-grain model: one vertex per nonzero
	// ("FG").
	MethodFineGrain
	// MethodMediumGrain is the paper's method ("MG"), the default of
	// Mondriaan 4.0.
	MethodMediumGrain
)

// String returns the paper's abbreviation.
func (m Method) String() string {
	switch m {
	case MethodRowNet:
		return "RN"
	case MethodColNet:
		return "CN"
	case MethodLocalBest:
		return "LB"
	case MethodFineGrain:
		return "FG"
	case MethodMediumGrain:
		return "MG"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// ParseMethod converts an abbreviation (case-sensitive, as printed by
// String) into a Method.
func ParseMethod(s string) (Method, error) {
	switch s {
	case "RN", "rownet":
		return MethodRowNet, nil
	case "CN", "colnet":
		return MethodColNet, nil
	case "LB", "localbest":
		return MethodLocalBest, nil
	case "FG", "finegrain":
		return MethodFineGrain, nil
	case "MG", "mediumgrain":
		return MethodMediumGrain, nil
	}
	return 0, fmt.Errorf("core: unknown method %q", s)
}

// Options configures a partitioning run.
type Options struct {
	// Eps is the allowed load-imbalance fraction ε of eqn (1).
	// The paper uses 0.03 throughout.
	Eps float64
	// Refine applies iterative refinement (Algorithm 2) after
	// partitioning ("+IR" in the paper).
	Refine bool
	// Config selects the hypergraph-partitioner engine, including
	// ParallelFM's coarse-level try racing.
	Config hgpart.Config
	// Split overrides the medium-grain initial-split strategy
	// (default SplitNNZ, i.e. Algorithm 1). Ignored by other methods.
	Split SplitStrategy
	// TargetFrac is the desired weight fraction of part 0 (default 0.5);
	// recursive bisection uses uneven fractions for non-power-of-two p.
	TargetFrac float64
}

// DefaultOptions returns the paper's experimental settings: ε = 0.03,
// Mondriaan-like engine, no refinement.
func DefaultOptions() Options {
	return Options{Eps: 0.03, Config: hgpart.ConfigMondriaanLike()}
}

// Result is the outcome of a bipartitioning run.
type Result struct {
	// Parts assigns each nonzero (in COO order) to part 0 or 1.
	Parts []int
	// Volume is the communication volume V of eqn (3).
	Volume int64
	// Method that produced the result (LocalBest reports the winner's
	// volume but keeps its own label).
	Method Method
	// Refined reports whether iterative refinement ran.
	Refined bool
}

// tieShape is the logical shape of the enclosing problem, used only for
// the medium-grain split's global tie orientation. Recursive bisection
// hands compacted subproblems to bipartitionScratch with the root
// matrix's shape, so every node breaks ties as the root does no matter
// how many empty rows and columns its compaction dropped.
type tieShape struct {
	rows, cols int
}

// bipartitionScratch is the engine behind every bipartition entry point:
// it indexes the matrix once and shares that CSR/CSC index between the
// model build and iterative refinement, drawing all working memory from
// the per-worker scratch. A canceled ctx aborts between phases with
// ctx.Err(); an uncanceled ctx never changes any result bit.
func bipartitionScratch(ctx context.Context, a *sparse.Matrix, shape tieShape, method Method, opts Options, rng *rand.Rand, pl *pool.Pool, sc *scratch) (*Result, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if opts.Eps < 0 {
		return nil, fmt.Errorf("core: negative eps %g", opts.Eps)
	}
	if opts.TargetFrac == 0 {
		opts.TargetFrac = 0.5
	}
	if opts.TargetFrac <= 0 || opts.TargetFrac >= 1 {
		return nil, fmt.Errorf("core: target fraction %g outside (0,1)", opts.TargetFrac)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Every method returns the cut of its hypergraph model, which is the
	// volume of the nonzero bipartition it decodes to (§III-A), so no
	// node pays a recount; partition recounts the final p-way answer.
	ix := sc.index(a)
	var parts []int
	var vol int64
	switch method {
	case MethodRowNet:
		parts, vol = bipartitionRowNet(ctx, a, opts, rng, pl, ix, sc)
	case MethodColNet:
		parts, vol = bipartitionColNet(ctx, a, opts, rng, pl, ix, sc)
	case MethodLocalBest:
		parts, vol = bipartitionRowNet(ctx, a, opts, rng, pl, ix, sc)
		if p2, v2 := bipartitionColNet(ctx, a, opts, rng, pl, ix, sc); v2 < vol {
			parts, vol = p2, v2
		}
	case MethodFineGrain:
		parts, vol = bipartitionFineGrain(ctx, a, opts, rng, pl, ix, sc)
	case MethodMediumGrain:
		parts, vol = bipartitionMediumGrain(ctx, a, shape, opts, rng, pl, ix, sc)
	default:
		return nil, fmt.Errorf("core: unknown method %v", method)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	if opts.Refine {
		// The refinement loop's invariant is the current volume.
		parts, vol = iterativeRefineIndexed(ctx, a, parts, opts, rng, ix, sc)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return &Result{
		Parts:   parts,
		Volume:  vol,
		Method:  method,
		Refined: opts.Refine,
	}, nil
}

// caps converts (eps, targetFrac, total nonzeros) into per-part weight
// caps. Both caps keep at least one even-split's room so tiny matrices
// remain feasible.
func caps(nnz int, opts Options) [2]int64 {
	f := opts.TargetFrac
	c0 := int64((1 + opts.Eps) * f * float64(nnz))
	c1 := int64((1 + opts.Eps) * (1 - f) * float64(nnz))
	// A split exactly on target must always be feasible: floor caps at
	// the ceiling of the target weights.
	if min := int64(math.Ceil(f * float64(nnz))); c0 < min {
		c0 = min
	}
	if min := int64(math.Ceil((1 - f) * float64(nnz))); c1 < min {
		c1 = min
	}
	return [2]int64{c0, c1}
}

func bipartitionRowNet(ctx context.Context, a *sparse.Matrix, opts Options, rng *rand.Rand, pl *pool.Pool, ix *sparse.Index, sc *scratch) ([]int, int64) {
	h := hypergraph.RowNetIndexed(a, &ix.Row, &sc.hb)
	colParts, cut := hgpart.Bipartition(ctx, h, caps(a.NNZ(), opts), rng, opts.Config, pl, &sc.hg)
	return hypergraph.VertexPartsToNonzeros(a, colParts), cut
}

func bipartitionColNet(ctx context.Context, a *sparse.Matrix, opts Options, rng *rand.Rand, pl *pool.Pool, ix *sparse.Index, sc *scratch) ([]int, int64) {
	h := hypergraph.ColNetIndexed(a, &ix.Col, &sc.hb)
	rowParts, cut := hgpart.Bipartition(ctx, h, caps(a.NNZ(), opts), rng, opts.Config, pl, &sc.hg)
	return hypergraph.RowPartsToNonzeros(a, rowParts), cut
}

func bipartitionFineGrain(ctx context.Context, a *sparse.Matrix, opts Options, rng *rand.Rand, pl *pool.Pool, ix *sparse.Index, sc *scratch) ([]int, int64) {
	h := hypergraph.FineGrainIndexed(a, ix, &sc.hb)
	return hgpart.Bipartition(ctx, h, caps(a.NNZ(), opts), rng, opts.Config, pl, &sc.hg)
}

func bipartitionMediumGrain(ctx context.Context, a *sparse.Matrix, shape tieShape, opts Options, rng *rand.Rand, pl *pool.Pool, ix *sparse.Index, sc *scratch) ([]int, int64) {
	var inRow []bool
	if opts.Split == SplitNNZ {
		inRow = splitParallelShape(a, rng, shape.rows, shape.cols, pl)
	} else {
		inRow = Split(a, opts.Split, rng) // the other strategies are shape-free
	}
	bm, err := buildBModel(a, inRow, ix, sc)
	if err != nil {
		// buildBModel only fails on length mismatch, impossible here.
		panic(err)
	}
	vparts, cut := hgpart.Bipartition(ctx, bm.H, caps(a.NNZ(), opts), rng, opts.Config, pl, &sc.hg)
	parts := bm.NonzeroParts(vparts)
	// Degenerate splits can produce indivisible vertices heavier than the
	// balance cap (e.g. a matrix that is one dense column groups into a
	// single Ac vertex). The fine-grain model always has unit weights, so
	// fall back to it rather than return an infeasible partitioning.
	sizes := metrics.PartSizes(parts, 2)
	limits := caps(a.NNZ(), opts)
	if sizes[0] > limits[0] || sizes[1] > limits[1] {
		return bipartitionFineGrain(ctx, a, opts, rng, pl, ix, sc)
	}
	return parts, cut
}
