package core

import (
	"context"
	"math/rand"

	"mediumgrain/internal/pool"
	"mediumgrain/internal/sparse"
)

// runHooks carries a run's optional observation callbacks down the
// bisection tree. A nil *runHooks (or a nil field) observes nothing and
// costs nothing; the callbacks never influence results.
type runHooks struct {
	// onLeaf fires once per finalized bisection leaf with the number of
	// nonzeros whose part just became final (possibly from several
	// goroutines at once).
	onLeaf func(nnz int)
	// onSplit fires once per completed bisection with that split's
	// communication volume. The final p-way volume is exactly the sum of
	// all split volumes (each split raises λ of its straddled rows and
	// columns by one), so the running sum is a monotone lower bound on
	// the final volume — the property the race-to-best search prunes on.
	onSplit func(vol int64)
}

// leafHooks wraps a bare leaf counter, the Partition/PartitionProgress
// surface. nil in, nil out.
func leafHooks(onLeaf func(int)) *runHooks {
	if onLeaf == nil {
		return nil
	}
	return &runHooks{onLeaf: onLeaf}
}

func (h *runHooks) leaf(nnz int) {
	if h != nil && h.onLeaf != nil {
		h.onLeaf(nnz)
	}
}

func (h *runHooks) split(vol int64) {
	if h != nil && h.onSplit != nil {
		h.onSplit(vol)
	}
}

// bisect assigns parts [base, base+q) to the nonzeros listed in subset
// (indices into a's COO arrays) by recursive bisection on the shared
// worker pool (nil = inline). Each node draws the two child seeds from
// its own rng in a fixed order before forking, so every subtree owns an
// independent deterministic RNG stream and the partitioning does not
// depend on scheduling or pool size. The two recursive calls write
// disjoint index sets of parts, making the concurrent writes safe.
//
// Each node works on its subproblem relabeled to the occupied rows and
// columns (a compact view) — O(nnz(sub)) per node instead of the
// O(Rows+Cols) a full-dimension copy would cost at every tree level.
// The continuing branch keeps its scratch (the parent's buffers are dead
// once left/right are computed); the forked branch checks one out of the
// run's store, bounding live scratches by the pool's concurrency.
//
// Cancellation: ctx is checked at every node entry and threaded into the
// multilevel engine below, so a cancel unwinds the whole tree promptly;
// forked branches still join (Fork always joins) and every checked-out
// scratch is returned on the way out, keeping the free list balanced.
func bisect(ctx context.Context, a *sparse.Matrix, subset []int, base, q int, parts []int, method Method, opts Options, delta float64, rng *rand.Rand, pl *pool.Pool, st *scratchStore, sc *scratch, hooks *runHooks) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if q == 1 {
		for _, k := range subset {
			parts[k] = base
		}
		hooks.leaf(len(subset))
		return nil
	}
	q0 := (q + 1) / 2
	q1 := q - q0

	view := sc.cpt.Compact(a, subset)
	localOpts := opts
	localOpts.Eps = delta
	localOpts.TargetFrac = float64(q0) / float64(q)
	res, err := bipartitionScratch(ctx, view.A, tieShape{a.Rows, a.Cols}, method, localOpts, rng, pl, sc)
	if err != nil {
		return err
	}
	hooks.split(res.Volume)

	var left, right []int
	for sk, k := range view.NzOf {
		if res.Parts[sk] == 0 {
			left = append(left, k)
		} else {
			right = append(right, k)
		}
	}
	seedL, seedR := rng.Int63(), rng.Int63()
	var errL, errR error
	pl.Fork(func() {
		errL = bisect(ctx, a, left, base, q0, parts, method, opts, delta,
			rand.New(rand.NewSource(seedL)), pl, st, sc, hooks)
	}, func() {
		sc2 := st.get()
		errR = bisect(ctx, a, right, base+q0, q1, parts, method, opts, delta,
			rand.New(rand.NewSource(seedR)), pl, st, sc2, hooks)
		st.put(sc2)
	})
	if errL != nil {
		return errL
	}
	return errR
}
