// Package cartesian implements the coarse-grain hypergraph method of
// Çatalyürek and Aykanat ("A hypergraph-partitioning approach for
// coarse-grain decomposition", SC 2001), which the paper positions the
// medium-grain method against (§II): a two-phase 2D Cartesian
// partitioning. Phase 1 partitions the rows into p stripes with the 1D
// column-net model; phase 2 partitions the columns into q parts under a
// multi-constraint balance requirement — each column part must hold
// roughly 1/q of the nonzeros of every row stripe — so that the final
// p×q Cartesian product is load balanced.
//
// The method treats whole rows and whole columns as atomic (hence
// "coarse-grain"); the medium-grain method relaxes exactly this rigidity.
package cartesian

import (
	"context"
	"fmt"
	"math/rand"

	"mediumgrain/internal/core"
	"mediumgrain/internal/metrics"
	"mediumgrain/internal/sparse"
)

// Result is a Cartesian p×q partitioning: nonzero (i, j) belongs to part
// RowPart[i]*Q + ColPart[j].
type Result struct {
	P, Q    int
	RowPart []int
	ColPart []int
	Parts   []int // per-nonzero, COO order
	Volume  int64
}

// Partition computes a p×q Cartesian partitioning of a with imbalance
// budget eps split between the two phases.
func Partition(a *sparse.Matrix, p, q int, opts core.Options, rng *rand.Rand) (*Result, error) {
	if p < 1 || q < 1 {
		return nil, fmt.Errorf("cartesian: invalid grid %dx%d", p, q)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}

	// Phase 1: 1D row partitioning into p stripes via the column-net
	// model (rows are vertices), reusing the library's recursive
	// bisection.
	phase1 := opts
	phase1.Eps = opts.Eps / 2
	rowRes, err := core.NewEngine(0).Partition(context.Background(), a, p, core.MethodColNet, phase1, rng)
	if err != nil {
		return nil, err
	}
	rowPart := make([]int, a.Rows)
	for k := range a.RowIdx {
		rowPart[a.RowIdx[k]] = rowRes.Parts[k]
	}

	// Phase 2: multi-constraint column partitioning into q parts.
	colPart := make([]int, a.Cols)
	cols := make([]int, a.Cols)
	for j := range cols {
		cols[j] = j
	}
	if err := bisectColumns(a, cols, 0, q, p, rowPart, colPart, opts.Eps/2, rng); err != nil {
		return nil, err
	}

	parts := make([]int, a.NNZ())
	for k := range parts {
		parts[k] = rowPart[a.RowIdx[k]]*q + colPart[a.ColIdx[k]]
	}
	return &Result{
		P: p, Q: q,
		RowPart: rowPart,
		ColPart: colPart,
		Parts:   parts,
		Volume:  metrics.Volume(a, parts, p*q),
	}, nil
}

// bisectColumns recursively splits the given columns into q parts with
// per-stripe balance.
func bisectColumns(a *sparse.Matrix, cols []int, base, q, stripes int, rowPart, colPart []int, eps float64, rng *rand.Rand) error {
	if q == 1 {
		for _, j := range cols {
			colPart[j] = base
		}
		return nil
	}
	q0 := (q + 1) / 2
	frac := float64(q0) / float64(q)

	side := multiConstraintBipartition(a, cols, stripes, rowPart, frac, eps, rng)
	var left, right []int
	for idx, j := range cols {
		if side[idx] == 0 {
			left = append(left, j)
		} else {
			right = append(right, j)
		}
	}
	if err := bisectColumns(a, left, base, q0, stripes, rowPart, colPart, eps, rng); err != nil {
		return err
	}
	return bisectColumns(a, right, base+q0, q-q0, stripes, rowPart, colPart, eps, rng)
}

// colNet is one row of the matrix restricted to the working column set.
type colNet struct {
	pins []int // local column indices
	ct   [2]int
}

// multiConstraintBipartition splits the listed columns into two sides so
// that, for every row stripe, side 0 receives about `frac` of the
// stripe's nonzeros. The objective is the number of matrix rows whose
// nonzeros (within the listed columns) span both sides — the row-net cut
// phase 2 of the coarse-grain method minimizes. A greedy placement is
// improved by first-improvement FM-style passes restricted to feasible
// moves.
func multiConstraintBipartition(a *sparse.Matrix, cols []int, stripes int, rowPart []int, frac, eps float64, rng *rand.Rand) []int {
	nc := len(cols)
	side := make([]int, nc)
	if nc == 0 {
		return side
	}
	colIdx := make(map[int]int, nc)
	for idx, j := range cols {
		colIdx[j] = idx
	}

	// Multi-constraint weight vectors and restricted row nets.
	wt := make([][]int64, nc)
	for idx := range wt {
		wt[idx] = make([]int64, stripes)
	}
	stripeTotal := make([]int64, stripes)
	nets := map[int]*colNet{}
	colNets := make([][]*colNet, nc)
	for k := range a.RowIdx {
		idx, ok := colIdx[a.ColIdx[k]]
		if !ok {
			continue
		}
		i := a.RowIdx[k]
		s := rowPart[i]
		wt[idx][s]++
		stripeTotal[s]++
		n, ok := nets[i]
		if !ok {
			n = &colNet{}
			nets[i] = n
		}
		n.pins = append(n.pins, idx)
	}
	for _, n := range nets {
		// dedup pins (several nonzeros of a row can share a column only
		// in non-canonical matrices, but stay safe)
		seen := map[int]bool{}
		uniq := n.pins[:0]
		for _, p := range n.pins {
			if !seen[p] {
				seen[p] = true
				uniq = append(uniq, p)
			}
		}
		n.pins = uniq
		for _, p := range n.pins {
			colNets[p] = append(colNets[p], n)
		}
	}

	limit := func(sideNo int) []int64 {
		f := frac
		if sideNo == 1 {
			f = 1 - frac
		}
		out := make([]int64, stripes)
		for s := range out {
			c := int64((1 + eps) * f * float64(stripeTotal[s]))
			if min := int64(f*float64(stripeTotal[s])) + 1; c < min {
				c = min
			}
			out[s] = c
		}
		return out
	}
	limits := [2][]int64{limit(0), limit(1)}
	var load [2][]int64
	load[0] = make([]int64, stripes)
	load[1] = make([]int64, stripes)

	fits := func(sideNo, idx int) bool {
		for s := 0; s < stripes; s++ {
			if wt[idx][s] > 0 && load[sideNo][s]+wt[idx][s] > limits[sideNo][s] {
				return false
			}
		}
		return true
	}
	apply := func(sideNo, idx, sign int) {
		for s := 0; s < stripes; s++ {
			load[sideNo][s] += int64(sign) * wt[idx][s]
		}
	}

	// Greedy initial placement in random order.
	for _, idx := range rng.Perm(nc) {
		choose := 0
		f0, f1 := fits(0, idx), fits(1, idx)
		switch {
		case f0 && f1:
			// side with more total headroom
			var h0, h1 int64
			for s := 0; s < stripes; s++ {
				h0 += limits[0][s] - load[0][s]
				h1 += limits[1][s] - load[1][s]
			}
			if h1 > h0 {
				choose = 1
			}
		case f1:
			choose = 1
		}
		side[idx] = choose
		apply(choose, idx, +1)
	}
	for _, n := range nets {
		n.ct[0], n.ct[1] = 0, 0
		for _, p := range n.pins {
			n.ct[side[p]]++
		}
	}

	// FM-style passes: move any column whose flip reduces the cut and
	// stays feasible on every stripe constraint; repeat to fixpoint.
	gain := func(idx int) int {
		from := side[idx]
		g := 0
		for _, n := range colNets[idx] {
			if n.ct[from] == 1 && n.ct[1-from] > 0 {
				g++ // net becomes uncut
			}
			if n.ct[1-from] == 0 && n.ct[from] > 1 {
				g-- // net becomes cut
			}
		}
		return g
	}
	for pass := 0; pass < 8; pass++ {
		improved := false
		for _, idx := range rng.Perm(nc) {
			if gain(idx) <= 0 {
				continue
			}
			to := 1 - side[idx]
			if !fits(to, idx) {
				continue
			}
			apply(side[idx], idx, -1)
			apply(to, idx, +1)
			for _, n := range colNets[idx] {
				n.ct[side[idx]]--
				n.ct[to]++
			}
			side[idx] = to
			improved = true
		}
		if !improved {
			break
		}
	}
	return side
}
