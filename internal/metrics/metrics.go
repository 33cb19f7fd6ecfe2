// Package metrics implements the evaluation metrics of the paper:
// communication volume (eqns (2)–(3)), load imbalance (eqn (1)), per-row
// and per-column connectivity λ, and the BSP cost used in Table II.
package metrics

import (
	"fmt"

	"mediumgrain/internal/sparse"
)

// Volume returns the communication volume V of distributing the nonzeros
// of a over p parts as given by parts (parts[k] is the owner of the k-th
// nonzero): the sum over all rows and columns of λ−1, where λ counts the
// distinct parts owning nonzeros in that row/column (paper eqns (2),(3)).
func Volume(a *sparse.Matrix, parts []int, p int) int64 {
	lr, lc := Lambdas(a, parts, p)
	var v int64
	for _, l := range lr {
		if l > 1 {
			v += int64(l - 1)
		}
	}
	for _, l := range lc {
		if l > 1 {
			v += int64(l - 1)
		}
	}
	return v
}

// Lambdas returns per-row and per-column connectivity counts: the number
// of distinct parts owning nonzeros in each row and column. Empty rows
// and columns have λ = 0. It is the sequential, index-building form of
// LambdasIndexed.
func Lambdas(a *sparse.Matrix, parts []int, p int) (rowLambda, colLambda []int) {
	return LambdasPool(a, parts, p, nil)
}

// PartSizes returns the number of nonzeros assigned to each part.
func PartSizes(parts []int, p int) []int64 {
	s := make([]int64, p)
	for _, pt := range parts {
		s[pt]++
	}
	return s
}

// Imbalance returns the achieved load imbalance ε' defined by
// max_i |A_i| = (1+ε') N/p, i.e. ε' = p·max|A_i|/N − 1. Zero nonzeros
// yield imbalance 0.
func Imbalance(parts []int, p int) float64 {
	n := len(parts)
	if n == 0 {
		return 0
	}
	sizes := PartSizes(parts, p)
	var max int64
	for _, s := range sizes {
		if s > max {
			max = s
		}
	}
	return float64(max)*float64(p)/float64(n) - 1
}

// CheckBalance verifies the paper's load-balance constraint (eqn (1)):
// max_i |A_i| ≤ (1+eps)·ceil(N/p) fails only when strictly exceeded.
// The ceiling matches the integral-nonzero interpretation used by
// Mondriaan (a perfectly even split is always feasible).
func CheckBalance(parts []int, p int, eps float64) error {
	n := len(parts)
	if n == 0 {
		return nil
	}
	sizes := PartSizes(parts, p)
	limit := int64((1 + eps) * float64(n) / float64(p))
	ceilAvg := int64((n + p - 1) / p)
	if limit < ceilAvg {
		limit = ceilAvg
	}
	for i, s := range sizes {
		if s > limit {
			return fmt.Errorf("metrics: part %d has %d nonzeros, limit %d (N=%d, p=%d, eps=%g)",
				i, s, limit, n, p, eps)
		}
	}
	return nil
}

// ValidateParts checks that every entry of parts is in [0, p) and that
// parts covers every nonzero of a.
func ValidateParts(a *sparse.Matrix, parts []int, p int) error {
	if len(parts) != a.NNZ() {
		return fmt.Errorf("metrics: parts length %d != nnz %d", len(parts), a.NNZ())
	}
	for k, pt := range parts {
		if pt < 0 || pt >= p {
			return fmt.Errorf("metrics: nonzero %d assigned to part %d, out of range [0,%d)", k, pt, p)
		}
	}
	return nil
}
