package service

import (
	"mediumgrain/internal/cluster"
	"mediumgrain/internal/sparse"
)

// MatrixHash returns the content address of a matrix pattern; the
// derivation lives in internal/cluster so the cluster router computes
// the same addresses without importing the service. See
// cluster.MatrixHash.
func MatrixHash(a *sparse.Matrix) string { return cluster.MatrixHash(a) }

// CacheKey derives the content address of a result from the matrix hash
// and the partitioning configuration; see cluster.CacheKey for the full
// semantics (FM modes, search spec, version tag). The same key is the
// cluster routing key.
func CacheKey(matrixHash string, p int, method string, seed int64, eps float64, refine, exactFM, parallelFM bool, tries, budgetMS int) string {
	return cluster.CacheKey(matrixHash, p, method, seed, eps, refine, exactFM, parallelFM, tries, budgetMS)
}
