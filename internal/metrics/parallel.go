package metrics

import (
	"context"

	"mediumgrain/internal/pool"
	"mediumgrain/internal/sparse"
)

// cancelStride is how many rows/columns a scan processes between
// context checks: coarse enough that the check is free, fine enough
// that cancellation of a multi-million-row scan lands in microseconds.
const cancelStride = 4096

// LambdasPool is Lambdas evaluated on a worker pool: rows and columns
// are scanned concurrently, and each side is further split into
// contiguous chunks with per-chunk stamp arrays. Per-row and per-column
// results are independent, so the output equals Lambdas exactly for any
// pool (including nil, which runs inline).
func LambdasPool(a *sparse.Matrix, parts []int, p int, pl *pool.Pool) (rowLambda, colLambda []int) {
	return LambdasIndexed(context.Background(), a, parts, p, nil, nil, pl)
}

// LambdasIndexed is LambdasPool reusing caller-built row/column indexes
// (nil indexes are built here); callers that already hold the indexes
// avoid rebuilding them. The scan stops early — leaving the returned
// slices partially filled — once ctx is canceled; callers that pass a
// cancellable ctx must check ctx.Err() before using the result.
func LambdasIndexed(ctx context.Context, a *sparse.Matrix, parts []int, p int, rix *sparse.RowIndex, cix *sparse.ColIndex, pl *pool.Pool) (rowLambda, colLambda []int) {
	rowLambda = make([]int, a.Rows)
	colLambda = make([]int, a.Cols)
	pl.Fork(func() {
		if rix == nil {
			rix = sparse.BuildRowIndex(a)
		}
		pl.ForEach(a.Rows, func(lo, hi int) {
			stamp := make([]int, p)
			for i := range stamp {
				stamp[i] = -1
			}
			for i := lo; i < hi; i++ {
				if (i-lo)%cancelStride == 0 && ctx.Err() != nil {
					return
				}
				for _, k := range rix.Row(i) {
					if pt := parts[k]; stamp[pt] != i {
						stamp[pt] = i
						rowLambda[i]++
					}
				}
			}
		})
	}, func(bool) {
		if cix == nil {
			cix = sparse.BuildColIndex(a)
		}
		pl.ForEach(a.Cols, func(lo, hi int) {
			stamp := make([]int, p)
			for i := range stamp {
				stamp[i] = -1
			}
			for j := lo; j < hi; j++ {
				if (j-lo)%cancelStride == 0 && ctx.Err() != nil {
					return
				}
				for _, k := range cix.Col(j) {
					if pt := parts[k]; stamp[pt] != j {
						stamp[pt] = j
						colLambda[j]++
					}
				}
			}
		})
	})
	return rowLambda, colLambda
}

// VolumePool is Volume evaluated on a worker pool; identical to Volume
// for every pool size.
func VolumePool(a *sparse.Matrix, parts []int, p int, pl *pool.Pool) int64 {
	return VolumeIndexed(context.Background(), a, parts, p, nil, nil, pl)
}

// VolumeIndexed is Volume evaluated from caller-built row/column indexes
// (nil indexes are built privately). Hot paths that already indexed the
// matrix — model builds share the same CSR/CSC index — avoid the rebuild
// that Volume would otherwise pay. A canceled ctx stops the scan early;
// the returned volume is then meaningless and the caller must check
// ctx.Err().
func VolumeIndexed(ctx context.Context, a *sparse.Matrix, parts []int, p int, rix *sparse.RowIndex, cix *sparse.ColIndex, pl *pool.Pool) int64 {
	lr, lc := LambdasIndexed(ctx, a, parts, p, rix, cix, pl)
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
