package report

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// DiffRow compares one grid point — a (matrix, p, method, workers)
// combination present in both reports — between two benchmark runs.
type DiffRow struct {
	Matrix  string
	P       int
	Method  string
	Workers int

	OldWallMS, NewWallMS float64
	OldVolume, NewVolume int64
	OldAllocs, NewAllocs uint64
	OldBytes, NewBytes   uint64
	// Ratios are new/old; 0 when the old value is 0 (except VolumeRatio,
	// which is 1 for 0 -> 0).
	WallRatio, VolumeRatio, BytesRatio float64
}

// DiffBench matches the grid points of two reports and returns one row
// per point present in both, in a stable (matrix, p, workers) order.
// Points only present in one report are ignored: the quick CI grid is a
// subset of the full grid, and the comparison is only meaningful where
// both runs measured the same work.
func DiffBench(oldRep, newRep *BenchReport) []DiffRow {
	type key struct {
		matrix, method string
		p, workers     int
	}
	oldBy := make(map[key]BenchEntry, len(oldRep.Entries))
	for _, e := range oldRep.Entries {
		oldBy[key{e.Matrix, e.Method, e.P, e.Workers}] = e
	}
	var rows []DiffRow
	for _, e := range newRep.Entries {
		o, ok := oldBy[key{e.Matrix, e.Method, e.P, e.Workers}]
		if !ok {
			continue
		}
		if o.NNZ != e.NNZ || o.Rows != e.Rows || o.Cols != e.Cols {
			// Same grid name but a different matrix (e.g. reports taken
			// at different -scale); comparing them would be meaningless.
			continue
		}
		row := DiffRow{
			Matrix: e.Matrix, P: e.P, Method: e.Method, Workers: e.Workers,
			OldWallMS: o.WallMS, NewWallMS: e.WallMS,
			OldVolume: o.Volume, NewVolume: e.Volume,
			OldAllocs: o.AllocsPerOp, NewAllocs: e.AllocsPerOp,
			OldBytes: o.BytesPerOp, NewBytes: e.BytesPerOp,
		}
		if o.WallMS > 0 {
			row.WallRatio = e.WallMS / o.WallMS
		}
		if o.Volume > 0 {
			row.VolumeRatio = float64(e.Volume) / float64(o.Volume)
		} else if e.Volume == 0 {
			row.VolumeRatio = 1
		}
		if o.BytesPerOp > 0 {
			row.BytesRatio = float64(e.BytesPerOp) / float64(o.BytesPerOp)
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Matrix != b.Matrix {
			return a.Matrix < b.Matrix
		}
		if a.P != b.P {
			return a.P < b.P
		}
		return a.Workers < b.Workers
	})
	return rows
}

// VolumeRegressions returns the rows whose communication volume worsened
// by more than tol (e.g. 0.05 for 5%). Zero-volume baselines regress
// whenever the new volume is nonzero.
func VolumeRegressions(rows []DiffRow, tol float64) []DiffRow {
	var bad []DiffRow
	for _, r := range rows {
		if r.OldVolume == 0 {
			if r.NewVolume > 0 {
				bad = append(bad, r)
			}
			continue
		}
		if r.VolumeRatio > 1+tol {
			bad = append(bad, r)
		}
	}
	return bad
}

// FormatDiff renders the comparison as an aligned text table: the
// quality gate's volume columns plus the informational wall-time and
// bytes-per-op deltas, so the CI log doubles as the perf trend record.
// A last line gives the volume summed over all rows, old and new, and
// their ratio, so a grid-level quality claim reads off one line.
func FormatDiff(rows []DiffRow) string {
	if len(rows) == 0 {
		return "no common grid points\n"
	}
	mb := func(b uint64) float64 { return float64(b) / (1024 * 1024) }
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %-4s %-3s %-3s %12s %12s %8s %10s %10s %8s %9s %9s %8s\n",
		"matrix", "p", "w", "m", "old ms", "new ms", "ms x", "old vol", "new vol", "vol x",
		"old MB/op", "new MB/op", "MB x")
	var oldSum, newSum int64
	for _, r := range rows {
		oldSum += r.OldVolume
		newSum += r.NewVolume
		fmt.Fprintf(&b, "%-18s %-4d %-3d %-3s %12.2f %12.2f %8.2f %10d %10d %8.3f %9.1f %9.1f %8.2f\n",
			r.Matrix, r.P, r.Workers, r.Method,
			r.OldWallMS, r.NewWallMS, r.WallRatio,
			r.OldVolume, r.NewVolume, r.VolumeRatio,
			mb(r.OldBytes), mb(r.NewBytes), r.BytesRatio)
	}
	fmt.Fprintf(&b, "total volume over %d points: %d -> %d", len(rows), oldSum, newSum)
	if oldSum > 0 {
		fmt.Fprintf(&b, " (x%.4f)", float64(newSum)/float64(oldSum))
	}
	b.WriteString("\n")
	return b.String()
}

// PerfSummary aggregates the informational per-point deltas into two
// geometric-mean ratios (wall time and bytes/op, new/old), skipping
// points without a comparable measurement. Each metric carries its own
// sample count — older reports may lack bytes_per_op on some points,
// and a 4-point bytes geomean must not masquerade as a 15-point one.
func PerfSummary(rows []DiffRow) (wallGeo, bytesGeo float64, wallN, bytesN int) {
	var wallSum, bytesSum float64
	for _, r := range rows {
		if r.WallRatio > 0 {
			wallSum += math.Log(r.WallRatio)
			wallN++
		}
		if r.BytesRatio > 0 {
			bytesSum += math.Log(r.BytesRatio)
			bytesN++
		}
	}
	if wallN > 0 {
		wallGeo = math.Exp(wallSum / float64(wallN))
	}
	if bytesN > 0 {
		bytesGeo = math.Exp(bytesSum / float64(bytesN))
	}
	return wallGeo, bytesGeo, wallN, bytesN
}
