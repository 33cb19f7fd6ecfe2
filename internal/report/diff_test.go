package report

import (
	"strings"
	"testing"
)

func diffFixture() (*BenchReport, *BenchReport) {
	mk := func(matrix string, p int, nnz int, wall float64, vol int64) BenchEntry {
		return BenchEntry{Matrix: matrix, Method: "MG", P: p, Workers: 1,
			Rows: nnz, Cols: nnz, NNZ: nnz, WallMS: wall, Volume: vol}
	}
	oldRep := NewBenchReport("2026-01-01T00:00:00Z", 1, 1)
	oldRep.Entries = []BenchEntry{
		mk("lap", 2, 100, 10, 100),
		mk("lap", 64, 100, 50, 600),
		mk("zero", 2, 40, 1, 0),
		mk("rescaled", 2, 100, 5, 50),
		mk("old-only", 2, 10, 1, 1),
	}
	newRep := NewBenchReport("2026-01-02T00:00:00Z", 1, 1)
	newRep.Entries = []BenchEntry{
		mk("lap", 2, 100, 8, 104),      // +4% volume: within tolerance
		mk("lap", 64, 100, 60, 700),    // +16.7%: regression
		mk("zero", 2, 40, 1, 0),        // stays perfect
		mk("rescaled", 2, 900, 40, 90), // same name, different matrix
		mk("new-only", 2, 10, 1, 1),
	}
	return oldRep, newRep
}

func TestDiffBenchMatching(t *testing.T) {
	oldRep, newRep := diffFixture()
	rows := DiffBench(oldRep, newRep)
	// "old-only"/"new-only" are unmatched; "rescaled" has a different
	// nnz and must be skipped; 3 comparable points remain.
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3: %+v", len(rows), rows)
	}
	for _, r := range rows {
		if r.Matrix == "rescaled" || r.Matrix == "old-only" || r.Matrix == "new-only" {
			t.Fatalf("row %q should not be compared", r.Matrix)
		}
	}
	if rows[0].Matrix != "lap" || rows[0].P != 2 || rows[1].P != 64 {
		t.Fatalf("rows not in (matrix, p) order: %+v", rows)
	}
	if got := rows[1].VolumeRatio; got < 1.16 || got > 1.17 {
		t.Fatalf("lap p=64 volume ratio %g, want ~1.167", got)
	}
}

func TestVolumeRegressions(t *testing.T) {
	oldRep, newRep := diffFixture()
	rows := DiffBench(oldRep, newRep)
	bad := VolumeRegressions(rows, 0.05)
	if len(bad) != 1 || bad[0].Matrix != "lap" || bad[0].P != 64 {
		t.Fatalf("regressions = %+v, want exactly lap/p=64", bad)
	}
	// A zero-volume baseline regresses as soon as volume appears.
	for i := range newRep.Entries {
		if newRep.Entries[i].Matrix == "zero" {
			newRep.Entries[i].Volume = 3
		}
	}
	bad = VolumeRegressions(DiffBench(oldRep, newRep), 0.05)
	if len(bad) != 2 {
		t.Fatalf("zero-baseline regression not detected: %+v", bad)
	}
}

func TestFormatDiff(t *testing.T) {
	oldRep, newRep := diffFixture()
	out := FormatDiff(DiffBench(oldRep, newRep))
	if !strings.Contains(out, "lap") || !strings.Contains(out, "vol x") {
		t.Fatalf("unexpected table:\n%s", out)
	}
	if !strings.Contains(out, "MB x") {
		t.Fatalf("table is missing the bytes/op delta column:\n%s", out)
	}
	// lap p=2 100 -> 104, lap p=64 600 -> 700, zero 0 -> 0.
	if !strings.Contains(out, "total volume over 3 points: 700 -> 804 (x1.1486)") {
		t.Fatalf("table is missing the summed-volume line:\n%s", out)
	}
	if got := FormatDiff(nil); !strings.Contains(got, "no common grid points") {
		t.Fatalf("empty diff rendered %q", got)
	}
}

func TestPerfSummary(t *testing.T) {
	rows := []DiffRow{
		{WallRatio: 0.5, BytesRatio: 0.8},
		{WallRatio: 2.0, BytesRatio: 0.2},
		{WallRatio: 0, BytesRatio: 0}, // unmeasured point is skipped
	}
	wall, bytes, wallN, bytesN := PerfSummary(rows)
	if wallN != 2 || bytesN != 2 {
		t.Fatalf("counts = %d %d, want 2 2", wallN, bytesN)
	}
	if wall < 0.999 || wall > 1.001 {
		t.Fatalf("wall geomean = %g, want 1.0", wall)
	}
	if bytes < 0.399 || bytes > 0.401 {
		t.Fatalf("bytes geomean = %g, want 0.4", bytes)
	}
	// A point measured on one metric only must not inflate the other
	// metric's count.
	_, _, wallN, bytesN = PerfSummary(append(rows, DiffRow{WallRatio: 1.5}))
	if wallN != 3 || bytesN != 2 {
		t.Fatalf("mixed counts = %d %d, want 3 2", wallN, bytesN)
	}
	if w, b, wn, bn := PerfSummary(nil); w != 0 || b != 0 || wn != 0 || bn != 0 {
		t.Fatalf("empty summary = %g %g %d %d", w, b, wn, bn)
	}
}
