package cartesian

import (
	"context"
	"math/rand"
	"testing"

	"mediumgrain/internal/core"
	"mediumgrain/internal/gen"
	"mediumgrain/internal/metrics"
	"mediumgrain/internal/sparse"
)

func TestCartesianBasic(t *testing.T) {
	a := gen.Laplacian2D(14, 14)
	res, err := Partition(a, 2, 2, core.DefaultOptions(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.ValidateParts(a, res.Parts, 4); err != nil {
		t.Fatal(err)
	}
	if res.Volume != metrics.Volume(a, res.Parts, 4) {
		t.Fatal("volume inconsistent")
	}
	// Cartesian structure: part = rowPart*q + colPart
	for k := range a.RowIdx {
		want := res.RowPart[a.RowIdx[k]]*res.Q + res.ColPart[a.ColIdx[k]]
		if res.Parts[k] != want {
			t.Fatalf("nonzero %d part %d, want %d", k, res.Parts[k], want)
		}
	}
}

func TestCartesianRowPartsInRange(t *testing.T) {
	a := gen.PowerLawGraph(rand.New(rand.NewSource(2)), 150, 3)
	res, err := Partition(a, 3, 2, core.DefaultOptions(), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for i, rp := range res.RowPart {
		if rp < 0 || rp >= 3 {
			t.Fatalf("row %d part %d out of range", i, rp)
		}
	}
	for j, cp := range res.ColPart {
		if cp < 0 || cp >= 2 {
			t.Fatalf("col %d part %d out of range", j, cp)
		}
	}
}

func TestCartesianBalanceReasonable(t *testing.T) {
	// Cartesian partitionings cannot always hit tight eps (whole
	// rows/columns are atomic), but on a uniform mesh the imbalance must
	// stay moderate.
	a := gen.Laplacian2D(20, 20)
	res, err := Partition(a, 2, 2, core.DefaultOptions(), rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if imb := metrics.Imbalance(res.Parts, 4); imb > 0.5 {
		t.Fatalf("imbalance %g too large", imb)
	}
}

func TestCartesianDegenerateGrids(t *testing.T) {
	a := gen.Tridiagonal(60)
	// 1x1 grid: everything on part 0
	res, err := Partition(a, 1, 1, core.DefaultOptions(), rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Volume != 0 {
		t.Fatalf("1x1 volume = %d", res.Volume)
	}
	// 1xq: pure column partitioning
	res, err = Partition(a, 1, 4, core.DefaultOptions(), rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	rowLambda, _ := metrics.Lambdas(a, res.Parts, 4)
	_ = rowLambda
	// px1: pure row partitioning; columns uncut within a row stripe
	res, err = Partition(a, 4, 1, core.DefaultOptions(), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.ValidateParts(a, res.Parts, 4); err != nil {
		t.Fatal(err)
	}
}

func TestCartesianRejectsBadGrid(t *testing.T) {
	a := gen.Tridiagonal(10)
	if _, err := Partition(a, 0, 2, core.DefaultOptions(), rand.New(rand.NewSource(8))); err == nil {
		t.Fatal("p=0 accepted")
	}
	if _, err := Partition(a, 2, -1, core.DefaultOptions(), rand.New(rand.NewSource(8))); err == nil {
		t.Fatal("q=-1 accepted")
	}
}

func TestCartesianVsMediumGrain(t *testing.T) {
	// The medium-grain method should be no worse than (usually better
	// than) the rigid Cartesian method on an irregular matrix — that is
	// the paper's motivation for relaxing coarse-grain rigidity.
	a := gen.PowerLawGraph(rand.New(rand.NewSource(9)), 250, 4)
	cg, err := Partition(a, 2, 2, core.DefaultOptions(), rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Refine = true
	mg, err := core.NewEngine(0).Partition(context.Background(), a, 4, core.MethodMediumGrain, opts, rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	if mg.Volume > cg.Volume*2 {
		t.Fatalf("medium grain %d much worse than cartesian %d", mg.Volume, cg.Volume)
	}
}

func TestMultiConstraintEmptyColumns(t *testing.T) {
	// a matrix with empty columns must not break phase 2
	a := sparse.New(4, 6)
	a.AppendPattern(0, 0)
	a.AppendPattern(1, 0)
	a.AppendPattern(2, 5)
	a.AppendPattern(3, 5)
	a.Canonicalize()
	res, err := Partition(a, 2, 2, core.DefaultOptions(), rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.ValidateParts(a, res.Parts, 4); err != nil {
		t.Fatal(err)
	}
}
