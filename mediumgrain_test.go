package mediumgrain_test

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"mediumgrain"
	"mediumgrain/internal/gen"
)

// inline is the zero-config engine the tests share: the one
// partitioning algorithm, run on the calling goroutine.
var inline = mediumgrain.New(mediumgrain.EngineConfig{})

func gridMatrix() *mediumgrain.Matrix {
	return gen.Laplacian2D(14, 14)
}

func TestPublicBipartitionAllMethods(t *testing.T) {
	a := gridMatrix()
	for _, m := range []mediumgrain.Method{
		mediumgrain.MethodRowNet, mediumgrain.MethodColNet,
		mediumgrain.MethodLocalBest, mediumgrain.MethodFineGrain,
		mediumgrain.MethodMediumGrain,
	} {
		res, err := inline.Bipartition(context.Background(), mediumgrain.Request{Matrix: a, Method: m, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.Volume != mediumgrain.Volume(a, res.Parts, 2) {
			t.Fatalf("%v: inconsistent volume", m)
		}
		if imb := mediumgrain.Imbalance(res.Parts, 2); imb > 0.03+1e-9 {
			t.Fatalf("%v: imbalance %g exceeds eps", m, imb)
		}
	}
}

func TestPublicPartitionAndBSP(t *testing.T) {
	a := gridMatrix()
	res, err := inline.Partition(context.Background(), mediumgrain.Request{Matrix: a, P: 8, Method: mediumgrain.MethodMediumGrain, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cost := mediumgrain.BSPCost(a, res.Parts, 8); cost <= 0 {
		t.Fatalf("BSP cost = %d", cost)
	}
}

func TestPublicIterativeRefine(t *testing.T) {
	a := gridMatrix()
	parts := make([]int, a.NNZ())
	for k := range parts {
		parts[k] = k % 2
	}
	before := mediumgrain.Volume(a, parts, 2)
	res, err := inline.Refine(context.Background(), mediumgrain.Request{Matrix: a, Parts: parts, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	after := mediumgrain.Volume(a, res.Parts, 2)
	if after > before {
		t.Fatalf("IR increased volume %d -> %d", before, after)
	}
}

func TestPublicConfigs(t *testing.T) {
	a := gridMatrix()
	for _, cfg := range []mediumgrain.PartitionerConfig{
		mediumgrain.MondriaanLikeConfig(), mediumgrain.AltConfig(),
	} {
		eng := mediumgrain.New(mediumgrain.EngineConfig{Partitioner: cfg})
		if _, err := eng.Bipartition(context.Background(), mediumgrain.Request{Matrix: a, Method: mediumgrain.MethodMediumGrain, Seed: 4}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPublicParseMethod(t *testing.T) {
	m, err := mediumgrain.ParseMethod("MG")
	if err != nil || m != mediumgrain.MethodMediumGrain {
		t.Fatalf("ParseMethod: %v %v", m, err)
	}
}

func TestPublicMatrixMarketFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.mtx")
	a := gridMatrix()
	if err := mediumgrain.WriteMatrixMarketFile(path, a); err != nil {
		t.Fatal(err)
	}
	b, err := mediumgrain.ReadMatrixMarketFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.NNZ() != a.NNZ() || b.Rows != a.Rows {
		t.Fatal("file round trip changed matrix")
	}
	if _, err := mediumgrain.ReadMatrixMarketFile(filepath.Join(dir, "missing.mtx")); err == nil {
		t.Fatal("missing file read succeeded")
	}
	if err := mediumgrain.WriteMatrixMarketFile(filepath.Join(dir, "no", "such", "dir", "m.mtx"), a); err == nil {
		t.Fatal("write into missing dir succeeded")
	}
	_ = os.Remove(path)
}

func TestPublicSpMVPipeline(t *testing.T) {
	a := gen.WithRandomValues(mediumgrain.NewRNG(5), gridMatrix())
	res, err := inline.Partition(context.Background(), mediumgrain.Request{Matrix: a, P: 4, Method: mediumgrain.MethodMediumGrain, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := mediumgrain.NewDistribution(a, res.Parts, 4)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Cols)
	for j := range x {
		x[j] = float64(j) * 0.25
	}
	y, stats, err := mediumgrain.RunSpMV(a, dist, x)
	if err != nil {
		t.Fatal(err)
	}
	ref := a.ToCSR().MulVec(x)
	for i := range y {
		if math.Abs(y[i]-ref[i]) > 1e-9 {
			t.Fatalf("y[%d] mismatch", i)
		}
	}
	if stats.TotalWords() != res.Volume {
		t.Fatalf("traffic %d != volume %d", stats.TotalWords(), res.Volume)
	}
}

func TestPublicClassConstants(t *testing.T) {
	a := mediumgrain.NewMatrix(2, 3)
	a.AppendPattern(0, 0)
	if a.Classify() != mediumgrain.ClassRectangular {
		t.Fatal("class constants broken")
	}
}

func TestDeterminismAcrossCalls(t *testing.T) {
	a := gridMatrix()
	r1, err := inline.Bipartition(context.Background(), mediumgrain.Request{Matrix: a, Method: mediumgrain.MethodMediumGrain, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := inline.Bipartition(context.Background(), mediumgrain.Request{Matrix: a, Method: mediumgrain.MethodMediumGrain, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Volume != r2.Volume {
		t.Fatal("equal seeds gave different volumes")
	}
	for k := range r1.Parts {
		if r1.Parts[k] != r2.Parts[k] {
			t.Fatal("equal seeds gave different partitions")
		}
	}
}
