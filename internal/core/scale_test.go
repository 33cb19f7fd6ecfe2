package core

import (
	"math/rand"
	"testing"

	"mediumgrain/internal/gen"
	"mediumgrain/internal/metrics"
)

// TestMillionNonzeroScale exercises the paper's size regime (matrices up
// to 5M nonzeros): a 500×500 grid Laplacian has ~1.25M nonzeros and a
// known optimal bisection volume of 1000 (a straight grid cut severs 500
// edges, each costing one row word and one column word). The multilevel
// medium-grain pipeline must find a near-optimal cut in seconds.
func TestMillionNonzeroScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale test skipped with -short")
	}
	a := gen.Laplacian2D(500, 500)
	if a.NNZ() < 1_000_000 {
		t.Fatalf("setup: only %d nonzeros", a.NNZ())
	}
	res, err := bipartitionInline(a, MethodMediumGrain, DefaultOptions(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.CheckBalance(res.Parts, 2, 0.03); err != nil {
		t.Fatal(err)
	}
	// The optimal volume is 1000; allow 30% slack for multilevel noise.
	if res.Volume > 1300 {
		t.Fatalf("volume %d too far from the optimal 1000", res.Volume)
	}
}
