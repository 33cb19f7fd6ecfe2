package main

import (
	"context"
	"strings"
	"testing"

	"mediumgrain"
	"mediumgrain/internal/gen"
)

// TestCheckResultNamesFailedCheck: the -check oracle accepts an engine
// result and names the check that a corrupted result fails.
func TestCheckResultNamesFailedCheck(t *testing.T) {
	a := gen.Laplacian2D(12, 12)
	const p = 4
	res, err := mediumgrain.New(mediumgrain.EngineConfig{}).Partition(context.Background(), mediumgrain.Request{Matrix: a, P: p, Method: mediumgrain.MethodMediumGrain, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResult(a, res.Parts, p, 0.03, res.Volume); err != nil {
		t.Fatalf("engine result failed the oracle: %v", err)
	}

	outOfRange := append([]int(nil), res.Parts...)
	outOfRange[0] = p
	skewed := make([]int, len(res.Parts)) // every nonzero in part 0
	cases := []struct {
		name   string
		parts  []int
		volume int64
	}{
		{"parts", outOfRange, res.Volume},
		{"parts", res.Parts[1:], res.Volume},
		{"balance", skewed, 0},
		{"volume", res.Parts, res.Volume + 1},
	}
	for _, c := range cases {
		err := checkResult(a, c.parts, p, 0.03, c.volume)
		if err == nil || !strings.HasPrefix(err.Error(), c.name+": ") {
			t.Errorf("want a %q failure, got %v", c.name, err)
		}
	}
}
