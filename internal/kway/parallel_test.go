package kway_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"mediumgrain/internal/pool"
	"mediumgrain/internal/sparse"

	. "mediumgrain/internal/kway"
)

// TestRefineWorkersEquivalence: the greedy move loop is sequential by
// design, so the pool must only change how the count tables and the
// final volume are computed — the refined parts and volume must be
// identical for every pool size, nil (inline) included.
func TestRefineWorkersEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := sparse.New(120, 90)
	seen := map[[2]int]bool{}
	for a.NNZ() < 1200 {
		ij := [2]int{rng.Intn(120), rng.Intn(90)}
		if !seen[ij] {
			seen[ij] = true
			a.AppendPattern(ij[0], ij[1])
		}
	}
	const p = 6
	base := make([]int, a.NNZ())
	for k := range base {
		base[k] = rng.Intn(p)
	}

	run := func(workers int) ([]int, int64) {
		var pl *pool.Pool
		if workers != 0 {
			pl = pool.New(workers)
		}
		parts := append([]int(nil), base...)
		vol := RefineOn(context.Background(), a, parts, p, Options{Eps: 0.1}, rand.New(rand.NewSource(5)), pl)
		return parts, vol
	}
	refParts, refVol := run(0)
	for _, workers := range []int{1, 2, 4, 8} {
		parts, vol := run(workers)
		if vol != refVol || !reflect.DeepEqual(parts, refParts) {
			t.Errorf("workers=%d: refinement differs (volume %d vs %d)", workers, vol, refVol)
		}
	}
}
