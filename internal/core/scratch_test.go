package core

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"mediumgrain/internal/gen"
)

func partsHash(parts []int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range parts {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestScratchOnePerGoroutine pins the scratch invariant of recursive
// bisection: a call holds at most one scratch per goroutine running its
// tree, so a cold engine creates at most max(W, 1) of them; the store
// keeps them all, so a second identical call creates none once the
// first reached the bound (always so for W <= 2); reusing them never
// writes into an earlier result; and a call on the warm scratches
// returns what a fresh engine returns.
func TestScratchOnePerGoroutine(t *testing.T) {
	a := gen.Laplacian2D(16, 16)
	for _, w := range []int{0, 1, 2, 4} {
		eng := NewEngine(w)
		run := func(p int, seed int64) *Result {
			t.Helper()
			res, err := eng.Partition(context.Background(), a, p, MethodMediumGrain, DefaultOptions(), rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			return res
		}
		fresh, err := NewEngine(w).Partition(context.Background(), a, 8, MethodMediumGrain, DefaultOptions(), rand.New(rand.NewSource(6)))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		bound := int64(max(w, 1))

		first := run(64, 5)
		want := partsHash(first.Parts)
		made := eng.scratchesMade()
		if made > bound {
			t.Fatalf("workers=%d: first call created %d scratches, want at most %d", w, made, bound)
		}
		if w <= 2 && made != bound {
			t.Fatalf("workers=%d: first call created %d scratches, want %d", w, made, bound)
		}

		second := run(64, 5)
		if got := eng.scratchesMade(); got > bound || (made == bound && got != made) {
			t.Fatalf("workers=%d: second identical call created %d scratches after %d", w, got-made, made)
		}
		if partsHash(second.Parts) != want {
			t.Fatalf("workers=%d: second identical call returned different parts", w)
		}

		if warm := run(8, 6); warm.Volume != fresh.Volume || partsHash(warm.Parts) != partsHash(fresh.Parts) {
			t.Fatalf("workers=%d: a call on warm scratches gave volume %d (fresh engine: %d) or different parts", w, warm.Volume, fresh.Volume)
		}
		if partsHash(first.Parts) != want {
			t.Fatalf("workers=%d: a later call changed an earlier result's parts", w)
		}
		if out := eng.scratchesOutstanding(); out != 0 {
			t.Fatalf("workers=%d: %d scratches outstanding after the calls", w, out)
		}
	}
}
