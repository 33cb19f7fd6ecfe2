package hgpart

import (
	"math/rand"
	"testing"
)

// TestPermMatchesRandPerm proves the scratch-backed permutation is
// byte-for-byte the sequence rand.Perm returns AND consumes the rng
// stream identically — the property that lets fmPass and coarsening
// replace their per-pass rand.Perm allocations without moving a single
// result bit.
func TestPermMatchesRandPerm(t *testing.T) {
	sc := &Scratch{}
	for seed := int64(0); seed < 20; seed++ {
		for _, n := range []int{0, 1, 2, 3, 7, 64, 1000} {
			ref := rand.New(rand.NewSource(seed))
			got := rand.New(rand.NewSource(seed))

			want := ref.Perm(n)
			have := sc.perm(got, n)
			if len(want) != len(have) {
				t.Fatalf("seed %d n %d: length %d != %d", seed, n, len(have), len(want))
			}
			for i := range want {
				if want[i] != have[i] {
					t.Fatalf("seed %d n %d: perm[%d] = %d, want %d", seed, n, i, have[i], want[i])
				}
			}
			// The streams must stay aligned after the draw, or every
			// later random choice of a pass would diverge.
			if ref.Int63() != got.Int63() {
				t.Fatalf("seed %d n %d: rng streams diverged after perm", seed, n)
			}
		}
	}
}

// TestPermBufferReuse proves consecutive perms reuse the scratch buffer
// (the zero-alloc property) while remaining correct permutations.
func TestPermBufferReuse(t *testing.T) {
	sc := &Scratch{}
	rng := rand.New(rand.NewSource(3))
	a := sc.perm(rng, 100)
	first := &a[0]
	b := sc.perm(rng, 50)
	if &b[0] != first {
		t.Fatal("second perm did not reuse the scratch buffer")
	}
	seen := make([]bool, 50)
	for _, v := range b {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", b)
		}
		seen[v] = true
	}
}
