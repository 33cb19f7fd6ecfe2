package hgpart

import (
	"math/rand"

	"mediumgrain/internal/sparse"
)

// permSequence fills out[:n] with the permutation rand.Perm(n) would
// return, drawing the identical values from rng: the loop below is
// exactly math/rand's inside-out Fisher–Yates (m[i] = m[j]; m[j] = i
// with j = Intn(i+1)), so it consumes the same rng stream and produces
// the same order byte for byte — the bit-identity the per-seed
// determinism guarantees rest on. out must have length >= n.
func permSequence(rng *rand.Rand, n int, out []int) []int {
	out = out[:n]
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		out[i] = out[j]
		out[j] = i
	}
	return out
}

// perm returns a random permutation of [0, n) identical to rng.Perm(n),
// backed by the scratch's reusable buffer. It replaces the two remaining
// O(n)-per-pass allocations of the refinement stack (fmPass's vertex
// order and random matching's order). A nil Scratch allocates fresh.
// The permutation is valid until the next perm call on the same Scratch.
func (sc *Scratch) perm(rng *rand.Rand, n int) []int {
	if sc == nil {
		return permSequence(rng, n, make([]int, n))
	}
	sc.permBuf = sparse.Resize(sc.permBuf, n)
	return permSequence(rng, n, sc.permBuf)
}
