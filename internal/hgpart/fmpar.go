package hgpart

import (
	"context"
	"math/rand"

	"mediumgrain/internal/hypergraph"
	"mediumgrain/internal/pool"
)

// Tuning constants of ParallelFM's try racing. Both are fixed (never
// derived from the live worker count or pool occupancy), so the work
// decomposition — and with it every result bit — is identical at every
// pool size.
const (
	// raceMaxVerts is the coarse-level cutoff: refine calls on
	// hypergraphs at most this large run as raceTries independent FM
	// sequences racing on the pool. Coarse levels are cheap enough that
	// K-fold redundancy costs little and buys both quality (best-of-K)
	// and occupancy for workers that would otherwise idle through the
	// serial coarse upstroke.
	raceMaxVerts = 2048
	// raceTries is K, the number of raced FM sequences per coarse-level
	// refine call.
	raceTries = 4
)

// refineRace is coarse-level FM try racing (Config.ParallelFM): it
// runs raceTries FM pass sequences — each on its own copy of parts and
// a private Scratch — concurrently on pl, and keeps the best result by
// (overload, cut, try index). Try 0 is the serial continuation: it is
// the only consumer of the caller's rng and draws from it exactly as a
// plain refine would, so the caller's stream advances as in serial mode
// and, whenever no extra try strictly wins, the race reproduces the
// serial-mode result of this level bit for bit. Tries 1..raceTries-1
// explore independent substreams seeded from a side stream hashed from
// the input partition (raceSalt) — never from the caller's rng — and
// the winner scan breaks ties toward the lowest try index, so an extra
// try displaces the serial result only when strictly better. Seeds and
// batching are fixed before any work fans out, so the outcome is
// bit-identical for every pool size (including pl == nil, which runs
// the tries inline).
//
// parts is overwritten with the winning bipartition; the winning cut
// is returned.
func refineRace(ctx context.Context, h *hypergraph.Hypergraph, parts []int, maxW [2]int64, rng *rand.Rand, cfg Config, pl *pool.Pool) int64 {
	side := NewStream(raceSalt(parts))
	seeds := make([]int64, raceTries)
	for t := 1; t < raceTries; t++ {
		seeds[t] = side.Int63()
	}
	// The raced sequences are plain serial refinements: no nested racing
	// (the pool is already saturated with whole tries).
	tcfg := cfg
	tcfg.ParallelFM = false
	best, cut := bestTry(h, maxW, raceTries, pl, func(t int, sc *Scratch) ([]int, int64) {
		// Try 0 owns the caller's stream; no other try touches it.
		rt := rng
		if t > 0 {
			rt = NewStream(seeds[t])
		}
		tparts := append([]int(nil), parts...)
		return tparts, refine(ctx, h, tparts, maxW, rt, tcfg, nil, sc)
	})
	copy(parts, best)
	return cut
}

// raceSalt hashes the input bipartition (FNV-1a) into the seed of the
// extra racing tries' side stream. The salt is a pure function of call
// state — independent of the pool and of the caller's RNG — so the
// extra tries are deterministic per seed without moving a single draw
// of the caller's stream off its serial-mode trajectory.
func raceSalt(parts []int) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, p := range parts {
		h ^= uint64(uint8(p))
		h *= prime64
	}
	return int64(h >> 1)
}
