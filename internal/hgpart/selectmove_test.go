package hgpart

import (
	"context"
	"math/rand"
	"testing"

	"mediumgrain/internal/hypergraph"
)

// chain builds the path hypergraph on n unit-weight vertices.
func chain(n int) *hypergraph.Hypergraph {
	wt := make([]int64, n)
	for i := range wt {
		wt[i] = 1
	}
	b := hypergraph.NewBuilder(n, wt)
	for i := 0; i+1 < n; i++ {
		b.AddNetInts([]int{i, i + 1})
	}
	return b.Build()
}

// TestSlackEnablesTightCapMoves reproduces the scenario that motivated
// the FM slack: both sides exactly at their caps, where without one
// vertex-weight of slack no move would ever be possible.
func TestSlackEnablesTightCapMoves(t *testing.T) {
	h := chain(16)
	parts := make([]int, 16)
	for v := range parts {
		parts[v] = v % 2 // every net cut, 8/8 weights
	}
	maxW := [2]int64{8, 8} // zero headroom
	cut := refine(context.Background(), h, parts, maxW, rand.New(rand.NewSource(1)), Config{}, nil, new(Scratch))
	if cut != 1 {
		t.Fatalf("cut = %d, want 1 (slack must let FM zigzag)", cut)
	}
	s := newBipState(h, parts, maxW, new(Scratch))
	if s.overload() != 0 {
		t.Fatalf("final state overloaded: %v vs %v", s.partWt, maxW)
	}
}

// TestForcedRebalancing: an infeasible start must end feasible even if
// the cut temporarily rises.
func TestForcedRebalancing(t *testing.T) {
	h := chain(20)
	parts := make([]int, 20) // all on side 0: overload 10 at caps 10/10
	maxW := [2]int64{10, 10}
	refine(context.Background(), h, parts, maxW, rand.New(rand.NewSource(2)), Config{}, nil, new(Scratch))
	s := newBipState(h, parts, maxW, new(Scratch))
	if s.overload() != 0 {
		t.Fatalf("rebalancing failed: weights %v", s.partWt)
	}
	if s.cut > 3 {
		t.Fatalf("rebalanced chain cut = %d, want small", s.cut)
	}
}

// TestSelectMovePrefersHigherGainSide: with one side empty of vertices,
// selection must fall back to the other side.
func TestSelectMoveOneSidedBuckets(t *testing.T) {
	h := chain(4)
	parts := []int{0, 0, 0, 0}
	maxW := [2]int64{100, 100}
	s := newBipState(h, parts, maxW, new(Scratch))
	buckets, _, _ := new(Scratch).fmBuffers(4, 4)
	for v := 0; v < 4; v++ {
		buckets.insert(int32(v), 0, s.gainOf(int32(v)))
	}
	v := selectMove(s, buckets, 1)
	if v < 0 {
		t.Fatal("no move selected from a one-sided configuration")
	}
}

// TestEarlyExitConfig: a tiny EarlyExit must still terminate with a
// consistent state.
func TestEarlyExitConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := randomHypergraph(rng, 40, 30)
	parts := randomBipartitionOf(rng, h)
	cfg := Config{EarlyExit: 1}
	cut := refine(context.Background(), h, parts, balancedCaps(h.TotalWeight(), 0.2), rng, cfg, nil, new(Scratch))
	if cut != h.ConnectivityMinusOne(parts, 2) {
		t.Fatal("early-exit refine left inconsistent cut")
	}
}

// TestHeavyVertexNeverFits: a vertex heavier than both caps plus slack
// must simply stay put without breaking the pass.
func TestHeavyVertexNeverFits(t *testing.T) {
	b := hypergraph.NewBuilder(3, []int64{50, 1, 1})
	b.AddNetInts([]int{0, 1})
	b.AddNetInts([]int{1, 2})
	h := b.Build()
	parts := []int{0, 1, 1}
	maxW := [2]int64{52, 3}
	cut := refine(context.Background(), h, parts, maxW, rand.New(rand.NewSource(4)), Config{}, nil, new(Scratch))
	if parts[0] != 0 {
		t.Fatal("heavy vertex moved to an overfull side")
	}
	if cut != h.ConnectivityMinusOne(parts, 2) {
		t.Fatal("inconsistent cut")
	}
}
