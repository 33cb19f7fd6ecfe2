package hgpart

import (
	"math"
	"testing"
)

func TestGainBucketsInsertPeek(t *testing.T) {
	g, _, _ := new(Scratch).fmBuffers(10, 5)
	g.insert(3, 0, 2)
	g.insert(4, 0, -1)
	g.insert(5, 1, 4)
	if gain, ok := g.peekGain(0); !ok || gain != 2 {
		t.Fatalf("peek side 0 = %d,%v want 2,true", gain, ok)
	}
	if gain, ok := g.peekGain(1); !ok || gain != 4 {
		t.Fatalf("peek side 1 = %d,%v want 4,true", gain, ok)
	}
	if g.count[0] != 2 || g.count[1] != 1 {
		t.Fatalf("counts = %v", g.count)
	}
}

func TestGainBucketsRemove(t *testing.T) {
	g, _, _ := new(Scratch).fmBuffers(10, 5)
	g.insert(1, 0, 3)
	g.insert(2, 0, 3)
	g.insert(3, 0, 3)
	g.remove(2) // middle of the chain
	seen := map[int32]bool{}
	for v := g.heads[0][3+5]; v >= 0; v = g.next[v] {
		seen[v] = true
	}
	if seen[2] || !seen[1] || !seen[3] {
		t.Fatalf("chain after remove = %v", seen)
	}
	g.remove(3) // head (LIFO: 3 was inserted last)
	g.remove(1)
	if _, ok := g.peekGain(0); ok {
		t.Fatal("side 0 should be empty")
	}
	// removing a vertex that is not listed must be a no-op
	g.remove(7)
}

func TestGainBucketsAdjust(t *testing.T) {
	g, _, _ := new(Scratch).fmBuffers(4, 3)
	g.insert(0, 0, 0)
	g.adjust(0, 2)
	if gain, ok := g.peekGain(0); !ok || gain != 2 {
		t.Fatalf("after adjust: %d,%v", gain, ok)
	}
	g.adjust(0, -3)
	if gain, ok := g.peekGain(0); !ok || gain != -1 {
		t.Fatalf("after negative adjust: %d,%v", gain, ok)
	}
	// adjust by zero must not move the vertex
	g.adjust(0, 0)
	if gain, _ := g.peekGain(0); gain != -1 {
		t.Fatal("zero adjust moved vertex")
	}
	// adjusting an unlisted vertex is a no-op
	g.adjust(3, 1)
	if g.in[3] {
		t.Fatal("unlisted vertex appeared")
	}
}

func TestGainBucketsLIFO(t *testing.T) {
	g, _, _ := new(Scratch).fmBuffers(5, 2)
	g.insert(0, 0, 1)
	g.insert(1, 0, 1)
	// last inserted must be first in the chain (LIFO tie-breaking)
	wt := []int64{1, 1, 1, 1, 1}
	v := g.bestFeasible(0, wt, math.MaxInt64)
	if v != 1 {
		t.Fatalf("bestFeasible = %d, want 1 (LIFO)", v)
	}
}

func TestBestFeasibleSkipsRejected(t *testing.T) {
	g, _, _ := new(Scratch).fmBuffers(5, 2)
	g.insert(0, 0, 2)
	g.insert(1, 0, 1)
	// vertex 0 is too heavy for the budget; the scan must fall through
	// to the lower-gain feasible vertex
	wt := []int64{10, 1, 1, 1, 1}
	v := g.bestFeasible(0, wt, 5)
	if v != 1 {
		t.Fatalf("bestFeasible = %d, want 1", v)
	}
	v = g.bestFeasible(0, wt, 0)
	if v != -1 {
		t.Fatalf("bestFeasible with no acceptance = %d, want -1", v)
	}
}

// TestGainBucketsDrain checks the drained invariant the O(1) reinit
// relies on: after drain no vertex is listed, both counts are 0, every
// in flag is false and every head is -1 — including vertices relinked
// by adjust and a top bucket emptied by remove.
func TestGainBucketsDrain(t *testing.T) {
	g, _, _ := new(Scratch).fmBuffers(6, 3)
	g.insert(0, 0, 3)
	g.insert(1, 0, -3)
	g.insert(2, 1, 0)
	g.insert(3, 1, 0)
	g.insert(4, 0, 1)
	g.adjust(2, 3)  // relinked to side 1's top bucket
	g.remove(0)     // empties side 0's top bucket; maxGain decays lazily
	g.adjust(4, -2) // leaves gain 1 for -1
	g.drain()
	if g.count[0] != 0 || g.count[1] != 0 {
		t.Fatalf("drain left counts %v", g.count)
	}
	for s := 0; s < 2; s++ {
		if _, ok := g.peekGain(s); ok {
			t.Fatalf("drain left entries on side %d", s)
		}
		for i, h := range g.heads[s] {
			if h != -1 {
				t.Fatalf("side %d head %d = %d after drain, want -1", s, i, h)
			}
		}
	}
	for v, in := range g.in {
		if in {
			t.Fatalf("vertex %d still listed after drain", v)
		}
	}
}

func TestMaxGainLazyDecay(t *testing.T) {
	g, _, _ := new(Scratch).fmBuffers(4, 4)
	g.insert(0, 0, 4)
	g.insert(1, 0, -4)
	g.remove(0)
	if gain, ok := g.peekGain(0); !ok || gain != -4 {
		t.Fatalf("after removing top: %d,%v want -4,true", gain, ok)
	}
}
