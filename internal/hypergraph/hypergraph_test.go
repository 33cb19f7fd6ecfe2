package hypergraph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// buildSample returns the hypergraph with nets {0,1,2}, {2,3}, {3} and
// weights 1..4.
func buildSample(t *testing.T) *Hypergraph {
	t.Helper()
	b := NewBuilder(4, []int64{1, 2, 3, 4})
	b.AddNetInts([]int{0, 1, 2})
	b.AddNetInts([]int{2, 3})
	b.AddNetInts([]int{3})
	h := b.Build()
	if err := h.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return h
}

func TestBuilderBasics(t *testing.T) {
	h := buildSample(t)
	if h.NumVerts != 4 || h.NumNets != 3 {
		t.Fatalf("got %v", h)
	}
	if h.NumPins() != 6 {
		t.Fatalf("pins = %d, want 6", h.NumPins())
	}
	if h.NetSize(0) != 3 || h.NetSize(1) != 2 || h.NetSize(2) != 1 {
		t.Fatal("net sizes wrong")
	}
	if h.TotalWeight() != 10 {
		t.Fatalf("total weight = %d", h.TotalWeight())
	}
}

func TestVertexIncidence(t *testing.T) {
	h := buildSample(t)
	if h.Degree(0) != 1 || h.Degree(2) != 2 || h.Degree(3) != 2 {
		t.Fatal("degrees wrong")
	}
	// vertex 2 must be incident to nets 0 and 1
	nets := h.NetsOf(2)
	seen := map[int32]bool{}
	for _, n := range nets {
		seen[n] = true
	}
	if !seen[0] || !seen[1] || len(nets) != 2 {
		t.Fatalf("NetsOf(2) = %v", nets)
	}
}

func TestIncidenceMatchesPins(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 1 + rng.Intn(20)
		b := NewBuilder(nv, nil)
		nn := rng.Intn(15)
		for n := 0; n < nn; n++ {
			sz := rng.Intn(nv) + 1
			perm := rng.Perm(nv)[:sz]
			b.AddNetInts(perm)
		}
		h := b.Build()
		if h.Validate() != nil {
			return false
		}
		// every (net, pin) must appear exactly once as (pin, net)
		type pair struct{ n, v int32 }
		fromNets := map[pair]int{}
		for n := 0; n < h.NumNets; n++ {
			for _, v := range h.NetPins(n) {
				fromNets[pair{int32(n), v}]++
			}
		}
		fromVerts := map[pair]int{}
		for v := 0; v < h.NumVerts; v++ {
			for _, n := range h.NetsOf(v) {
				fromVerts[pair{n, int32(v)}]++
			}
		}
		if len(fromNets) != len(fromVerts) {
			return false
		}
		for k, c := range fromNets {
			if fromVerts[k] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNilWeightsDefaultToZero(t *testing.T) {
	b := NewBuilder(3, nil)
	b.AddNetInts([]int{0, 1})
	h := b.Build()
	if h.TotalWeight() != 0 {
		t.Fatal("nil weights must default to zero")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	h := buildSample(t)
	h.Pins[0] = 99
	if err := h.Validate(); err == nil {
		t.Fatal("expected out-of-range pin error")
	}
	h2 := buildSample(t)
	h2.VertWt = h2.VertWt[:2]
	if err := h2.Validate(); err == nil {
		t.Fatal("expected weight length error")
	}
	h3 := buildSample(t)
	h3.NetPtr = h3.NetPtr[:2]
	if err := h3.Validate(); err == nil {
		t.Fatal("expected NetPtr length error")
	}
	h4 := buildSample(t)
	h4.VertNets[0] = 77
	if err := h4.Validate(); err == nil {
		t.Fatal("expected incident-net range error")
	}
}

func TestConnectivityMinusOne(t *testing.T) {
	h := buildSample(t)
	// nets: {0,1,2}, {2,3}, {3}
	parts := []int{0, 0, 1, 1}
	// net0 spans {0,1}: +1; net1 spans {1}: 0; net2: 0
	if got := h.ConnectivityMinusOne(parts, 2); got != 1 {
		t.Fatalf("lambda-1 = %d, want 1", got)
	}
	parts3 := []int{0, 1, 2, 2}
	// net0 spans 3 parts: +2; net1 one part; net2 one part
	if got := h.ConnectivityMinusOne(parts3, 3); got != 2 {
		t.Fatalf("lambda-1 (p=3) = %d, want 2", got)
	}
}

func TestCutNetsEqualsLambdaForBipartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 2 + rng.Intn(15)
		b := NewBuilder(nv, nil)
		for n := 0; n < 1+rng.Intn(10); n++ {
			sz := 1 + rng.Intn(nv)
			b.AddNetInts(rng.Perm(nv)[:sz])
		}
		h := b.Build()
		parts := make([]int, nv)
		for v := range parts {
			parts[v] = rng.Intn(2)
		}
		return h.CutNets(parts) == h.ConnectivityMinusOne(parts, 2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// weightedSample is buildSample's nets {0,1,2}, {2,3}, {3} assembled
// through FromCSR with net weights 3, 2, 5.
func weightedSample(t *testing.T) *Hypergraph {
	t.Helper()
	h := FromCSR(4, []int64{1, 2, 3, 4}, []int32{0, 3, 5, 6}, []int32{0, 1, 2, 2, 3, 3}, []int32{3, 2, 5})
	if err := h.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return h
}

func TestNetWeights(t *testing.T) {
	unit := buildSample(t)
	h := weightedSample(t)
	for n, want := range []int32{3, 2, 5} {
		if got := unit.NetWeight(n); got != 1 {
			t.Fatalf("unweighted net %d weighs %d, want 1", n, got)
		}
		if got := h.NetWeight(n); got != want {
			t.Fatalf("net %d weighs %d, want %d", n, got, want)
		}
	}
	// Vertex 3 lies on nets 1 and 2 (2+5); vertex 2 on nets 0 and 1 (3+2).
	if got := h.MaxWeightedDegree(); got != 7 {
		t.Fatalf("MaxWeightedDegree = %d, want 7", got)
	}
	if got := unit.MaxWeightedDegree(); got != 2 {
		t.Fatalf("unweighted MaxWeightedDegree = %d, want 2", got)
	}
	// Cutting nets 0 and 1 costs 3 + 2; three parts on net 0 cost 2·3.
	if got := h.ConnectivityMinusOne([]int{0, 1, 0, 1}, 2); got != 5 {
		t.Fatalf("weighted lambda-1 = %d, want 5", got)
	}
	if got := h.CutNets([]int{0, 1, 0, 1}); got != 5 {
		t.Fatalf("weighted cut nets = %d, want 5", got)
	}
	if got := h.ConnectivityMinusOne([]int{0, 1, 2, 2}, 3); got != 6 {
		t.Fatalf("weighted lambda-1 (p=3) = %d, want 6", got)
	}

	bad := weightedSample(t)
	bad.NetWt = bad.NetWt[:2]
	if err := bad.Validate(); err == nil {
		t.Fatal("expected net weight length error")
	}
	bad = weightedSample(t)
	bad.NetWt[1] = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected non-positive net weight error")
	}
}

func TestPartWeights(t *testing.T) {
	h := buildSample(t)
	w := h.PartWeights([]int{0, 1, 0, 1}, 2)
	if w[0] != 4 || w[1] != 6 {
		t.Fatalf("part weights = %v", w)
	}
}

func TestEmptyHypergraph(t *testing.T) {
	b := NewBuilder(0, nil)
	h := b.Build()
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.ConnectivityMinusOne(nil, 2) != 0 {
		t.Fatal("empty hypergraph has cut")
	}
}

func TestStringer(t *testing.T) {
	h := buildSample(t)
	if h.String() == "" {
		t.Fatal("empty String()")
	}
}
