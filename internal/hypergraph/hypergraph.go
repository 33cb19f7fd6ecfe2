// Package hypergraph provides the hypergraph substrate for sparse matrix
// partitioning: the data structure itself, the three classical
// matrix-to-hypergraph translations (row-net, column-net, fine-grain),
// and cut metrics.
//
// A hypergraph H = (V, N) has weighted vertices and nets (hyperedges);
// each net is a subset of V. Partitioning V into p parts cuts a net n
// into λ(n) parts and costs w(n)·(λ(n)−1); the sum over nets is exactly
// the communication volume of the corresponding matrix partitioning.
// Every matrix model gives its nets weight 1; multilevel coarsening
// merges nets with identical pin sets into one net of summed weight.
package hypergraph

import (
	"fmt"
	"sync/atomic"

	"mediumgrain/internal/sparse"
)

// Hypergraph stores vertices 0..NumVerts-1 and nets 0..NumNets-1 in
// compressed form: Pins lists, for each net, the vertices it contains;
// VertNets is the inverse incidence (for each vertex, the nets containing
// it). Both are CSR-style with Ptr arrays.
type Hypergraph struct {
	NumVerts int
	NumNets  int

	VertWt []int64 // vertex weights (nonzero counts); len NumVerts

	NetPtr []int32 // len NumNets+1
	Pins   []int32 // concatenated pin lists; len = total pins

	VertPtr  []int32 // len NumVerts+1
	VertNets []int32 // nets incident to each vertex

	// NetWt holds per-net weights (len NumNets, every entry >= 1); nil
	// means every net weighs 1, as in every matrix model.
	NetWt []int32

	// maxDegPlus1 / maxWtPlus1 cache MaxWeightedDegree()+1 and MaxVertWt()+1
	// (0 = not yet computed). FM refinement asks for both once per pass;
	// caching turns the repeated O(NumVerts) and O(pins) scans into
	// field reads.
	// Atomics because concurrent readers (the parallel initial-partition
	// tries share one coarsest hypergraph) may race to fill the cache —
	// they all write the same value, so lost updates are harmless.
	maxDegPlus1 atomic.Int64
	maxWtPlus1  atomic.Int64
}

// NetPins returns the pin list of net n.
func (h *Hypergraph) NetPins(n int) []int32 { return h.Pins[h.NetPtr[n]:h.NetPtr[n+1]] }

// NetsOf returns the nets incident to vertex v.
func (h *Hypergraph) NetsOf(v int) []int32 { return h.VertNets[h.VertPtr[v]:h.VertPtr[v+1]] }

// NetSize returns the number of pins of net n.
func (h *Hypergraph) NetSize(n int) int { return int(h.NetPtr[n+1] - h.NetPtr[n]) }

// Degree returns the number of nets incident to vertex v.
func (h *Hypergraph) Degree(v int) int { return int(h.VertPtr[v+1] - h.VertPtr[v]) }

// NetWeight returns the weight of net n (1 when NetWt is nil).
func (h *Hypergraph) NetWeight(n int) int32 {
	if h.NetWt == nil {
		return 1
	}
	return h.NetWt[n]
}

// TotalWeight returns the sum of all vertex weights.
func (h *Hypergraph) TotalWeight() int64 {
	var t int64
	for _, w := range h.VertWt {
		t += w
	}
	return t
}

// NumPins returns the total number of pins.
func (h *Hypergraph) NumPins() int { return len(h.Pins) }

// MaxWeightedDegree returns the largest summed weight of the nets
// incident to one vertex — the largest degree when NetWt is nil; 0 for
// a vertex-free hypergraph. It bounds every FM move gain, so FM sizes
// its gain buckets with it on every refinement call at every multilevel
// level; it is computed on first use and cached.
func (h *Hypergraph) MaxWeightedDegree() int {
	if c := h.maxDegPlus1.Load(); c != 0 {
		return int(c - 1)
	}
	maxDeg := 0
	for v := 0; v < h.NumVerts; v++ {
		d := h.Degree(v)
		if h.NetWt != nil {
			d = 0
			for _, n := range h.NetsOf(v) {
				d += int(h.NetWt[n])
			}
		}
		if d > maxDeg {
			maxDeg = d
		}
	}
	h.maxDegPlus1.Store(int64(maxDeg) + 1)
	return maxDeg
}

// MaxVertWt returns the largest vertex weight (0 for a vertex-free
// hypergraph), computed on first use and cached; FM uses it as the
// balance slack its intermediate states may borrow.
func (h *Hypergraph) MaxVertWt() int64 {
	if c := h.maxWtPlus1.Load(); c != 0 {
		return c - 1
	}
	var maxWt int64
	for _, w := range h.VertWt {
		if w > maxWt {
			maxWt = w
		}
	}
	h.maxWtPlus1.Store(maxWt + 1)
	return maxWt
}

// Builder accumulates nets incrementally and produces a Hypergraph with
// both incidence directions populated.
type Builder struct {
	numVerts int
	vertWt   []int64
	netPtr   []int32
	pins     []int32
	sc       *Scratch // non-nil when the builder recycles scratch arrays
}

// NewBuilder creates a builder for a hypergraph on numVerts vertices with
// the given weights (copied).
func NewBuilder(numVerts int, vertWt []int64) *Builder {
	b := &Builder{
		numVerts: numVerts,
		vertWt:   append([]int64(nil), vertWt...),
		netPtr:   make([]int32, 1, 16),
	}
	if b.vertWt == nil {
		b.vertWt = make([]int64, numVerts)
	}
	return b
}

// Scratch holds the reusable backing arrays for repeated hypergraph
// builds: the builder's weight/pointer/pin accumulators and the
// vertex-incidence buffers filled by Build. One Scratch per worker turns
// the build of each subproblem model from O(verts+nets+pins) fresh
// allocations into plain overwrites of the previous level's arrays.
//
// A hypergraph built through a Scratch aliases these arrays, so it is
// valid only until the next Builder call on the same Scratch. That is
// exactly the lifetime of a bisection node's model: the hypergraph is
// dead before the node's children build theirs. At most one
// scratch-built hypergraph may be live at a time per Scratch. Not safe
// for concurrent use; give each goroutine its own Scratch.
type Scratch struct {
	vertWt   []int64
	netPtr   []int32
	pins     []int32
	vertPtr  []int32
	vertNets []int32
	next     []int32
	wtBuf    []int64
}

// Weights returns a zeroed reusable weight buffer of length n for
// assembling vertex weights before handing them to Builder (which copies
// them). A nil Scratch allocates fresh.
func (sc *Scratch) Weights(n int) []int64 {
	if sc == nil {
		return make([]int64, n)
	}
	if cap(sc.wtBuf) < n {
		sc.wtBuf = make([]int64, n)
	}
	sc.wtBuf = sc.wtBuf[:n]
	clear(sc.wtBuf)
	return sc.wtBuf
}

// Builder returns a builder for numVerts vertices whose backing arrays
// recycle the Scratch, invalidating the previous hypergraph built from
// it. vertWt is copied (a nil vertWt zero-fills). A nil Scratch falls
// back to NewBuilder.
func (sc *Scratch) Builder(numVerts int, vertWt []int64) *Builder {
	if sc == nil {
		return NewBuilder(numVerts, vertWt)
	}
	sc.vertWt = sc.vertWt[:0]
	if vertWt == nil {
		sc.vertWt = append(sc.vertWt, make([]int64, numVerts)...)
	} else {
		sc.vertWt = append(sc.vertWt, vertWt...)
	}
	sc.netPtr = append(sc.netPtr[:0], 0)
	sc.pins = sc.pins[:0]
	return &Builder{numVerts: numVerts, vertWt: sc.vertWt, netPtr: sc.netPtr, pins: sc.pins, sc: sc}
}

// AddNet appends a net with the given pins. Pins must be valid vertex
// ids; duplicates within a net are the caller's responsibility to avoid.
func (b *Builder) AddNet(pins []int32) {
	b.pins = append(b.pins, pins...)
	b.netPtr = append(b.netPtr, int32(len(b.pins)))
}

// AddNetInts is AddNet for []int pin lists.
func (b *Builder) AddNetInts(pins []int) {
	for _, p := range pins {
		b.pins = append(b.pins, int32(p))
	}
	b.netPtr = append(b.netPtr, int32(len(b.pins)))
}

// Build finalizes the hypergraph, computing the vertex→net incidence.
func (b *Builder) Build() *Hypergraph {
	h := &Hypergraph{
		NumVerts: b.numVerts,
		NumNets:  len(b.netPtr) - 1,
		VertWt:   b.vertWt,
		NetPtr:   b.netPtr,
		Pins:     b.pins,
	}
	if sc := b.sc; sc != nil {
		// Growth during accumulation may have moved the builder's slices
		// off the scratch arrays; adopt them so the capacity is kept.
		sc.vertWt, sc.netPtr, sc.pins = b.vertWt, b.netPtr, b.pins
		sc.vertPtr = sparse.Resize(sc.vertPtr, h.NumVerts+1)
		sc.vertNets = sparse.Resize(sc.vertNets, len(h.Pins))
		sc.next = sparse.Resize(sc.next, h.NumVerts)
		h.VertPtr, h.VertNets = sc.vertPtr, sc.vertNets
		h.fillVertexIncidence(sc.next)
		return h
	}
	h.VertPtr = make([]int32, h.NumVerts+1)
	h.VertNets = make([]int32, len(h.Pins))
	h.fillVertexIncidence(make([]int32, h.NumVerts))
	return h
}

// FromCSR assembles a hypergraph directly from prebuilt CSR net arrays
// and computes the vertex incidence. The caller hands over ownership of
// vertWt, netPtr, pins, and netWt (they are not copied); netPtr must
// have one entry per net plus a leading 0, pins holds the concatenated,
// already-deduplicated pin lists, and netWt holds one weight per net
// (nil: every net weighs 1). Multilevel contraction, which builds its
// coarse net lists and merged net weights itself, uses this instead of
// replaying every net through a Builder.
func FromCSR(numVerts int, vertWt []int64, netPtr, pins, netWt []int32) *Hypergraph {
	h := &Hypergraph{
		NumVerts: numVerts,
		NumNets:  len(netPtr) - 1,
		VertWt:   vertWt,
		NetPtr:   netPtr,
		Pins:     pins,
		NetWt:    netWt,
	}
	h.VertPtr = make([]int32, numVerts+1)
	h.VertNets = make([]int32, len(pins))
	h.fillVertexIncidence(make([]int32, numVerts))
	return h
}

// fillVertexIncidence populates the preallocated VertPtr/VertNets arrays;
// next is an all-purpose cursor buffer of length NumVerts.
func (h *Hypergraph) fillVertexIncidence(next []int32) {
	clear(h.VertPtr)
	for _, v := range h.Pins {
		h.VertPtr[v+1]++
	}
	for v := 0; v < h.NumVerts; v++ {
		h.VertPtr[v+1] += h.VertPtr[v]
	}
	copy(next, h.VertPtr[:h.NumVerts])
	for n := 0; n < h.NumNets; n++ {
		for _, v := range h.NetPins(n) {
			h.VertNets[next[v]] = int32(n)
			next[v]++
		}
	}
}

// Validate checks structural invariants: pin ids in range, pointer
// monotonicity, incidence symmetry (total sizes match), and one
// positive weight per net when NetWt is set.
func (h *Hypergraph) Validate() error {
	if len(h.VertWt) != h.NumVerts {
		return fmt.Errorf("hypergraph: weight slice len %d != NumVerts %d", len(h.VertWt), h.NumVerts)
	}
	if len(h.NetPtr) != h.NumNets+1 {
		return fmt.Errorf("hypergraph: NetPtr len %d != NumNets+1", len(h.NetPtr))
	}
	if len(h.VertPtr) != h.NumVerts+1 {
		return fmt.Errorf("hypergraph: VertPtr len %d != NumVerts+1", len(h.VertPtr))
	}
	for n := 0; n < h.NumNets; n++ {
		if h.NetPtr[n] > h.NetPtr[n+1] {
			return fmt.Errorf("hypergraph: NetPtr not monotone at %d", n)
		}
	}
	for _, v := range h.Pins {
		if v < 0 || int(v) >= h.NumVerts {
			return fmt.Errorf("hypergraph: pin %d out of range [0,%d)", v, h.NumVerts)
		}
	}
	if len(h.VertNets) != len(h.Pins) {
		return fmt.Errorf("hypergraph: incidence size %d != pin count %d", len(h.VertNets), len(h.Pins))
	}
	for _, n := range h.VertNets {
		if n < 0 || int(n) >= h.NumNets {
			return fmt.Errorf("hypergraph: incident net %d out of range [0,%d)", n, h.NumNets)
		}
	}
	if h.NetWt != nil {
		if len(h.NetWt) != h.NumNets {
			return fmt.Errorf("hypergraph: net weight slice len %d != NumNets %d", len(h.NetWt), h.NumNets)
		}
		for n, w := range h.NetWt {
			if w < 1 {
				return fmt.Errorf("hypergraph: net %d has weight %d < 1", n, w)
			}
		}
	}
	return nil
}

// ConnectivityMinusOne returns the λ−1 cut cost of the given partition:
// for each net, the number of distinct parts among its pins minus one,
// times the net's weight, summed over nets. parts[v] must be in [0, p).
func (h *Hypergraph) ConnectivityMinusOne(parts []int, p int) int64 {
	seen := make([]int, p)
	for i := range seen {
		seen[i] = -1
	}
	var total int64
	for n := 0; n < h.NumNets; n++ {
		lambda := 0
		for _, v := range h.NetPins(n) {
			pt := parts[v]
			if seen[pt] != n {
				seen[pt] = n
				lambda++
			}
		}
		if lambda > 1 {
			total += int64(lambda-1) * int64(h.NetWeight(n))
		}
	}
	return total
}

// CutNets returns the summed weight of the nets spanning more than one
// part (their number when NetWt is nil); for bipartitions this equals
// ConnectivityMinusOne.
func (h *Hypergraph) CutNets(parts []int) int64 {
	var cut int64
	for n := 0; n < h.NumNets; n++ {
		pins := h.NetPins(n)
		if len(pins) == 0 {
			continue
		}
		first := parts[pins[0]]
		for _, v := range pins[1:] {
			if parts[v] != first {
				cut += int64(h.NetWeight(n))
				break
			}
		}
	}
	return cut
}

// PartWeights returns the total vertex weight in each of p parts.
func (h *Hypergraph) PartWeights(parts []int, p int) []int64 {
	w := make([]int64, p)
	for v := 0; v < h.NumVerts; v++ {
		w[parts[v]] += h.VertWt[v]
	}
	return w
}

// String summarizes the hypergraph.
func (h *Hypergraph) String() string {
	return fmt.Sprintf("hypergraph %d vertices, %d nets, %d pins", h.NumVerts, h.NumNets, h.NumPins())
}
