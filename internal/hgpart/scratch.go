package hgpart

import "mediumgrain/internal/sparse"

// Scratch holds the reusable working arrays of one multilevel
// bipartition run: coarsening's matching and contraction buffers and
// FM's pin-count/bucket/bookkeeping arrays. The multilevel V-cycle
// builds a fresh hypergraph per level but its working sets have the same
// shape every level, so one Scratch per worker replaces the
// allocate-per-level pattern with overwrites.
//
// A Scratch is owned by exactly one goroutine at a time (the recursive
// bisection driver hands one to each pool worker); the concurrent inner
// phases — parallel initial-partition tries, raced FM tries — use
// private scratches and never touch it. A nil *Scratch is valid
// everywhere and means "allocate fresh", preserving the one-shot entry
// points.
type Scratch struct {
	// Matching: mate and the candidate list of one vertex.
	mate      []int32
	matchCand []int32
	// Contraction: dedup stamp and the kept nets' pin, pointer, and
	// weight accumulators.
	stamp []int32
	pins  []int32
	ctPtr []int32
	ctWt  []int32
	// levelWork holds matching's connectivity array, then contraction's
	// identical-net table: the two phases of a level never overlap, so
	// they share one workspace.
	levelWork []int32
	// FM refinement.
	netSt   []netState
	locked  []bool
	moves   []int32
	buckets gainBuckets
	// Boundary-only passes.
	bndMark []bool
	bndWork []int32
	// Randomized orders (fmPass, random matching).
	permBuf []int
}

// reserve grows every size-tracking buffer to the dimensions of the
// finest hypergraph of a multilevel run. Buffer sizes only shrink while
// coarsening, but refinement walks the hierarchy back up — without the
// reserve, each ascending level's acquisition re-grows pin counts, gain
// buckets, permutations, and marks (sparse.Resize allocates exactly, so
// every growth is a fresh array). One call per run makes all of those
// acquisitions overwrite-only. Contents are not touched; every
// acquisition helper still initializes what it hands out.
func (sc *Scratch) reserve(numVerts, numNets int) {
	if sc == nil {
		return
	}
	sc.mate = sparse.Resize(sc.mate, numVerts)
	sc.stamp = sparse.Resize(sc.stamp, numVerts)
	sc.levelWork = sparse.Resize(sc.levelWork, max(numVerts, mergeTableSize(numNets)))
	sc.netSt = sparse.Resize(sc.netSt, numNets)
	sc.locked = sparse.Resize(sc.locked, numVerts)
	sc.bndMark = sparse.Resize(sc.bndMark, numVerts)
	sc.permBuf = sparse.Resize(sc.permBuf, numVerts)
	g := &sc.buckets
	g.next = sparse.Resize(g.next, numVerts)
	g.prev = sparse.Resize(g.prev, numVerts)
	g.gain = sparse.Resize(g.gain, numVerts)
	g.side = sparse.Resize(g.side, numVerts)
	g.in = sparse.Resize(g.in, numVerts)
	// The heads arrays are deliberately NOT pre-grown here: reinit owns
	// them, because growth must come with the -1 fill of the drained
	// invariant — a bare Resize hands back zeroed memory, where every
	// entry would read as "vertex 0".
}

// mateBuffer returns the mate array (filled with -1) for a matching
// over nv vertices.
func (sc *Scratch) mateBuffer(nv int) []int32 {
	var mate []int32
	if sc == nil {
		mate = make([]int32, nv)
	} else {
		sc.mate = sparse.Resize(sc.mate, nv)
		mate = sc.mate
	}
	for i := range mate {
		mate[i] = -1
	}
	return mate
}

// contractBuffers returns the stamp array (filled with -1) and an empty
// pin accumulator for contracting onto numCoarse vertices.
func (sc *Scratch) contractBuffers(numCoarse int) (stamp, pins []int32) {
	if sc == nil {
		stamp = make([]int32, numCoarse)
		for i := range stamp {
			stamp[i] = -1
		}
		return stamp, make([]int32, 0, 64)
	}
	sc.stamp = sparse.Resize(sc.stamp, numCoarse)
	for i := range sc.stamp {
		sc.stamp[i] = -1
	}
	return sc.stamp, sc.pins[:0]
}

// contractPtr returns the net-pointer accumulator of a contraction,
// seeded with the leading 0 of a CSR pointer array.
func (sc *Scratch) contractPtr() []int32 {
	if sc == nil {
		return append(make([]int32, 0, 64), 0)
	}
	return append(sc.ctPtr[:0], 0)
}

// mergeTableSize returns the identical-net table size for numNets input
// nets: the smallest power of two of at least 2·numNets slots, so the
// table stays at most half full.
func mergeTableSize(numNets int) int {
	size := 1
	for size < 2*numNets {
		size <<= 1
	}
	return size
}

// mergeBuffers returns the empty kept-net weight accumulator and the
// identical-net hash table (every slot -1, sized by mergeTableSize) for
// contracting a hypergraph of numNets nets.
func (sc *Scratch) mergeBuffers(numNets int) (netWt, table []int32) {
	size := mergeTableSize(numNets)
	if sc == nil {
		netWt, table = make([]int32, 0, 64), make([]int32, size)
	} else {
		sc.levelWork = sparse.Resize(sc.levelWork, size)
		netWt, table = sc.ctWt[:0], sc.levelWork
	}
	for i := range table {
		table[i] = -1
	}
	return netWt, table
}

// keepContract records the (possibly grown) contraction accumulators
// back into the scratch so their capacity carries over to the next
// contraction.
func (sc *Scratch) keepContract(pins, ptr, netWt []int32) {
	if sc != nil {
		sc.pins, sc.ctPtr, sc.ctWt = pins[:0], ptr[:0], netWt[:0]
	}
}

// matchBuffers returns heavy-connectivity matching's all-zero
// connectivity array and an empty candidate list.
func (sc *Scratch) matchBuffers(nv int) (conn, cand []int32) {
	if sc == nil {
		return make([]int32, nv), make([]int32, 0, 64)
	}
	sc.levelWork = sparse.Resize(sc.levelWork, nv)
	conn = sc.levelWork
	clear(conn) // the previous level's table may have left it dirty
	return conn, sc.matchCand[:0]
}

// keepMatchCand records the (possibly grown) candidate list back into
// the scratch.
func (sc *Scratch) keepMatchCand(cand []int32) {
	if sc != nil {
		sc.matchCand = cand[:0]
	}
}

// netStates returns the per-net counter records of bipState (pin counts
// and locked-pin counts, packed per net), uninitialized: the state
// constructor resets every record in its counting pass, and fmPass
// re-zeroes the locked counts it touched before returning, so the
// locked halves stay all-zero between passes without per-pass
// O(numNets) clears.
func (sc *Scratch) netStates(numNets int) []netState {
	if sc == nil {
		return make([]netState, numNets)
	}
	sc.netSt = sparse.Resize(sc.netSt, numNets)
	return sc.netSt
}

// boundaryMarks returns the all-false per-vertex boundary flags of a
// boundary-only pass. No clearing happens here: the pass resets every
// flag it raised while inserting the collected boundary, and freshly
// grown arrays come zeroed, so acquisition is O(1).
func (sc *Scratch) boundaryMarks(numVerts int) []bool {
	if sc == nil {
		return make([]bool, numVerts)
	}
	sc.bndMark = sparse.Resize(sc.bndMark, numVerts)
	return sc.bndMark
}

// boundaryWork returns an empty vertex worklist (boundary collection at
// pass start, newly-cut tracking during the pass — the uses do not
// overlap, so they share one backing array).
func (sc *Scratch) boundaryWork() []int32 {
	if sc == nil {
		return make([]int32, 0, 64)
	}
	return sc.bndWork[:0]
}

// keepBoundaryWork records the (possibly grown) worklist back into the
// scratch so its capacity carries over to the next pass.
func (sc *Scratch) keepBoundaryWork(work []int32) {
	if sc != nil {
		sc.bndWork = work[:0]
	}
}

// fmBuffers returns the per-pass FM arrays: the gain buckets sized for
// (numVerts, maxDeg), the all-false locked flags, and an empty move
// log. No clearing happens here: fmPass leaves the buckets drained and
// the locked flags reset on every exit path (and sparse.Resize hands
// out zeroed memory when it must grow), so acquisition is O(1).
func (sc *Scratch) fmBuffers(numVerts, maxDeg int) (g *gainBuckets, locked []bool, moves []int32) {
	if sc == nil {
		return newGainBuckets(numVerts, maxDeg), make([]bool, numVerts), make([]int32, 0, numVerts)
	}
	sc.buckets.reinit(numVerts, maxDeg)
	sc.locked = sparse.Resize(sc.locked, numVerts)
	return &sc.buckets, sc.locked, sc.moves[:0]
}

// keepMoves records the grown move log back into the scratch.
func (sc *Scratch) keepMoves(moves []int32) {
	if sc != nil {
		sc.moves = moves[:0]
	}
}

// reinit resizes the bucket structure for a hypergraph of numVerts
// vertices and maximum degree maxDeg, reusing the backing arrays. It
// relies on the drained invariant — every head -1, every in false, in
// entries beyond the current length included — which drain() restores
// after each pass and which freshly grown (zeroed) arrays satisfy for
// `in`; only a grown heads array needs its -1 fill.
func (g *gainBuckets) reinit(numVerts, maxDeg int) {
	g.maxDeg = maxDeg
	hn := 2*maxDeg + 1
	for s := 0; s < 2; s++ {
		if cap(g.heads[s]) < hn {
			g.heads[s] = make([]int32, hn)
			for i := range g.heads[s] {
				g.heads[s][i] = -1
			}
		} else {
			g.heads[s] = g.heads[s][:hn]
		}
		g.maxGain[s] = -1
		g.count[s] = 0
	}
	g.next = sparse.Resize(g.next, numVerts)
	g.prev = sparse.Resize(g.prev, numVerts)
	g.gain = sparse.Resize(g.gain, numVerts)
	g.side = sparse.Resize(g.side, numVerts)
	g.in = sparse.Resize(g.in, numVerts)
}
