// Package pool provides the shared worker-pool scheduler behind every
// parallel code path of the library: recursive bisection fans the two
// disjoint halves of each split out over it, the multilevel partitioner
// runs its initial-partition tries (and ParallelFM's coarse-level FM
// tries) on it, and the metric evaluators split row/column scans across
// it.
//
// The pool is a counting semaphore, not a task queue: work is executed by
// the goroutine that asks for it whenever no extra worker slot is free,
// so a Fork or ForEach never blocks waiting for capacity and recursive
// fan-out cannot deadlock or oversubscribe the machine. A nil *Pool is
// valid everywhere and means "run inline, sequentially" — callers thread
// one pool through a whole partitioning run and the same code serves both
// the sequential and the parallel execution.
//
// Determinism: the pool intentionally offers only fork/join and
// fixed-range splitting, no unordered queues. All library algorithms
// built on it derive per-subtask RNG streams from the parent stream
// *before* forking, so their results are bit-identical for a given seed
// regardless of the worker count or scheduling interleavings.
package pool

import (
	"runtime"
	"sync"
)

// Pool bounds the number of goroutines concurrently executing library
// work. The creating goroutine counts as one worker; a pool of W workers
// therefore holds W-1 semaphore tokens for helpers.
type Pool struct {
	workers int
	tokens  chan struct{}
}

// New returns a pool of the given size; workers <= 0 selects
// runtime.GOMAXPROCS(0).
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, tokens: make(chan struct{}, workers-1)}
}

// Workers returns the pool size; 1 for a nil pool.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Fork runs a and b and returns when both are done. When a worker slot
// is free, b runs on a helper goroutine concurrently with a and is
// called with spawned = true; otherwise both run inline on the calling
// goroutine, a first, and b gets spawned = false. The flag lets b reuse
// per-goroutine state that a is done with when it runs inline (recursive
// bisection hands the parent's scratch to an inline right branch). Never
// blocks waiting for capacity.
func (p *Pool) Fork(a func(), b func(spawned bool)) {
	if p == nil {
		a()
		b(false)
		return
	}
	select {
	case p.tokens <- struct{}{}:
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer func() { <-p.tokens }()
			b(true)
		}()
		a()
		<-done
	default:
		a()
		b(false)
	}
}

// ForEach splits the index range [0, n) into one contiguous chunk per
// available worker and calls fn(lo, hi) for each chunk, returning when
// every chunk is done. The chunk boundaries depend only on n and the
// number of runners enlisted, and fn instances touch disjoint ranges, so
// any function whose per-index work is independent produces the same
// result as a sequential fn(0, n) call.
func (p *Pool) ForEach(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	runners := 1
	if p != nil {
	enlist:
		for runners < p.workers && runners < n {
			select {
			case p.tokens <- struct{}{}:
				runners++
			default:
				break enlist
			}
		}
	}
	if runners == 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	for r := 1; r < runners; r++ {
		lo, hi := r*n/runners, (r+1)*n/runners
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer func() { <-p.tokens }()
			fn(lo, hi)
		}(lo, hi)
	}
	fn(0, n/runners)
	wg.Wait()
}
