package pool

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNilPoolRunsInline(t *testing.T) {
	var p *Pool
	if got := p.Workers(); got != 1 {
		t.Fatalf("nil pool Workers() = %d, want 1", got)
	}
	order := []int{}
	p.Fork(func() { order = append(order, 1) }, func(bool) { order = append(order, 2) })
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("nil Fork order = %v, want [1 2]", order)
	}
	var sum int
	p.ForEach(10, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += i
		}
	})
	if sum != 45 {
		t.Fatalf("nil ForEach sum = %d, want 45", sum)
	}
}

func TestForkRunsBoth(t *testing.T) {
	p := New(4)
	var a, b atomic.Bool
	p.Fork(func() { a.Store(true) }, func(bool) { b.Store(true) })
	if !a.Load() || !b.Load() {
		t.Fatalf("Fork did not run both branches: a=%v b=%v", a.Load(), b.Load())
	}
}

func TestForkNested(t *testing.T) {
	// Deep nesting must neither deadlock nor lose work even when the
	// fan-out far exceeds the pool size.
	p := New(2)
	var count atomic.Int64
	var rec func(depth int)
	rec = func(depth int) {
		if depth == 0 {
			count.Add(1)
			return
		}
		p.Fork(func() { rec(depth - 1) }, func(bool) { rec(depth - 1) })
	}
	rec(10)
	if got := count.Load(); got != 1024 {
		t.Fatalf("nested Fork ran %d leaves, want 1024", got)
	}
}

func TestForkReportsSpawned(t *testing.T) {
	// No free slot (nil pool, pool of one): b runs inline after a and is
	// told so.
	for _, p := range []*Pool{nil, New(1)} {
		aDone := false
		var spawned, sawA bool
		p.Fork(func() { aDone = true }, func(s bool) { spawned, sawA = s, aDone })
		if spawned || !sawA {
			t.Fatalf("workers=%d: inline b got spawned=%v, ran after a=%v", p.Workers(), spawned, sawA)
		}
	}
	// A free slot: b runs on a helper while a is still running, so a can
	// wait for it.
	p := New(2)
	got := make(chan bool, 1)
	p.Fork(func() {
		select {
		case s := <-got:
			if !s {
				t.Error("concurrent b got spawned=false")
			}
		case <-time.After(10 * time.Second):
			t.Error("b did not run concurrently with a")
		}
	}, func(s bool) { got <- s })
}

func TestForEachCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			p := New(workers)
			hits := make([]atomic.Int32, n)
			p.ForEach(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestForEachConcurrencyBounded(t *testing.T) {
	p := New(3)
	var cur, max atomic.Int64
	var mu sync.Mutex
	p.ForEach(64, func(lo, hi int) {
		c := cur.Add(1)
		mu.Lock()
		if c > max.Load() {
			max.Store(c)
		}
		mu.Unlock()
		for i := 0; i < 1000; i++ {
			_ = i * i
		}
		cur.Add(-1)
	})
	if got := max.Load(); got > 3 {
		t.Fatalf("ForEach ran %d chunks concurrently, pool size 3", got)
	}
}

func TestNewDefaultsToGOMAXPROCS(t *testing.T) {
	if got := New(0).Workers(); got < 1 {
		t.Fatalf("New(0).Workers() = %d, want >= 1", got)
	}
	if got := New(5).Workers(); got != 5 {
		t.Fatalf("New(5).Workers() = %d, want 5", got)
	}
}
