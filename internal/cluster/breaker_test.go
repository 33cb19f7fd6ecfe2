package cluster

import (
	"testing"
	"time"
)

// manualClock is an adjustable time source for breaker tests: no real
// sleeps, every transition driven by explicit advancement.
type manualClock struct{ now time.Time }

func (c *manualClock) Now() time.Time          { return c.now }
func (c *manualClock) Advance(d time.Duration) { c.now = c.now.Add(d) }
func newManualClock() *manualClock             { return &manualClock{now: time.Unix(1700000000, 0)} }
func testBreaker(clk *manualClock, thr int) *Breaker {
	return NewBreaker(BreakerConfig{
		Threshold: thr,
		Backoff:   Backoff{Base: 100 * time.Millisecond, Max: time.Second},
		Clock:     clk.Now,
	})
}

func TestBackoffDelayGrowsAndCaps(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: 800 * time.Millisecond}
	prev := time.Duration(0)
	for attempt := 0; attempt < 4; attempt++ {
		d := b.Delay(attempt, "salt")
		lo := time.Duration(float64(100*time.Millisecond) * 0.75 * float64(int(1)<<attempt))
		hi := time.Duration(float64(100*time.Millisecond) * 1.25 * float64(int(1)<<attempt))
		if d < lo || d >= hi {
			t.Fatalf("attempt %d: delay %v outside jitter band [%v, %v)", attempt, d, lo, hi)
		}
		if d <= prev {
			t.Fatalf("attempt %d: delay %v did not grow past %v", attempt, d, prev)
		}
		prev = d
	}
	// Past the cap the pre-jitter delay stays at Max.
	for attempt := 4; attempt < 8; attempt++ {
		d := b.Delay(attempt, "salt")
		if d < time.Duration(float64(800*time.Millisecond)*0.75) || d >= time.Second {
			t.Fatalf("attempt %d: capped delay %v outside [600ms, 1s)", attempt, d)
		}
	}
	if b.Delay(2, "salt") != b.Delay(2, "salt") {
		t.Fatal("same (attempt, salt) gave different delays")
	}
	if b.Delay(2, "a") == b.Delay(2, "b") {
		t.Fatal("different salts gave identical delays (jitter not applied)")
	}
}

func TestBreakerOpenHalfOpenClose(t *testing.T) {
	clk := newManualClock()
	b := testBreaker(clk, 3)
	const node = "s1:1"

	// Closed: failures below threshold keep admitting traffic.
	for i := 0; i < 2; i++ {
		if !b.Allow(node) {
			t.Fatalf("closed circuit refused attempt %d", i)
		}
		b.Failure(node)
	}
	if st := b.State(node); st != BreakerClosed {
		t.Fatalf("state after 2 failures = %q, want closed", st)
	}

	// Third consecutive failure opens it.
	b.Failure(node)
	if st := b.State(node); st != BreakerOpen {
		t.Fatalf("state after threshold = %q, want open", st)
	}
	if b.Allow(node) {
		t.Fatal("open circuit admitted traffic")
	}
	if b.Opened() != 1 || b.OpenCount() != 1 {
		t.Fatalf("opened=%d openCount=%d, want 1/1", b.Opened(), b.OpenCount())
	}
	if ra := b.RetryAfter(); ra <= 0 || ra > time.Second {
		t.Fatalf("RetryAfter = %v, want within (0, 1s]", ra)
	}

	// After the open interval: exactly one half-open probe slot.
	clk.Advance(time.Second)
	if !b.Allow(node) {
		t.Fatal("due circuit refused the half-open probe")
	}
	if st := b.State(node); st != BreakerHalfOpen {
		t.Fatalf("state during probe = %q, want half-open", st)
	}
	if b.Allow(node) {
		t.Fatal("second caller won a probe slot while one was in flight")
	}

	// Probe success closes it and resets the trip count.
	b.Success(node)
	if st := b.State(node); st != BreakerClosed {
		t.Fatalf("state after probe success = %q, want closed", st)
	}
	if b.Closed() != 1 || b.OpenCount() != 0 {
		t.Fatalf("closed=%d openCount=%d, want 1/0", b.Closed(), b.OpenCount())
	}
	if !b.Allow(node) {
		t.Fatal("re-closed circuit refused traffic")
	}
}

// TestBreakerAbandonFreesProbeSlot: an attempt its caller called off
// records no outcome: it neither counts toward the threshold nor closes
// or reopens a circuit, and a half-open probe slot it held goes to the
// next caller.
func TestBreakerAbandonFreesProbeSlot(t *testing.T) {
	clk := newManualClock()
	b := testBreaker(clk, 1)
	const node = "s3:1"

	b.Allow(node)
	b.Abandon(node)
	if st := b.State(node); st != BreakerClosed {
		t.Fatalf("state after an abandoned attempt = %q, want closed", st)
	}

	b.Failure(node)
	clk.Advance(time.Second)
	if !b.Allow(node) {
		t.Fatal("due circuit refused the half-open probe")
	}
	b.Abandon(node)
	if st := b.State(node); st != BreakerHalfOpen {
		t.Fatalf("state after an abandoned probe = %q, want half-open", st)
	}
	if !b.Allow(node) {
		t.Fatal("abandoned probe kept its slot")
	}
	if b.Allow(node) {
		t.Fatal("second caller won a probe slot while one was in flight")
	}
	if b.Opened() != 1 || b.Closed() != 0 {
		t.Fatalf("opened=%d closed=%d, want 1/0", b.Opened(), b.Closed())
	}
}

func TestBreakerReopenGrowsInterval(t *testing.T) {
	clk := newManualClock()
	b := testBreaker(clk, 1)
	const node = "s2:1"

	b.Failure(node) // trip 0
	first := b.RetryAfter()
	clk.Advance(first)
	if !b.Allow(node) {
		t.Fatal("want probe slot after first interval")
	}
	b.Failure(node) // failed probe: reopen with a longer interval
	if st := b.State(node); st != BreakerOpen {
		t.Fatalf("state after failed probe = %q, want open", st)
	}
	second := b.RetryAfter()
	if second <= first {
		t.Fatalf("reopen interval %v did not grow past %v", second, first)
	}
	if b.Opened() != 2 {
		t.Fatalf("opened = %d, want 2", b.Opened())
	}

	// Success after the next probe resets the growth.
	clk.Advance(second)
	if !b.Allow(node) {
		t.Fatal("want probe slot after second interval")
	}
	b.Success(node)
	b.Failure(node) // trips again at threshold 1, back to the base interval
	if again := b.RetryAfter(); again > first*2 {
		t.Fatalf("post-recovery trip interval %v did not reset toward base (first was %v)", again, first)
	}
}

func TestBreakerSuccessResetsConsecutiveFailures(t *testing.T) {
	clk := newManualClock()
	b := testBreaker(clk, 3)
	const node = "s3:1"
	b.Failure(node)
	b.Failure(node)
	b.Success(node)
	b.Failure(node)
	b.Failure(node)
	if st := b.State(node); st != BreakerClosed {
		t.Fatalf("interleaved successes should prevent a trip; state = %q", st)
	}
	if len(b.States()) != 0 {
		t.Fatalf("States() = %v, want empty while everything is closed", b.States())
	}
}

func TestBreakerTracksNodesIndependently(t *testing.T) {
	clk := newManualClock()
	b := testBreaker(clk, 1)
	b.Failure("down:1")
	if !b.Allow("up:1") {
		t.Fatal("healthy node refused because another tripped")
	}
	if b.State("down:1") != BreakerOpen || b.State("up:1") != BreakerClosed {
		t.Fatalf("states = %v", b.States())
	}
	if m := b.States(); len(m) != 1 || m["down:1"] != BreakerOpen {
		t.Fatalf("States() = %v, want only the open node", m)
	}
}
