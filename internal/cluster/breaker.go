package cluster

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"sync"
	"time"
)

// Backoff computes capped exponential retry delays with deterministic
// jitter: Base doubles per attempt up to Max, then the result is scaled
// by a factor in [0.75, 1.25) derived from hashing (salt, attempt).
// Jitter from a hash instead of an RNG keeps every delay reproducible —
// tests can predict them exactly — while still spreading concurrent
// retriers (different salts) off a shared beat.
type Backoff struct {
	Base time.Duration // first delay; default 500ms
	Max  time.Duration // cap before jitter; default 15s
}

func (b Backoff) withDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = 500 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 15 * time.Second
	}
	return b
}

// Delay returns the 0-based attempt'th delay for the given salt (a key,
// node, or path — anything stable per retry chain).
func (b Backoff) Delay(attempt int, salt string) time.Duration {
	b = b.withDefaults()
	d := b.Base
	for i := 0; i < attempt && d < b.Max; i++ {
		d *= 2
	}
	if d > b.Max {
		d = b.Max
	}
	h := fnv.New32a()
	h.Write([]byte(salt))
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(attempt))
	h.Write(buf[:])
	jitter := 0.75 + float64(h.Sum32()%1000)/2000.0
	return time.Duration(float64(d) * jitter)
}

// SleepCtx sleeps d unless ctx ends first; false means ctx ended and the
// caller should stop retrying.
func SleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Breaker states, as reported by State and /stats.
const (
	BreakerClosed   = "closed"
	BreakerOpen     = "open"
	BreakerHalfOpen = "half-open"
)

// BreakerConfig tunes a Breaker. The zero value selects the defaults.
type BreakerConfig struct {
	// Threshold is the consecutive-failure count that opens a node's
	// circuit. Default 3.
	Threshold int
	// Backoff grows the open interval with each consecutive trip of the
	// same node, so a flapping shard is probed less and less often.
	Backoff Backoff
	// Clock is a test hook; nil means time.Now.
	Clock func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = 3
	}
	c.Backoff = c.Backoff.withDefaults()
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Breaker tracks per-node health as a consecutive-failure circuit
// breaker: closed (healthy) → open after Threshold straight failures →
// half-open when the open interval elapses, admitting a single probe →
// closed again on probe success, re-opened (with a longer interval) on
// probe failure. Callers report outcomes via Success/Failure and gate
// attempts on Allow; a caller that must talk to a node regardless (a
// status poll pinned to the job's shard) can skip Allow and still feed
// outcomes in.
type Breaker struct {
	cfg    BreakerConfig
	mu     sync.Mutex
	nodes  map[string]*breakerNode
	opened int64
	closed int64
}

type breakerNode struct {
	fails   int       // consecutive failures
	trips   int       // consecutive opens; drives the open interval
	state   string    //
	until   time.Time // open: when the next half-open probe is due
	probing bool      // half-open: a probe is in flight
}

// NewBreaker builds a breaker; a zero config selects the defaults.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults(), nodes: make(map[string]*breakerNode)}
}

func (b *Breaker) node(name string) *breakerNode {
	n := b.nodes[name]
	if n == nil {
		n = &breakerNode{state: BreakerClosed}
		b.nodes[name] = n
	}
	return n
}

// Allow reports whether an attempt against node should proceed. In the
// half-open state only one caller wins the probe slot until its outcome
// is reported.
func (b *Breaker) Allow(node string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := b.node(node)
	switch n.state {
	case BreakerOpen:
		if b.cfg.Clock().Before(n.until) {
			return false
		}
		n.state = BreakerHalfOpen
		n.probing = true
		return true
	case BreakerHalfOpen:
		if n.probing {
			return false
		}
		n.probing = true
		return true
	default:
		return true
	}
}

// Success records a healthy exchange with node, closing its circuit.
func (b *Breaker) Success(node string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := b.node(node)
	n.fails = 0
	n.probing = false
	if n.state != BreakerClosed {
		n.state = BreakerClosed
		n.trips = 0
		b.closed++
	}
}

// Failure records a failed exchange with node; enough of them in a row
// (or one failed half-open probe) opens the circuit.
func (b *Breaker) Failure(node string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := b.node(node)
	n.fails++
	n.probing = false
	switch {
	case n.state == BreakerHalfOpen:
		b.trip(node, n)
	case n.state == BreakerClosed && n.fails >= b.cfg.Threshold:
		b.trip(node, n)
	}
}

// Abandon records no outcome for an attempt its caller called off, which
// says nothing about node's health; it only frees a half-open probe slot
// the attempt held, so the next attempt can probe.
func (b *Breaker) Abandon(node string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.node(node).probing = false
}

// trip opens node's circuit; caller holds b.mu.
func (b *Breaker) trip(node string, n *breakerNode) {
	n.state = BreakerOpen
	n.until = b.cfg.Clock().Add(b.cfg.Backoff.Delay(n.trips, node))
	n.trips++
	b.opened++
}

// State returns node's circuit state ("closed" for unknown nodes).
func (b *Breaker) State(node string) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n := b.nodes[node]; n != nil {
		return n.state
	}
	return BreakerClosed
}

// States snapshots every non-closed circuit (closed nodes are omitted:
// healthy is the uninteresting default).
func (b *Breaker) States() map[string]string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := map[string]string{}
	for name, n := range b.nodes {
		if n.state != BreakerClosed {
			out[name] = n.state
		}
	}
	return out
}

// OpenCount returns how many circuits are currently not closed.
func (b *Breaker) OpenCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := 0
	for _, n := range b.nodes {
		if n.state != BreakerClosed {
			c++
		}
	}
	return c
}

// Opened and Closed count lifetime open/close transitions.
func (b *Breaker) Opened() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opened
}

func (b *Breaker) Closed() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.closed
}

// RetryAfter returns how long until the earliest open circuit admits
// its half-open probe — the honest Retry-After for a client refused
// because every candidate was open. Zero when nothing is open.
func (b *Breaker) RetryAfter() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.cfg.Clock()
	var min time.Duration
	for _, n := range b.nodes {
		if n.state != BreakerOpen {
			continue
		}
		d := n.until.Sub(now)
		if d < 0 {
			d = 0
		}
		if min == 0 || d < min {
			min = d
		}
	}
	return min
}
