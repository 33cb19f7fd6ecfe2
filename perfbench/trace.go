package main

import (
	"cmp"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans live in
// memory until the run ends and are then written out as JSON lines.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	// Req groups the spans of one serve-zipf request; 0 elsewhere.
	Req int64 `json:"req,omitempty"`
	// Start and End are offsets from the recorder's creation.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Replay marks a child that re-executes, after its parent ended,
	// work the parent did inside one call: the probe times the layer
	// entry points of an Engine.Bipartition that way. A replay counts
	// against its parent's self time by its whole duration.
	Replay bool `json:"replay,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder collects spans. A nil *recorder records nothing, so untraced
// runs pay one nil check per call site.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(name string, parent int, req int64) int {
	return r.open(name, parent, req, false)
}

// beginReplay opens a span that replays part of its parent's work.
func (r *recorder) beginReplay(name string, parent int) int {
	return r.open(name, parent, 0, true)
}

func (r *recorder) open(name string, parent int, req int64, replay bool) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Req: req, Start: now, Replay: replay})
	return len(r.spans)
}

// end closes the span with the given id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.spans)
}

// writeJSONL writes every span, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	if r == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// selfTimes returns the self time of every span, indexed like spans: its
// duration minus the part of its interval that its nested children cover
// (overlapping children count once), minus the whole duration of its
// replay children. Span ids must equal their index + 1, as recorded.
func selfTimes(spans []span) []time.Duration {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent > 0 {
			children[s.Parent-1] = append(children[s.Parent-1], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, children[i])
	}
	return self
}

// covered is the time of parent's interval spent in its children.
func covered(parent span, kids []span) time.Duration {
	var total time.Duration
	var nested []span
	for _, k := range kids {
		if k.Replay {
			total += k.dur()
			continue
		}
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			nested = append(nested, span{Start: lo, End: hi})
		}
	}
	slices.SortFunc(nested, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
	var curLo, curHi time.Duration
	for i, k := range nested {
		if i == 0 || k.Start > curHi {
			total += curHi - curLo
			curLo, curHi = k.Start, k.End
		} else if k.End > curHi {
			curHi = k.End
		}
	}
	return total + curHi - curLo
}

// durationsByName groups span durations (or, with self, self times) in
// milliseconds by span name.
func durationsByName(spans []span, self bool) map[string][]float64 {
	var st []time.Duration
	if self {
		st = selfTimes(spans)
	}
	out := make(map[string][]float64)
	for i, s := range spans {
		d := s.dur()
		if self {
			d = st[i]
		}
		out[s.Name] = append(out[s.Name], ms(d))
	}
	return out
}
