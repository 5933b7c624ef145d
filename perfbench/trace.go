package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/pipeline"
)

// span is one traced interval around a call the benchmark makes into a
// layer. Spans of one session share its id; Parent is the enclosing span
// (-1 for the session's root span).
type span struct {
	Session int    `json:"session"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the traced run. A nil *tracer is the
// untraced run: every method is a no-op.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	session int
	stack   []int
	spans   []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// startSession opens the root span of session id.
func (t *tracer) startSession(id int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.session = id
	t.mu.Unlock()
	return t.begin("session")
}

// begin opens a span under the innermost open one; end closes it. The
// session's own goroutine nests them; oracle workers only add leaves.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Session: t.session, ID: id, Parent: parent, Name: name, StartNs: now})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].EndNs = now
	t.stack = t.stack[:len(t.stack)-1]
}

// leaf records a finished span under the innermost open span.
func (t *tracer) leaf(name string, start, end time.Time) {
	s, e := int64(start.Sub(t.t0)), int64(end.Sub(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Session: t.session, ID: len(t.spans), Parent: parent, Name: name, StartNs: s, EndNs: e})
}

// within runs f inside a span called name.
func (t *tracer) within(name string, f func() error) error {
	id := t.begin(name)
	defer t.end(id)
	return f()
}

// countingOracle wraps a workload's synthetic oracle: it counts calls and,
// when traced, records each call as an "oracle" leaf span.
type countingOracle struct {
	inner exec.Oracle
	tr    *tracer
	calls atomic.Int64
}

func (o *countingOracle) Run(ctx context.Context, in pipeline.Instance) (pipeline.Outcome, error) {
	o.calls.Add(1)
	if o.tr == nil {
		return o.inner.Run(ctx, in)
	}
	start := time.Now()
	out, err := o.inner.Run(ctx, in)
	o.tr.leaf("oracle", start, time.Now())
	return out, err
}

// spanTotals folds the spans into per-name busy time (sum of durations) and,
// for every span name, its self time: its duration minus the part of its
// interval covered by its children.
func spanTotals(spans []span) (busy, self map[string]time.Duration) {
	busy = map[string]time.Duration{}
	self = map[string]time.Duration{}
	children := map[int][]span{}
	for _, s := range spans {
		busy[s.Name] += time.Duration(s.EndNs - s.StartNs)
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		covered := coveredNs(s, children[s.ID])
		self[s.Name] += time.Duration(s.EndNs - s.StartNs - covered)
	}
	return busy, self
}

// coveredNs is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredNs(parent span, kids []span) int64 {
	var total, curS, curE int64
	open := false
	sorted := append([]span(nil), kids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].StartNs < sorted[j].StartNs })
	for _, k := range sorted {
		s, e := max(k.StartNs, parent.StartNs), min(k.EndNs, parent.EndNs)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}
