// Package obs is the pipeline's observability substrate: a span tracer
// for per-stage wall-clock and allocation accounting, a metrics registry
// (atomic counters, gauges and fixed-bucket histograms) cheap enough to
// touch from fault-simulation inner loops, and a machine-readable run
// report combining both (JSON for tooling, ASCII tables for terminals).
//
// Everything is nil-safe: a nil *Tracer, *Registry, *Counter, *Gauge,
// *Histogram or *Span is a no-op that performs no allocation, so library
// code instruments unconditionally and users pay nothing unless they opt
// in with obs.New().
package obs

import (
	"runtime/metrics"
	"sync"
	"time"
)

// Tracer records a tree of named spans. The zero value for *Tracer (nil)
// is a valid no-op tracer; obs.New() returns a recording one.
type Tracer struct {
	mu      sync.Mutex
	reg     *Registry
	started time.Time
	spans   []*Span  // top-level spans in start order
	cur     *Span    // innermost un-ended span, or nil
	hook    SpanHook // optional live span observer, called outside the lock

	// allocs is the reusable sample of /gc/heap/allocs:bytes; guarded by
	// mu.
	allocs [1]metrics.Sample
}

// SpanHook observes span lifecycle transitions live: it is called with
// the span name on every explicit StartSpan (start=true) and on the first
// effective End (start=false). Spans ended implicitly by an out-of-order
// parent End do not fire the hook. Hooks run synchronously on the
// instrumented goroutine, outside the tracer lock — keep them cheap and
// never call back into the tracer.
type SpanHook func(name string, start bool)

// SetSpanHook installs (or with nil removes) the tracer's span hook. The
// serving layer uses this to stream a job's stage transitions to event
// subscribers. No-op on a nil tracer.
func (t *Tracer) SetSpanHook(h SpanHook) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.hook = h
	t.mu.Unlock()
}

// New returns a recording tracer with a fresh metrics registry.
func New() *Tracer {
	t := &Tracer{reg: NewRegistry(), started: time.Now()}
	t.allocs[0].Name = "/gc/heap/allocs:bytes"
	return t
}

// Metrics returns the tracer's registry (nil for a nil tracer, which makes
// every metric handle derived from it a no-op too).
func (t *Tracer) Metrics() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Span is one timed region. Spans nest: a span started while another is
// open becomes its child. End is idempotent and nil-safe.
type Span struct {
	tracer *Tracer
	parent *Span

	Name     string
	Start    time.Time
	Duration time.Duration
	// AllocBytes is the heap allocated between StartSpan and End across
	// all goroutines (the /gc/heap/allocs:bytes delta, the counter behind
	// runtime.MemStats.TotalAlloc). Children's allocations are included;
	// Report subtracts them for "self" figures.
	AllocBytes uint64
	Children   []*Span

	alloc0 uint64
	ended  bool
}

// StartSpan opens a span nested under the innermost open span. On a nil
// tracer it returns nil (a no-op span) without allocating.
func (t *Tracer) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	s := &Span{tracer: t, parent: t.cur, Name: name}
	if t.cur == nil {
		t.spans = append(t.spans, s)
	} else {
		t.cur.Children = append(t.cur.Children, s)
	}
	t.cur = s
	// runtime/metrics reads the allocation counter without stopping the
	// world (runtime.ReadMemStats would stall every goroutine and charge
	// the stall to the parent span); the shared sample needs the lock.
	// The clock starts after the read, so the span does not charge itself
	// for it, and under the lock, so a concurrent Report or End never
	// reads a half-initialized span.
	s.alloc0 = t.totalAlloc()
	s.Start = time.Now()
	hook := t.hook
	t.mu.Unlock()
	if hook != nil {
		hook(name, true)
	}
	return s
}

// End closes the span, recording its wall time and allocation delta. A
// second End, or End on a nil span, does nothing. Out-of-order ends are
// tolerated: ending a span implicitly ends any still-open descendants.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	t := s.tracer
	t.mu.Lock()
	if s.ended {
		t.mu.Unlock()
		return
	}
	alloc := t.totalAlloc()
	// Implicitly end open descendants (leaked spans) first.
	for c := t.cur; c != nil && c != s; c = c.parent {
		if !c.ended {
			c.ended = true
			c.Duration = now.Sub(c.Start)
			c.AllocBytes = alloc - c.alloc0
		}
	}
	s.ended = true
	s.Duration = now.Sub(s.Start)
	s.AllocBytes = alloc - s.alloc0
	// Pop to the nearest un-ended ancestor.
	for c := t.cur; ; c = c.parent {
		if c == nil {
			t.cur = nil
			break
		}
		if !c.ended {
			t.cur = c
			break
		}
	}
	hook := t.hook
	t.mu.Unlock()
	if hook != nil {
		hook(s.Name, false)
	}
}

// totalAlloc returns the cumulative bytes allocated on the heap by the
// whole process. Caller holds t.mu.
func (t *Tracer) totalAlloc() uint64 {
	metrics.Read(t.allocs[:])
	return t.allocs[0].Value.Uint64()
}
