package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"defectsim/internal/obs"
)

// span is one timed call made by the benchmark: an HTTP call of a
// request, or a layer call of the traced replay. Spans of one request
// share its request ID.
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"` // 0 for a root span
	Name      string `json:"name"`
	RequestID string `json:"request_id,omitempty"`
	Start     int64  `json:"start_ns"` // since the tracer's epoch
	End       int64  `json:"end_ns"`
	// AllocBytes is the Go heap allocated by the whole process during
	// the span: recorded only for layer calls.
	AllocBytes *uint64 `json:"alloc_bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced runs call the same code.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) start(parent int, name, rid string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, RequestID: rid, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// layer times one layer call as a child of parent, and records the heap
// it allocated, read from the process-wide counter: the caller runs no
// other call meanwhile.
func (t *tracer) layer(parent int, name, rid string, fn func() error) error {
	if t == nil {
		return fn()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := t.start(parent, name, rid)
	err := fn()
	t.end(id)
	runtime.ReadMemStats(&m1)
	bytes := m1.TotalAlloc - m0.TotalAlloc
	t.mu.Lock()
	t.spans[id-1].AllocBytes = &bytes
	t.mu.Unlock()
	return err
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSON dumps every span to path, with the run reports the server
// returned, keyed by request ID.
func (t *tracer) writeJSON(path string, reports map[string]*obs.Report) error {
	data, err := json.Marshal(struct {
		Spans   []span                 `json:"spans"`
		Reports map[string]*obs.Report `json:"reports"`
	}{t.snapshot(), reports})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time, keyed by span ID: its
// duration minus the part of its interval that its children cover.
// Overlapping children are merged first, so concurrent children are not
// subtracted twice.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		curStart, curEnd := int64(0), int64(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > curStart {
					covered += curEnd - curStart
				}
				curStart, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > curStart {
			covered += curEnd - curStart
		}
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}
