package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Registry hands out named metric instruments. Handles are stable: asking
// for the same name twice returns the same instrument, so hot loops fetch
// a handle once and increment through it. A nil *Registry returns nil
// handles, whose methods are allocation-free no-ops.
//
// The registry holds one map of families (see labels.go) per kind; a
// plain instrument is its family's unlabeled child.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*CounterVec
	gauges   map[string]*GaugeVec
	hists    map[string]*HistogramVec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*CounterVec{},
		gauges:   map[string]*GaugeVec{},
		hists:    map[string]*HistogramVec{},
	}
}

// Counter is a monotonically increasing atomic count.
type Counter struct {
	v atomic.Int64
}

// Counter returns (creating if needed) the named counter, the unlabeled
// child of CounterVec(name). Panics if name is a labeled family.
func (r *Registry) Counter(name string) *Counter { return r.CounterVec(name).With() }

// Add increments the counter by n. No-op on nil.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on nil.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic last-value float (e.g. a yield, a coverage ceiling).
type Gauge struct {
	bits atomic.Uint64
}

// Gauge returns (creating if needed) the named gauge, the unlabeled child
// of GaugeVec(name). Panics if name is a labeled family.
func (r *Registry) Gauge(name string) *Gauge { return r.GaugeVec(name).With() }

// Set records v as the gauge's current value. No-op on nil.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last value set (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Bucket i holds
// observations v with bounds[i-1] < v <= bounds[i] (upper-inclusive); one
// overflow bucket holds v > bounds[len-1]. Observation is lock-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last = overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Histogram returns (creating if needed) the named histogram, the
// unlabeled child of HistogramVec(name, bounds). bounds must be sorted
// ascending; they are fixed at first creation and later calls with the
// same name ignore the argument. Panics if name is a labeled family.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	return r.HistogramVec(name, bounds).With()
}

// newHistogram is a histogram family's child constructor; bounds is the
// family's, shared read-only.
func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one sample. No-op on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Buckets returns the bucket upper bounds and the matching counts (the
// extra trailing count is the overflow bucket).
func (h *Histogram) Buckets() (bounds []float64, counts []int64) {
	if h == nil {
		return nil, nil
	}
	bounds = append([]float64(nil), h.bounds...)
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}

// ExpBuckets returns n bounds growing geometrically from start by factor —
// the usual shape for backtrack counts and vector indices.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
