package obs

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Metric families. A family is the instruments of one kind sharing a
// name and a fixed set of label names; With resolves a concrete
// label-value tuple to its child instrument, creating it on first use. A
// plain instrument (Registry.Counter, Gauge, Histogram) is the one
// unlabeled child of a family with no label names, so a name names one
// family per kind.
//
// The hot-path contract: With is a locked binary search, so hot loops
// resolve their child handle ONCE up front and observe through it
// lock-free afterwards — never With-per-observation. Everything is
// nil-safe: a nil vec returns a nil child, whose methods are
// allocation-free no-ops, so instrumented code needs no nil checks.

// labelKey renders a label-value tuple into an unambiguous child key
// (quoting makes "a","b" distinct from "a,b").
func labelKey(values []string) string {
	var b strings.Builder
	for _, v := range values {
		b.WriteString(strconv.Quote(v))
		b.WriteByte(',')
	}
	return b.String()
}

// Vec is a family of instruments of kind T selected by label values, e.g.
// serve_requests_total{route,code}.
type Vec[T any] struct {
	name       string
	labelNames []string
	bounds     []float64 // histogram families: every child's bucket bounds
	newChild   func(bounds []float64) *T
	mu         sync.Mutex
	// children is ordered by key, the order snapshots and the Prometheus
	// encoder list series in. A slice rather than a map keeps a plain
	// instrument's family small: every retained serving job holds its own
	// registry.
	children []child[T]
}

// child is one instrument of a family with its label values.
type child[T any] struct {
	key    string // labelKey(values)
	values []string
	inst   *T
}

// CounterVec is a family of counters, GaugeVec a family of gauges, and
// HistogramVec a family of histograms whose children share the family's
// bucket bounds (e.g. pipeline_stage_seconds{stage}).
type (
	CounterVec   = Vec[Counter]
	GaugeVec     = Vec[Gauge]
	HistogramVec = Vec[Histogram]
)

// family returns (creating if needed) the family called name in m. Label
// names, bounds (copied and sorted) and the child constructor are fixed
// at first creation; later calls with the same name ignore them. The
// caller has checked r != nil.
func family[T any](r *Registry, m map[string]*Vec[T], name string, labelNames []string, bounds []float64, newChild func([]float64) *T) *Vec[T] {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := m[name]
	if v == nil {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		v = &Vec[T]{
			name:       name,
			labelNames: append([]string(nil), labelNames...),
			bounds:     b,
			newChild:   newChild,
		}
		m[name] = v
	}
	return v
}

// families returns the registry's families of one kind, for a reader to
// walk outside the registry lock (each family has its own).
func families[T any](r *Registry, m map[string]*Vec[T]) []*Vec[T] {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Vec[T], 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// CounterVec returns (creating if needed) the named counter family. The
// label names are fixed at first creation; later calls with the same name
// ignore the argument. Nil-safe.
func (r *Registry) CounterVec(name string, labelNames ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return family(r, r.counters, name, labelNames, nil, func([]float64) *Counter { return new(Counter) })
}

// GaugeVec returns (creating if needed) the named gauge family. Nil-safe;
// label names are fixed at first creation.
func (r *Registry) GaugeVec(name string, labelNames ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return family(r, r.gauges, name, labelNames, nil, func([]float64) *Gauge { return new(Gauge) })
}

// HistogramVec returns (creating if needed) the named histogram family.
// bounds must be sorted ascending (they are sorted defensively); bounds
// and label names are fixed at first creation. Nil-safe.
func (r *Registry) HistogramVec(name string, bounds []float64, labelNames ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return family(r, r.hists, name, labelNames, bounds, newHistogram)
}

// With returns the child for the given label values (one per label name,
// in declaration order), creating it on first use. The handle is stable:
// callers cache it and observe lock-free. Nil-safe; panics on label arity
// mismatch (a programming error).
func (v *Vec[T]) With(values ...string) *T {
	if v == nil {
		return nil
	}
	if len(values) != len(v.labelNames) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values (%s), got %d",
			v.name, len(v.labelNames), strings.Join(v.labelNames, ","), len(values)))
	}
	key := labelKey(values)
	v.mu.Lock()
	defer v.mu.Unlock()
	i, ok := slices.BinarySearchFunc(v.children, key, func(c child[T], key string) int {
		return strings.Compare(c.key, key)
	})
	if !ok {
		v.children = slices.Insert(v.children, i, child[T]{
			key: key, values: append([]string(nil), values...), inst: v.newChild(v.bounds),
		})
	}
	return v.children[i].inst
}

// each calls fn with every child's label values and instrument, in key
// order, under the family lock: fn must not call With on the family.
func (v *Vec[T]) each(fn func(values []string, inst *T)) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, c := range v.children {
		fn(c.values, c.inst)
	}
}

// labelMap pairs label names with a child's values for snapshots.
func labelMap(names, values []string) map[string]string {
	if len(names) == 0 {
		return nil
	}
	m := make(map[string]string, len(names))
	for i, n := range names {
		if i < len(values) {
			m[n] = values[i]
		}
	}
	return m
}
