package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"defectsim/internal/textplot"
)

// Report is a machine-readable snapshot of one pipeline run: the stage
// tree with wall-clock and allocation figures plus every metric the run
// recorded. It round-trips through JSON unchanged.
type Report struct {
	Circuit  string `json:"circuit,omitempty"`
	CacheHit bool   `json:"cache_hit,omitempty"`
	// RequestID names the HTTP request that submitted the run, when it
	// came through the serving layer — the correlation handle between an
	// access-log line and this report.
	RequestID string `json:"request_id,omitempty"`
	// Events are notable run-level occurrences (graceful-degradation
	// notices, cache-corruption fallbacks) recorded by the pipeline.
	Events []string `json:"events,omitempty"`
	// TotalNS is the wall time of the top-level stages combined.
	TotalNS    int64           `json:"total_ns"`
	Stages     []*StageReport  `json:"stages,omitempty"`
	Counters   []CounterSnap   `json:"counters,omitempty"`
	Gauges     []GaugeSnap     `json:"gauges,omitempty"`
	Histograms []HistogramSnap `json:"histograms,omitempty"`
}

// StageReport is one node of the span tree.
type StageReport struct {
	Name       string         `json:"name"`
	DurationNS int64          `json:"duration_ns"`
	AllocBytes uint64         `json:"alloc_bytes"`
	Children   []*StageReport `json:"children,omitempty"`
}

// CounterSnap is a counter's value at snapshot time. Labels is non-nil
// exactly when the counter is a labeled-family child.
type CounterSnap struct {
	Name   string            `json:"name"`
	Value  int64             `json:"value"`
	Labels map[string]string `json:"labels,omitempty"`
}

// GaugeSnap is a gauge's last value at snapshot time.
type GaugeSnap struct {
	Name   string            `json:"name"`
	Value  float64           `json:"value"`
	Labels map[string]string `json:"labels,omitempty"`
}

// HistogramSnap is a histogram's full state at snapshot time. Counts has
// one more entry than Bounds (the overflow bucket).
type HistogramSnap struct {
	Name   string            `json:"name"`
	Count  int64             `json:"count"`
	Sum    float64           `json:"sum"`
	Bounds []float64         `json:"bounds"`
	Counts []int64           `json:"counts"`
	Labels map[string]string `json:"labels,omitempty"`
}

// labelSuffix renders a snapshot's labels as {k="v",...} in sorted key
// order, or "" without labels — the display form of a labeled series.
func labelSuffix(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// Quantile estimates the q-quantile (0 < q < 1) of the observed
// distribution by linear interpolation within the containing bucket —
// the same estimator as Prometheus's histogram_quantile. The overflow
// bucket cannot be interpolated, so quantiles landing there report the
// largest finite bound (a lower bound on the true value). Returns NaN on
// an empty histogram or an out-of-range q.
func (h HistogramSnap) Quantile(q float64) float64 {
	if h.Count <= 0 || !(q > 0 && q < 1) {
		return math.NaN()
	}
	rank := q * float64(h.Count)
	var cum int64
	for i, c := range h.Counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(h.Bounds) {
			// Overflow bucket: no upper bound to interpolate against.
			if len(h.Bounds) == 0 {
				return math.NaN()
			}
			return h.Bounds[len(h.Bounds)-1]
		}
		hi := h.Bounds[i]
		lo := 0.0
		switch {
		case i > 0:
			lo = h.Bounds[i-1]
		case hi < 0:
			lo = hi // all-negative domain: do not interpolate from 0
		}
		if c == 0 {
			return hi
		}
		below := cum - c
		frac := (rank - float64(below)) / float64(c)
		return lo + (hi-lo)*frac
	}
	if len(h.Bounds) == 0 {
		return math.NaN()
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Report snapshots the tracer's spans and metrics. Unfinished spans are
// reported with their duration so far. Returns nil on a nil tracer.
func (t *Tracer) Report(circuit string) *Report {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	r := &Report{Circuit: circuit}
	now := time.Now()
	alloc := t.totalAlloc()
	var walk func(s *Span) *StageReport
	walk = func(s *Span) *StageReport {
		sr := &StageReport{Name: s.Name, DurationNS: int64(s.Duration), AllocBytes: s.AllocBytes}
		if !s.ended {
			sr.DurationNS = int64(now.Sub(s.Start))
			sr.AllocBytes = alloc - s.alloc0
		}
		for _, c := range s.Children {
			sr.Children = append(sr.Children, walk(c))
		}
		return sr
	}
	for _, s := range t.spans {
		sr := walk(s)
		r.Stages = append(r.Stages, sr)
		r.TotalNS += sr.DurationNS
	}
	t.mu.Unlock()
	t.reg.snapshotInto(r)
	return r
}

func (r *Registry) snapshotInto(rep *Report) {
	if r == nil {
		return
	}
	r.mu.Lock()
	counterVecs := make([]*CounterVec, 0, len(r.counterVecs))
	for _, v := range r.counterVecs {
		counterVecs = append(counterVecs, v)
	}
	gaugeVecs := make([]*GaugeVec, 0, len(r.gaugeVecs))
	for _, v := range r.gaugeVecs {
		gaugeVecs = append(gaugeVecs, v)
	}
	histVecs := make([]*HistogramVec, 0, len(r.histVecs))
	for _, v := range r.histVecs {
		histVecs = append(histVecs, v)
	}
	for name, c := range r.counters {
		rep.Counters = append(rep.Counters, CounterSnap{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		rep.Gauges = append(rep.Gauges, GaugeSnap{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		bounds, counts := h.Buckets()
		rep.Histograms = append(rep.Histograms, HistogramSnap{
			Name: name, Count: h.Count(), Sum: h.Sum(), Bounds: bounds, Counts: counts,
		})
	}
	// Vec children are collected outside the registry lock (each vec has
	// its own) so a labeled hot path never contends with a snapshot for
	// longer than one map copy.
	r.mu.Unlock()
	for _, v := range counterVecs {
		for _, c := range v.sortedChildren() {
			rep.Counters = append(rep.Counters, CounterSnap{
				Name: v.name, Value: c.Value(), Labels: labelMap(v.labelNames, c.labels),
			})
		}
	}
	for _, v := range gaugeVecs {
		for _, g := range v.sortedChildren() {
			rep.Gauges = append(rep.Gauges, GaugeSnap{
				Name: v.name, Value: g.Value(), Labels: labelMap(v.labelNames, g.labels),
			})
		}
	}
	for _, v := range histVecs {
		for _, h := range v.sortedChildren() {
			bounds, counts := h.Buckets()
			rep.Histograms = append(rep.Histograms, HistogramSnap{
				Name: v.name, Count: h.Count(), Sum: h.Sum(), Bounds: bounds, Counts: counts,
				Labels: labelMap(v.labelNames, h.labels),
			})
		}
	}
	sort.Slice(rep.Counters, func(i, j int) bool {
		if rep.Counters[i].Name != rep.Counters[j].Name {
			return rep.Counters[i].Name < rep.Counters[j].Name
		}
		return labelSuffix(rep.Counters[i].Labels) < labelSuffix(rep.Counters[j].Labels)
	})
	sort.Slice(rep.Gauges, func(i, j int) bool {
		if rep.Gauges[i].Name != rep.Gauges[j].Name {
			return rep.Gauges[i].Name < rep.Gauges[j].Name
		}
		return labelSuffix(rep.Gauges[i].Labels) < labelSuffix(rep.Gauges[j].Labels)
	})
	sort.Slice(rep.Histograms, func(i, j int) bool {
		if rep.Histograms[i].Name != rep.Histograms[j].Name {
			return rep.Histograms[i].Name < rep.Histograms[j].Name
		}
		return labelSuffix(rep.Histograms[i].Labels) < labelSuffix(rep.Histograms[j].Labels)
	})
}

// CounterSnapshot returns the registry's counters sorted by name — the
// partial-progress picture attached to stage-failure errors. A nil
// registry returns nil.
func (r *Registry) CounterSnapshot() []CounterSnap {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]CounterSnap, 0, len(r.counters))
	for name, c := range r.counters {
		out = append(out, CounterSnap{Name: name, Value: c.Value()})
	}
	vecs := make([]*CounterVec, 0, len(r.counterVecs))
	for _, v := range r.counterVecs {
		vecs = append(vecs, v)
	}
	r.mu.Unlock()
	for _, v := range vecs {
		for _, c := range v.sortedChildren() {
			out = append(out, CounterSnap{Name: v.name, Value: c.Value(), Labels: labelMap(v.labelNames, c.labels)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return labelSuffix(out[i].Labels) < labelSuffix(out[j].Labels)
	})
	return out
}

// JSON returns the indented JSON encoding of the report.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Render draws the report as ASCII tables: the stage tree (wall time,
// share of total, allocations) followed by the metrics catalog.
func (r *Report) Render() string {
	if r == nil {
		return "(no run report: tracing was not enabled)\n"
	}
	var b strings.Builder
	if r.Circuit != "" {
		fmt.Fprintf(&b, "run report: %s", r.Circuit)
		if r.CacheHit {
			b.WriteString(" (cache hit)")
		}
		b.WriteByte('\n')
	}
	if r.RequestID != "" {
		fmt.Fprintf(&b, "request: %s\n", r.RequestID)
	}
	for _, e := range r.Events {
		fmt.Fprintf(&b, "event: %s\n", e)
	}
	st := &textplot.Table{Headers: []string{"stage", "wall", "% of run", "alloc"}}
	total := float64(r.TotalNS)
	var add func(s *StageReport, depth int)
	add = func(s *StageReport, depth int) {
		pct := "-"
		if total > 0 {
			pct = fmt.Sprintf("%.1f%%", 100*float64(s.DurationNS)/total)
		}
		st.AddRow(strings.Repeat("  ", depth)+s.Name,
			formatDuration(s.DurationNS), pct, formatBytes(s.AllocBytes))
		for _, c := range s.Children {
			add(c, depth+1)
		}
	}
	for _, s := range r.Stages {
		add(s, 0)
	}
	st.AddRow("total", formatDuration(r.TotalNS), "100.0%", "")
	b.WriteString(st.Render())

	if len(r.Counters) > 0 || len(r.Gauges) > 0 {
		b.WriteByte('\n')
		mt := &textplot.Table{Headers: []string{"metric", "value"}}
		for _, c := range r.Counters {
			mt.AddRow(c.Name+labelSuffix(c.Labels), fmt.Sprintf("%d", c.Value))
		}
		for _, g := range r.Gauges {
			mt.AddRow(g.Name+labelSuffix(g.Labels), fmt.Sprintf("%.6g", g.Value))
		}
		b.WriteString(mt.Render())
	}
	if len(r.Histograms) > 0 {
		b.WriteByte('\n')
		ht := &textplot.Table{Headers: []string{"histogram", "count", "mean", "p50", "p90", "p99"}}
		quant := func(h HistogramSnap, q float64) string {
			v := h.Quantile(q)
			if math.IsNaN(v) {
				return "-"
			}
			return fmt.Sprintf("%.4g", v)
		}
		for _, h := range r.Histograms {
			mean := "-"
			if h.Count > 0 {
				mean = fmt.Sprintf("%.4g", h.Sum/float64(h.Count))
			}
			ht.AddRow(h.Name+labelSuffix(h.Labels), fmt.Sprintf("%d", h.Count),
				mean, quant(h, 0.5), quant(h, 0.9), quant(h, 0.99))
		}
		b.WriteString(ht.Render())
	}
	return b.String()
}

func formatDuration(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	}
	return fmt.Sprintf("%dns", ns)
}

func formatBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}
