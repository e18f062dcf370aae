package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) of a Registry: the
// scrape surface behind dlprojd's /metrics. The encoder is self-contained
// (no client library): counters and gauges become single samples,
// histograms become cumulative _bucket series with upper-inclusive le
// bounds plus _sum and _count — exactly the semantics our buckets already
// have. Metric and label names are sanitized to the exposition charset,
// label values are escaped, and output order is deterministic (families
// by name, series by label tuple) so scrapes diff cleanly.

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// sanitizeMetricName maps s onto the exposition metric-name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*, replacing invalid runes with '_' and
// prefixing '_' when the first rune is a digit. Empty names become "_".
func sanitizeMetricName(s string) string {
	return sanitizeName(s, true)
}

// sanitizeLabelName is sanitizeMetricName without the colon (reserved
// for recording rules, invalid in label names).
func sanitizeLabelName(s string) string {
	return sanitizeName(s, false)
}

func sanitizeName(s string, allowColon bool) string {
	if s == "" {
		return "_"
	}
	var b strings.Builder
	b.Grow(len(s) + 1)
	for i, r := range s {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(allowColon && r == ':') || (i > 0 && r >= '0' && r <= '9')
		switch {
		case ok:
			b.WriteRune(r)
		case i == 0 && r >= '0' && r <= '9':
			b.WriteByte('_')
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double quote and newline.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 2)
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// formatFloat renders a sample value. strconv 'g' already yields the
// exposition spellings for the specials (+Inf, -Inf, NaN).
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promLabels renders a label set as {k="v",...} (or "" when empty),
// optionally with an extra le pair appended for histogram buckets.
func promLabels(names, values []string, le string) string {
	if len(names) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for i, n := range names {
		if i >= len(values) {
			break
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(sanitizeLabelName(n))
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	if le != "" {
		if !first {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// promFamily is one metric family ready to print: a TYPE line plus its
// samples in deterministic order.
type promFamily struct {
	name  string
	kind  string // counter | gauge | histogram
	lines []string
}

// WritePrometheus writes every instrument of the registry in the
// Prometheus text exposition format. Families are ordered by (sanitized)
// name; a plain instrument's sample carries no labels. Safe to call
// concurrently with metric creation and observation. A nil registry
// writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	fams := map[string]*promFamily{}
	family := func(rawName, kind string) *promFamily {
		name := sanitizeMetricName(rawName)
		f := fams[name]
		if f == nil {
			f = &promFamily{name: name, kind: kind}
			fams[name] = f
		}
		return f
	}

	for _, v := range families(r, r.counters) {
		f := family(v.name, "counter")
		v.each(func(values []string, c *Counter) {
			f.lines = append(f.lines, fmt.Sprintf("%s%s %d",
				f.name, promLabels(v.labelNames, values, ""), c.Value()))
		})
	}
	for _, v := range families(r, r.gauges) {
		f := family(v.name, "gauge")
		v.each(func(values []string, g *Gauge) {
			f.lines = append(f.lines, fmt.Sprintf("%s%s %s",
				f.name, promLabels(v.labelNames, values, ""), formatFloat(g.Value())))
		})
	}
	for _, v := range families(r, r.hists) {
		f := family(v.name, "histogram")
		v.each(func(values []string, h *Histogram) {
			bounds, counts := h.Buckets()
			var cum int64
			for i, bound := range bounds {
				cum += counts[i]
				f.lines = append(f.lines, fmt.Sprintf("%s_bucket%s %d",
					f.name, promLabels(v.labelNames, values, formatFloat(bound)), cum))
			}
			// The overflow bucket closes the cumulative series at +Inf. _count
			// repeats that cumulative total (not a separate h.Count() read) so
			// the scrape-internal invariant +Inf == _count holds even while
			// observations land concurrently.
			cum += counts[len(counts)-1]
			f.lines = append(f.lines, fmt.Sprintf("%s_bucket%s %d",
				f.name, promLabels(v.labelNames, values, "+Inf"), cum))
			f.lines = append(f.lines, fmt.Sprintf("%s_sum%s %s",
				f.name, promLabels(v.labelNames, values, ""), formatFloat(h.Sum())))
			f.lines = append(f.lines, fmt.Sprintf("%s_count%s %d",
				f.name, promLabels(v.labelNames, values, ""), cum))
		})
	}

	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := fams[n]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, line := range f.lines {
			if _, err := io.WriteString(w, line+"\n"); err != nil {
				return err
			}
		}
	}
	return nil
}
