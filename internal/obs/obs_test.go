package obs

import (
	"sync"
	"testing"
	"time"
)

func TestSpanNestingAndOrdering(t *testing.T) {
	tr := New()
	a := tr.StartSpan("a")
	b := tr.StartSpan("b")
	b.End()
	c := tr.StartSpan("c")
	c.End()
	a.End()
	d := tr.StartSpan("d")
	d.End()

	if len(tr.spans) != 2 {
		t.Fatalf("top-level spans = %d, want 2", len(tr.spans))
	}
	if tr.spans[0].Name != "a" || tr.spans[1].Name != "d" {
		t.Fatalf("top-level order = %q, %q, want a, d", tr.spans[0].Name, tr.spans[1].Name)
	}
	if len(a.Children) != 2 || a.Children[0].Name != "b" || a.Children[1].Name != "c" {
		t.Fatalf("children of a wrong: %+v", a.Children)
	}
	if len(b.Children) != 0 {
		t.Fatalf("b should be a leaf")
	}
	for _, s := range []*Span{a, b, c, d} {
		if !s.ended {
			t.Fatalf("span %s not ended", s.Name)
		}
		if s.Duration < 0 {
			t.Fatalf("span %s has negative duration", s.Name)
		}
	}
	if a.Duration < b.Duration+c.Duration {
		t.Fatalf("parent duration %v < sum of children %v", a.Duration, b.Duration+c.Duration)
	}
}

func TestSpanOutOfOrderEnd(t *testing.T) {
	tr := New()
	a := tr.StartSpan("a")
	b := tr.StartSpan("b")
	a.End() // implicitly ends b
	if !b.ended {
		t.Fatal("ending the parent should end the open child")
	}
	// Double End is a no-op.
	b.End()
	a.End()
	c := tr.StartSpan("c")
	c.End()
	if len(tr.spans) != 2 || tr.spans[1].Name != "c" {
		t.Fatalf("c should be a new top-level span, got %+v", tr.spans)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.StartSpan("x")
	sp.End()
	if sp != nil {
		t.Fatal("nil tracer must return nil span")
	}
	if tr.Metrics() != nil {
		t.Fatal("nil tracer must return nil registry")
	}
	if tr.Report("c") != nil {
		t.Fatal("nil tracer must return nil report")
	}
	var reg *Registry
	c := reg.Counter("n")
	c.Add(3)
	c.Inc()
	if c != nil || c.Value() != 0 {
		t.Fatal("nil registry counter must be a no-op nil")
	}
	g := reg.Gauge("n")
	g.Set(1)
	if g != nil || g.Value() != 0 {
		t.Fatal("nil registry gauge must be a no-op nil")
	}
	h := reg.Histogram("n", []float64{1})
	h.Observe(5)
	if h != nil || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil registry histogram must be a no-op nil")
	}
}

func TestNoopPathZeroAllocs(t *testing.T) {
	var tr *Tracer
	var c *Counter
	var g *Gauge
	var h *Histogram
	n := testing.AllocsPerRun(1000, func() {
		sp := tr.StartSpan("stage")
		c.Add(1)
		c.Inc()
		g.Set(3.14)
		h.Observe(42)
		sp.End()
	})
	if n != 0 {
		t.Fatalf("no-op observability path allocates %v per op, want 0", n)
	}
}

// TestTracedSpanOneAlloc pins a recording StartSpan/End pair at one
// allocation, the Span itself: reading the allocation counter reuses the
// tracer's sample instead of allocating one per call.
func TestTracedSpanOneAlloc(t *testing.T) {
	tr := New()
	root := tr.StartSpan("root")
	defer root.End()
	n := testing.AllocsPerRun(1000, func() {
		tr.StartSpan("stage").End()
	})
	if n != 1 {
		t.Fatalf("traced StartSpan/End allocates %v per pair, want 1", n)
	}
}

// TestTracerConcurrentSpansAndReport opens and closes spans on several
// goroutines while another snapshots the tracer: every field a Report or
// an implicit End reads is written under the tracer lock, so -race stays
// quiet and no open span reports a duration measured from the zero time.
func TestTracerConcurrentSpansAndReport(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.StartSpan("stage").End()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			for _, st := range tr.Report("c").Stages {
				if st.DurationNS < 0 || st.DurationNS > int64(time.Hour) {
					t.Errorf("span %q reports %d ns", st.Name, st.DurationNS)
					return
				}
			}
		}
	}()
	wg.Wait()
}

func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("shared")
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("shared").Value(); got != workers*per {
		t.Fatalf("concurrent counter = %d, want %d", got, workers*per)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", []float64{10, 20})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(w * 10))
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != 4000 {
		t.Fatalf("count = %d, want 4000", h.Count())
	}
	if want := float64(0+10+20+30) * 1000; h.Sum() != want {
		t.Fatalf("sum = %g, want %g", h.Sum(), want)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("edges", []float64{1, 2, 4})
	// Upper-inclusive buckets: v <= bound lands in that bucket.
	h.Observe(0.5) // bucket 0 (<=1)
	h.Observe(1)   // bucket 0 (edge, inclusive)
	h.Observe(1.5) // bucket 1 (<=2)
	h.Observe(2)   // bucket 1 (edge)
	h.Observe(4)   // bucket 2 (edge)
	h.Observe(4.1) // overflow
	h.Observe(100) // overflow
	_, counts := h.Buckets()
	want := []int64{2, 2, 1, 2}
	if len(counts) != len(want) {
		t.Fatalf("bucket count slice = %v", counts)
	}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, counts[i], want[i], counts)
		}
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
}

func TestHistogramStableHandleAndBounds(t *testing.T) {
	reg := NewRegistry()
	h1 := reg.Histogram("h", []float64{3, 1, 2}) // unsorted on purpose
	h2 := reg.Histogram("h", []float64{99})      // later bounds ignored
	if h1 != h2 {
		t.Fatal("same name must return the same histogram")
	}
	bounds, _ := h1.Buckets()
	for i := 1; i < len(bounds); i++ {
		if bounds[i-1] > bounds[i] {
			t.Fatalf("bounds not sorted: %v", bounds)
		}
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 4, 4)
	want := []float64{1, 4, 16, 64}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}
