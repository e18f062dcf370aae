package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterVecChildren(t *testing.T) {
	reg := NewRegistry()
	v := reg.CounterVec("serve_requests_total", "route", "code")
	a := v.With("/v1/dl", "200")
	b := v.With("/v1/dl", "400")
	if a == b {
		t.Fatal("distinct label tuples must get distinct children")
	}
	if again := v.With("/v1/dl", "200"); again != a {
		t.Fatal("same label tuple must return the cached child handle")
	}
	a.Add(3)
	b.Inc()
	if a.Value() != 3 || b.Value() != 1 {
		t.Fatalf("child values = %d, %d; want 3, 1", a.Value(), b.Value())
	}
	if v2 := reg.CounterVec("serve_requests_total", "ignored"); v2 != v {
		t.Fatal("same family name must return the same vec")
	}
}

func TestCounterVecAmbiguousTuples(t *testing.T) {
	reg := NewRegistry()
	v := reg.CounterVec("x", "a", "b")
	// Tuples whose naive join would collide must stay distinct children.
	p := v.With("a,b", "c")
	q := v.With("a", "b,c")
	if p == q {
		t.Fatal(`children for ("a,b","c") and ("a","b,c") collided`)
	}
}

func TestVecArityPanics(t *testing.T) {
	reg := NewRegistry()
	v := reg.CounterVec("x", "one", "two")
	defer func() {
		if recover() == nil {
			t.Fatal("label arity mismatch must panic")
		}
	}()
	v.With("only-one")
}

// TestOneFamilyPerName pins that a plain instrument is its family's
// unlabeled child: a name names one family per kind, so asking for a
// labeled family's name as a plain instrument is an arity mismatch.
func TestOneFamilyPerName(t *testing.T) {
	reg := NewRegistry()
	if reg.CounterVec("c").With() != reg.Counter("c") {
		t.Fatal("Counter(n) must be CounterVec(n).With()")
	}
	if reg.GaugeVec("g").With() != reg.Gauge("g") {
		t.Fatal("Gauge(n) must be GaugeVec(n).With()")
	}
	if reg.HistogramVec("h", []float64{1}).With() != reg.Histogram("h", []float64{1}) {
		t.Fatal("Histogram(n, b) must be HistogramVec(n, b).With()")
	}
	reg.CounterVec("routes_total", "route").With("/v1/dl").Inc()
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `metric "routes_total" wants 1 label values (route), got 0`) {
			t.Fatalf("plain Counter on a labeled family: recovered %q, want the arity panic", msg)
		}
	}()
	reg.Counter("routes_total")
}

func TestGaugeVecAndHistogramVec(t *testing.T) {
	reg := NewRegistry()
	gv := reg.GaugeVec("pool_size", "pool")
	gv.With("atpg").Set(4)
	gv.With("swsim").Set(8)
	if got := gv.With("atpg").Value(); got != 4 {
		t.Fatalf("gauge child = %g, want 4", got)
	}

	hv := reg.HistogramVec("stage_seconds", []float64{1, 2, 4}, "stage")
	h := hv.With("atpg")
	h.Observe(1.5)
	h.Observe(3)
	if h.Count() != 2 || h.Sum() != 4.5 {
		t.Fatalf("hist child count=%d sum=%g, want 2, 4.5", h.Count(), h.Sum())
	}
	// Children share the family bounds, sorted at creation.
	hv2 := reg.HistogramVec("unsorted", []float64{4, 1, 2}, "k")
	bounds, _ := hv2.With("x").Buckets()
	for i := 1; i < len(bounds); i++ {
		if bounds[i-1] > bounds[i] {
			t.Fatalf("vec bounds not sorted: %v", bounds)
		}
	}
}

func TestVecNilSafety(t *testing.T) {
	var reg *Registry
	cv := reg.CounterVec("c", "l")
	if cv != nil || cv.With("x") != nil {
		t.Fatal("nil registry must yield nil vec and nil child")
	}
	cv.With("x").Inc()
	gv := reg.GaugeVec("g", "l")
	if gv != nil || gv.With("x") != nil {
		t.Fatal("nil gauge vec must yield nil child")
	}
	gv.With("x").Set(1)
	hv := reg.HistogramVec("h", []float64{1}, "l")
	if hv != nil || hv.With("x") != nil {
		t.Fatal("nil histogram vec must yield nil child")
	}
	hv.With("x").Observe(5)
}

// TestVecNoopPathZeroAllocs extends the package's zero-alloc guarantee to
// the labeled path: on a nil registry, resolving and observing through a
// vec costs nothing.
func TestVecNoopPathZeroAllocs(t *testing.T) {
	var cv *CounterVec
	var gv *GaugeVec
	var hv *HistogramVec
	var c *Counter
	var g *Gauge
	var h *Histogram
	n := testing.AllocsPerRun(1000, func() {
		c = cv.With("route", "200")
		g = gv.With("pool")
		h = hv.With("stage")
		c.Inc()
		g.Set(1)
		h.Observe(2)
	})
	if n != 0 {
		t.Fatalf("no-op labeled path allocates %v per op, want 0", n)
	}
}

// TestVecHotPathHandleIsLockFree pins the intended usage: resolve the
// child once, then observe concurrently without further With calls.
func TestVecConcurrent(t *testing.T) {
	reg := NewRegistry()
	v := reg.CounterVec("hits", "shard")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shard := string(rune('a' + w%2))
			c := v.With(shard) // resolved once per goroutine
			for i := 0; i < 5000; i++ {
				c.Inc()
			}
		}(w)
	}
	wg.Wait()
	if total := v.With("a").Value() + v.With("b").Value(); total != 40000 {
		t.Fatalf("total = %d, want 40000", total)
	}
}

func TestSnapshotIncludesLabeledSeries(t *testing.T) {
	tr := New()
	reg := tr.Metrics()
	reg.Counter("plain").Add(1)
	v := reg.CounterVec("labeled_total", "route")
	v.With("/b").Add(2)
	v.With("/a").Add(1)
	reg.GaugeVec("depth", "queue").With("main").Set(7)
	reg.HistogramVec("lat", []float64{1, 10}, "stage").With("atpg").Observe(5)

	rep := tr.Report("test")
	var labeled []CounterSnap
	for _, c := range rep.Counters {
		if c.Name == "labeled_total" {
			labeled = append(labeled, c)
		}
	}
	if len(labeled) != 2 {
		t.Fatalf("labeled_total series = %d, want 2: %+v", len(labeled), rep.Counters)
	}
	if labeled[0].Labels["route"] != "/a" || labeled[1].Labels["route"] != "/b" {
		t.Fatalf("labeled series out of order: %+v", labeled)
	}
	if labeled[0].Value != 1 || labeled[1].Value != 2 {
		t.Fatalf("labeled values = %d, %d; want 1, 2", labeled[0].Value, labeled[1].Value)
	}
	foundGauge, foundHist := false, false
	for _, g := range rep.Gauges {
		if g.Name == "depth" && g.Labels["queue"] == "main" && g.Value == 7 {
			foundGauge = true
		}
	}
	for _, h := range rep.Histograms {
		if h.Name == "lat" && h.Labels["stage"] == "atpg" && h.Count == 1 {
			foundHist = true
		}
	}
	if !foundGauge || !foundHist {
		t.Fatalf("labeled gauge/hist missing from snapshot (gauge=%v hist=%v)", foundGauge, foundHist)
	}
	// The render names labeled series with their label suffix.
	if out := rep.Render(); !strings.Contains(out, `labeled_total{route="/a"}`) {
		t.Fatalf("render lacks labeled series name:\n%s", out)
	}
}

func TestSpanHook(t *testing.T) {
	tr := New()
	var mu sync.Mutex
	var got []string
	tr.SetSpanHook(func(name string, start bool) {
		mu.Lock()
		if start {
			got = append(got, "+"+name)
		} else {
			got = append(got, "-"+name)
		}
		mu.Unlock()
	})
	a := tr.StartSpan("a")
	b := tr.StartSpan("b")
	b.End()
	a.End()
	want := []string{"+a", "+b", "-b", "-a"}
	if len(got) != len(want) {
		t.Fatalf("hook calls = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hook calls = %v, want %v", got, want)
		}
	}
	// Nil tracer: SetSpanHook is a no-op, not a panic.
	var nilTr *Tracer
	nilTr.SetSpanHook(func(string, bool) {})
}
