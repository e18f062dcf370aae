package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// testPool stands small circuits in for the c432-class entries, so that
// every workload runs end to end in seconds.
func testPool(t *testing.T) *pool {
	t.Helper()
	ctx := context.Background()
	mk := func(circuit string, seed int64) entry {
		e, err := computeEntry(ctx, circuit, seed)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	p := &pool{Paper: mk("c17", 1994)}
	for s := int64(1); s <= 3; s++ {
		p.C432 = append(p.C432, mk("dec", s))
	}
	for _, c := range []string{"c17", "dec"} {
		p.SmallWarm = append(p.SmallWarm, mk(c, 1994))
		for s := int64(1); s <= 4; s++ {
			p.Small = append(p.Small, mk(c, s))
		}
	}
	return p
}

// benchNames reads the metric names BENCHMARK.json promises.
func benchNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func newTestBench(t *testing.T, w workload, p *pool) *bench {
	t.Helper()
	pl, err := w.plan(p, 7, w.requests(1))
	if err != nil {
		t.Fatal(err)
	}
	pl.paper = false // the stand-in warm-up is not the paper's circuit
	// A one-second sequence, but a generous cut-off for slow test builds.
	return &bench{w: w, pl: pl, seed: 7, seconds: 60, dir: t.TempDir(), out: io.Discard}
}

func metricNames(res result) []string {
	var names []string
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload untraced and traced on a tiny sequence
// and checks that each prints exactly the metrics BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := benchNames(t)
	p := testPool(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			b := newTestBench(t, w, p)
			res, err := b.untracedRun()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.failures) > 0 || res.failed != 0 || res.attempted == 0 {
				t.Fatalf("untraced: %d of %d failed: %v", res.failed, res.attempted, res.failures)
			}
			if got := metricNames(res); !reflect.DeepEqual(got, endToEnd) {
				t.Errorf("untraced metrics %v, BENCHMARK.json lists %v", got, endToEnd)
			}
			for name, m := range res.metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}

			b = newTestBench(t, w, p)
			res, err = b.tracedRun(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if len(res.failures) > 0 || res.failed != 0 {
				t.Fatalf("traced: %d of %d failed: %v", res.failed, res.attempted, res.failures)
			}
			if got := metricNames(res); !reflect.DeepEqual(got, perLayer) {
				t.Errorf("traced metrics %v, BENCHMARK.json lists %v", got, perLayer)
			}
			if got := res.metrics["store.hit_ratio"].Value; got != 0 {
				t.Errorf("store.hit_ratio = %v, want 0", got)
			}
		})
	}
}

// TestPoolCoversLongestRun checks that the committed oracle pool holds
// enough configurations for a run of the longest --seconds, on any seed,
// without repeating one.
func TestPoolCoversLongestRun(t *testing.T) {
	p, err := loadPool()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for seed := int64(1); seed <= 3; seed++ {
			pl, err := w.plan(p, seed, w.requests(60))
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			seen := map[string]bool{}
			for _, e := range append(pl.warmup, pl.timed...) {
				if seen[e.String()] {
					t.Errorf("%s seed %d sends %s twice", w.name, seed, e)
				}
				seen[e.String()] = true
			}
		}
	}
}

// TestOracleMutation perturbs each compared field of an expected result
// in turn: the oracle must reject every one, and a served request whose
// expected result was perturbed must count as failed.
func TestOracleMutation(t *testing.T) {
	p := testPool(t)
	want := p.C432[0].outputs
	if err := checkOutputs(want, want); err != nil {
		t.Fatal(err)
	}
	v := reflect.ValueOf(&want).Elem()
	for i := 0; i < v.NumField(); i++ {
		got := want
		f := reflect.ValueOf(&got).Elem().Field(i)
		switch f.Kind() {
		case reflect.Float64:
			f.SetFloat(math.Nextafter(f.Float(), math.Inf(1)))
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		}
		if err := checkOutputs(want, got); err == nil {
			t.Errorf("perturbing %s passed the oracle", v.Type().Field(i).Name)
		}
	}

	w, _ := findWorkload("cold_c432")
	b := newTestBench(t, w, p)
	b.pl.timed[0].ThetaFinal = math.Nextafter(b.pl.timed[0].ThetaFinal, 2)
	res, err := b.untracedRun()
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 1 || len(res.failures) != 1 {
		t.Errorf("a perturbed expected result: %d failed, failures %v; want 1", res.failed, res.failures)
	}
}

// TestSelfTimes checks self time on a hand-built span tree with
// overlapping children and a child that outlives its parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "a1", Start: 15, End: 25},
	}
	want := map[int]time.Duration{1: 40, 2: 20, 3: 30, 4: 30, 5: 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestPercentile(t *testing.T) {
	vs := []float64{1, 2, 3, 4}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 2.5}, {90, 3.7}, {100, 4}} {
		if got := percentile(vs, c.p); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}
