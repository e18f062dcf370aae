package experiments

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"defectsim/internal/netlist"
	"defectsim/internal/obs"
)

func TestRunTraced(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RandomVectors = 16
	cfg.Obs = obs.New()
	p, err := Run(netlist.C17(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Report == nil {
		t.Fatal("traced run must populate Pipeline.Report")
	}
	if len(p.Report.Stages) != 1 || p.Report.Stages[0].Name != "pipeline" {
		t.Fatalf("want a single pipeline root stage, got %+v", p.Report.Stages)
	}
	root := p.Report.Stages[0]
	wantStages := []string{"layout", "lvs", "extract", "scale-weights", "transistor-map", "stuckat-collapse", "atpg", "switch-sim", "curves"}
	if len(root.Children) != len(wantStages) {
		t.Fatalf("stage count = %d, want %d: %+v", len(root.Children), len(wantStages), root.Children)
	}
	var sum int64
	for i, c := range root.Children {
		if c.Name != wantStages[i] {
			t.Fatalf("stage %d = %q, want %q", i, c.Name, wantStages[i])
		}
		sum += c.DurationNS
	}
	// The stages cover the whole run: their durations must account for
	// (almost) all of the root's wall time, and never exceed it.
	if sum > root.DurationNS {
		t.Fatalf("stage sum %d exceeds pipeline total %d", sum, root.DurationNS)
	}
	if float64(sum) < 0.5*float64(root.DurationNS) {
		t.Fatalf("stage sum %d covers under half the pipeline total %d", sum, root.DurationNS)
	}
	// Metrics that any successful run must have produced.
	counters := map[string]int64{}
	for _, c := range p.Report.Counters {
		counters[c.Name] = c.Value
	}
	if counters["extract_bridge_faults"] == 0 {
		t.Fatal("extraction recorded no bridge faults")
	}
	if counters["pipeline_vectors"] != int64(len(p.TestSet.Patterns)) {
		t.Fatalf("pipeline_vectors = %d, want %d", counters["pipeline_vectors"], len(p.TestSet.Patterns))
	}
	if counters["swsim_vectors_applied"] == 0 {
		t.Fatal("switch-sim recorded no vectors")
	}
	gauges := map[string]float64{}
	for _, g := range p.Report.Gauges {
		gauges[g.Name] = g.Value
	}
	if gauges["pipeline_yield"] != p.Yield {
		t.Fatalf("pipeline_yield gauge = %g, want %g", gauges["pipeline_yield"], p.Yield)
	}
}

func TestRunUntracedHasNoReport(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RandomVectors = 16
	p, err := Run(netlist.C17(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Report != nil {
		t.Fatal("untraced run must leave Pipeline.Report nil")
	}
}

func TestRunCachedTracedHit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	cfg := DefaultConfig()
	cfg.RandomVectors = 16

	// Prime the cache untraced.
	if _, hit, err := RunCachedCtx(context.Background(), netlist.C17(), cfg, path); err != nil || hit {
		t.Fatalf("prime: hit=%v err=%v", hit, err)
	}

	// A traced rerun must hit and still deliver a report flagged as such.
	cfg.Obs = obs.New()
	p, hit, err := RunCachedCtx(context.Background(), netlist.C17(), cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("second run should hit the cache")
	}
	if p.Report == nil || !p.Report.CacheHit {
		t.Fatalf("cache hit must produce a CacheHit-flagged report, got %+v", p.Report)
	}
	front := []string{"layout", "lvs", "extract", "scale-weights", "transistor-map", "stuckat-collapse"}
	assertStages(t, p.Report, append(front, "cache-load", "curves"))
	counters := map[string]int64{}
	for _, c := range p.Report.Counters {
		counters[c.Name] = c.Value
	}
	if counters["pipeline_cache_hits"] != 1 {
		t.Fatalf("pipeline_cache_hits = %d, want 1", counters["pipeline_cache_hits"])
	}

	// An entry that fails the restore checks falls back within the same
	// run: the front end is built once, then atpg and switch-sim follow.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	poisoned := reseal(t, data, func(cf *cacheFile) { cf.Untestable = []bool{} })
	if err := os.WriteFile(path, poisoned, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.Obs = obs.New()
	p, hit, err = RunCachedCtx(context.Background(), netlist.C17(), cfg, path)
	if err != nil || hit {
		t.Fatalf("poisoned entry: hit=%v err=%v", hit, err)
	}
	if p.Report.CacheHit {
		t.Fatal("fallback run report is flagged CacheHit")
	}
	assertStages(t, p.Report, append(front, "cache-load", "atpg", "switch-sim", "curves"))
	var extracts func(ss []*obs.StageReport) int
	extracts = func(ss []*obs.StageReport) int {
		n := 0
		for _, s := range ss {
			if s.Name == "extract" {
				n++
			}
			n += extracts(s.Children)
		}
		return n
	}
	if n := extracts(p.Report.Stages); n != 1 {
		t.Fatalf("fallback run recorded %d extract spans, want 1", n)
	}
}

// assertStages checks that rep has the single root "pipeline" with exactly
// the given top-level stages, in order.
func assertStages(t *testing.T, rep *obs.Report, want []string) {
	t.Helper()
	if len(rep.Stages) != 1 || rep.Stages[0].Name != "pipeline" {
		t.Fatalf("want a single pipeline root stage, got %+v", rep.Stages)
	}
	var got []string
	for _, c := range rep.Stages[0].Children {
		got = append(got, c.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stages = %v, want %v", got, want)
	}
}
