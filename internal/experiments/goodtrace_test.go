package experiments

import (
	"context"
	"path/filepath"
	"testing"

	"defectsim/internal/netlist"
	"defectsim/internal/obs"
)

// counterValue pulls a counter out of a run report snapshot (0 if absent).
func counterValue(rep *obs.Report, name string) int64 {
	for _, c := range rep.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// TestResistiveSweepSharesGoodTrace pins the acceptance criterion: the
// resistive sweep simulates the good machine exactly once per (circuit,
// vectors) pair — the pipeline's own capture — and every conductance point
// counts as a trace hit.
func TestResistiveSweepSharesGoodTrace(t *testing.T) {
	cfg := smallConfig()
	cfg.Obs = obs.New()
	p, err := Run(netlist.RippleAdder(3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := cfg.Obs.Metrics()
	if v := reg.Counter("swsim_goodtrace_misses").Value(); v != 1 {
		t.Fatalf("pipeline run captured the good trace %d times, want exactly 1", v)
	}

	gs := []float64{20, 5, 1.5}
	st, err := RunResistiveBridgeStudy(p, gs)
	if err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("swsim_goodtrace_misses").Value(); v != 1 {
		t.Fatalf("sweep re-simulated the good machine: %d captures total, want 1", v)
	}
	if v := reg.Counter("swsim_goodtrace_hits").Value(); v != int64(len(gs)) {
		t.Fatalf("trace hits = %d, want %d (one per conductance)", v, len(gs))
	}

	// Bitwise identity with the pre-cache behaviour: an isolated pipeline
	// (no shared trace, fresh capture) must produce the same study.
	p2, err := Run(netlist.RippleAdder(3), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	st2, err := RunResistiveBridgeStudy(p2, gs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gs {
		if st.ThetaVoltage[i] != st2.ThetaVoltage[i] || st.ThetaIDDQ[i] != st2.ThetaIDDQ[i] {
			t.Fatalf("g=%g: traced sweep differs: %v/%v vs %v/%v",
				gs[i], st.ThetaVoltage[i], st.ThetaIDDQ[i], st2.ThetaVoltage[i], st2.ThetaIDDQ[i])
		}
	}
}

// TestCacheRestoresGoodTrace pins the persistence path: a cache-hit
// pipeline restores the good trace from disk (no new capture) together
// with the full switch-level Result record, and downstream studies run on
// trace hits alone.
func TestCacheRestoresGoodTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	nl := netlist.RippleAdder(3)
	cfg := smallConfig()

	p1, hit, err := RunCachedCtx(context.Background(), nl, cfg, path)
	if err != nil || hit {
		t.Fatalf("seed run: hit=%v err=%v", hit, err)
	}

	cfg2 := smallConfig()
	cfg2.Obs = obs.New()
	p2, hit, err := RunCachedCtx(context.Background(), netlist.RippleAdder(3), cfg2, path)
	if err != nil || !hit {
		t.Fatalf("second run: hit=%v err=%v", hit, err)
	}
	if p2.SwitchRes.VectorsApplied != p1.SwitchRes.VectorsApplied {
		t.Fatalf("VectorsApplied not restored: %d, want %d", p2.SwitchRes.VectorsApplied, p1.SwitchRes.VectorsApplied)
	}
	if len(p2.SwitchRes.Undecided) != len(p1.SwitchRes.Undecided) {
		t.Fatal("Undecided flags not restored")
	}

	reg := cfg2.Obs.Metrics()
	if v := reg.Counter("swsim_goodtrace_misses").Value(); v != 0 {
		t.Fatalf("cache hit still captured the good trace %d times", v)
	}
	tr, err := p2.GoodTrace(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Complete() || tr.Applied() != len(p2.Vectors()) {
		t.Fatalf("restored trace incomplete: %d/%d vectors", tr.Applied(), len(p2.Vectors()))
	}
	if v := reg.Counter("swsim_goodtrace_misses").Value(); v != 0 {
		t.Fatal("GoodTrace recaptured despite the restored cache trace")
	}

	gs := []float64{20, 1.5}
	st2, err := RunResistiveBridgeStudy(p2, gs)
	if err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("swsim_goodtrace_hits").Value(); v != int64(len(gs)) {
		t.Fatalf("trace hits = %d, want %d", v, len(gs))
	}
	st1, err := RunResistiveBridgeStudy(p1, gs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gs {
		if st1.ThetaVoltage[i] != st2.ThetaVoltage[i] || st1.ThetaIDDQ[i] != st2.ThetaIDDQ[i] {
			t.Fatalf("g=%g: cache-restored sweep differs from fresh sweep", gs[i])
		}
	}
}

// TestRunReportSurfacesTraceReuse pins the observability contract: the
// machine-readable run report of a pipeline + sweep session carries the
// swsim_goodtrace_{hits,misses} counters and the bytes gauge.
func TestRunReportSurfacesTraceReuse(t *testing.T) {
	cfg := smallConfig()
	cfg.Obs = obs.New()
	p, err := Run(netlist.RippleAdder(3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunResistiveBridgeStudy(p, []float64{20}); err != nil {
		t.Fatal(err)
	}
	rep := cfg.Obs.Report(p.Netlist.Name)
	if counterValue(rep, "swsim_goodtrace_misses") != 1 || counterValue(rep, "swsim_goodtrace_hits") != 1 {
		t.Fatalf("run report misses trace-reuse counters: %+v", rep.Counters)
	}
	found := false
	for _, g := range rep.Gauges {
		if g.Name == "swsim_goodtrace_bytes" && g.Value > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("run report misses the swsim_goodtrace_bytes gauge: %+v", rep.Gauges)
	}
}

// TestTopUpAndDiagnosisUseSharedTrace guards the remaining consumers: the
// top-up re-score and the diagnosis replay must not trigger extra good
// trace captures on a pipeline that already holds one.
func TestTopUpAndDiagnosisUseSharedTrace(t *testing.T) {
	cfg := smallConfig()
	cfg.Obs = obs.New()
	p, err := Run(netlist.RippleAdder(3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunBridgeTopUp(context.Background(), p, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := RunDiagnosisStudy(p, 16, 5); err != nil {
		t.Fatal(err)
	}
	reg := cfg.Obs.Metrics()
	if v := reg.Counter("swsim_goodtrace_misses").Value(); v != 1 {
		t.Fatalf("top-up/diagnosis re-captured the good trace: %d misses, want 1", v)
	}
}
