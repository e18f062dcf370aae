package defectsim

// Benchmark harness: one benchmark per figure/table/example of the paper's
// evaluation (see DESIGN.md §4 for the experiment index). Each benchmark
// regenerates its artifact; the rendered rows/series are printed once per
// run so `go test -bench=. -benchmem` doubles as the reproduction script.
//
// The heavyweight benchmarks share a single c432-class pipeline run
// (layout → extraction → ATPG → gate- and switch-level fault simulation),
// built lazily on first use.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"defectsim/internal/atpg"
	"defectsim/internal/defect"
	"defectsim/internal/experiments"
	"defectsim/internal/extract"
	"defectsim/internal/fault"
	"defectsim/internal/gatesim"
	"defectsim/internal/layout"
	"defectsim/internal/netlist"
	"defectsim/internal/obs"
	"defectsim/internal/store"
	"defectsim/internal/switchsim"
	"defectsim/internal/transistor"
)

var (
	pipeOnce sync.Once
	pipe     *experiments.Pipeline
	pipeErr  error

	printOnce sync.Map // figure name -> struct{}
)

func c432Pipeline(b *testing.B) *experiments.Pipeline {
	b.Helper()
	pipeOnce.Do(func() {
		pipe, pipeErr = experiments.Run(netlist.C432Class(1994), experiments.DefaultConfig())
	})
	if pipeErr != nil {
		b.Fatal(pipeErr)
	}
	return pipe
}

func printFigure(name, rendered string) {
	if _, dup := printOnce.LoadOrStore(name, struct{}{}); !dup {
		fmt.Printf("\n===== %s =====\n%s\n", name, rendered)
	}
}

// BenchmarkFig1CoverageGrowth regenerates paper figure 1 (analytic T(k),
// Θ(k) growth laws).
func BenchmarkFig1CoverageGrowth(b *testing.B) {
	var f *experiments.Fig1
	for i := 0; i < b.N; i++ {
		f = experiments.Figure1()
	}
	printFigure("FIG1", f.Render())
}

// BenchmarkFig2ModelCurves regenerates paper figure 2 (Williams–Brown vs
// eq. 11 at Y = 0.75, R = 2, Θmax = 0.96).
func BenchmarkFig2ModelCurves(b *testing.B) {
	var f *experiments.Fig2
	for i := 0; i < b.N; i++ {
		f = experiments.Figure2()
	}
	printFigure("FIG2", f.Render())
}

// BenchmarkFig3WeightHistogram regenerates paper figure 3 (histogram of
// layout-extracted fault weights). The benchmark times the layout fault
// extraction itself, the step that produces the histogram's data.
func BenchmarkFig3WeightHistogram(b *testing.B) {
	L, err := layout.Build(netlist.C432Class(1994), nil)
	if err != nil {
		b.Fatal(err)
	}
	stats := defect.Typical()
	var list *fault.List
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		list = extract.Faults(L, stats)
	}
	b.StopTimer()
	list.ScaleToYield(0.75)
	p := &experiments.Pipeline{Faults: list}
	printFigure("FIG3", experiments.Figure3(p).Render())
}

// BenchmarkFig4CoverageCurves regenerates paper figure 4 (simulated T(k),
// Θ(k), Γ(k) on the c432-class circuit).
func BenchmarkFig4CoverageCurves(b *testing.B) {
	p := c432Pipeline(b)
	b.ResetTimer()
	var f *experiments.Fig4
	for i := 0; i < b.N; i++ {
		f = experiments.Figure4(p)
	}
	printFigure("FIG4", f.Render())
}

// BenchmarkFig5DefectLevelVsT regenerates paper figure 5 (fallout points
// (T(k), DL(Θ(k))) with the Williams–Brown curve and the (R, Θmax) fit).
func BenchmarkFig5DefectLevelVsT(b *testing.B) {
	p := c432Pipeline(b)
	b.ResetTimer()
	var f *experiments.Fig5
	for i := 0; i < b.N; i++ {
		f = experiments.Figure5(p)
	}
	printFigure("FIG5", f.Render())
}

// BenchmarkFig6UnweightedDL regenerates paper figure 6 (the same defect
// levels against the unweighted coverage Γ).
func BenchmarkFig6UnweightedDL(b *testing.B) {
	p := c432Pipeline(b)
	b.ResetTimer()
	var f *experiments.Fig6
	for i := 0; i < b.N; i++ {
		f = experiments.Figure6(p)
	}
	printFigure("FIG6", f.Render())
}

// BenchmarkExample1RequiredCoverage regenerates paper Example 1 (required
// stuck-at coverage for a 100 ppm target).
func BenchmarkExample1RequiredCoverage(b *testing.B) {
	var e *experiments.Example1
	var err error
	for i := 0; i < b.N; i++ {
		e, err = experiments.RunExample1()
		if err != nil {
			b.Fatal(err)
		}
	}
	printFigure("EX1", e.Render())
}

// BenchmarkExample2ResidualDL regenerates paper Example 2 (residual defect
// level at full stuck-at coverage).
func BenchmarkExample2ResidualDL(b *testing.B) {
	var e *experiments.Example2
	for i := 0; i < b.N; i++ {
		e = experiments.RunExample2()
	}
	printFigure("EX2", e.Render())
}

// BenchmarkAgrawalFit regenerates TAB-A: the Agrawal-model n fit against
// the same fallout points as figure 5.
func BenchmarkAgrawalFit(b *testing.B) {
	p := c432Pipeline(b)
	b.ResetTimer()
	var a *experiments.AgrawalComparison
	for i := 0; i < b.N; i++ {
		a = experiments.RunAgrawalComparison(p)
	}
	printFigure("TAB-A", a.Render())
}

// BenchmarkAblationUnweighted regenerates ABL-1: predicting the defect
// level from the unweighted coverage Γ (figure 6's deviation measure) —
// the Huisman-rebuttal ablation showing weight dispersion cannot be
// neglected.
func BenchmarkAblationUnweighted(b *testing.B) {
	p := c432Pipeline(b)
	b.ResetTimer()
	var dev float64
	for i := 0; i < b.N; i++ {
		dev = experiments.Figure6(p).MaxDeviation()
	}
	printFigure("ABL-1", fmt.Sprintf("unweighted DL(Γ) prediction deviates up to %.1f×\n", dev))
}

// BenchmarkAblationIDDQ regenerates ABL-2: the coverage ceiling and
// residual defect level under voltage-only versus voltage+IDDQ detection.
func BenchmarkAblationIDDQ(b *testing.B) {
	p := c432Pipeline(b)
	b.ResetTimer()
	var a *experiments.IDDQAblation
	for i := 0; i < b.N; i++ {
		a = experiments.RunIDDQAblation(p)
	}
	printFigure("ABL-2", a.Render())
}

// BenchmarkLotValidation regenerates VAL-1: the empirical defect level of
// a simulated production lot against the closed-form DL(Θ(k)).
func BenchmarkLotValidation(b *testing.B) {
	p := c432Pipeline(b)
	b.ResetTimer()
	var v *experiments.LotValidation
	for i := 0; i < b.N; i++ {
		v = experiments.RunLotValidation(p, 100000, 1)
	}
	printFigure("VAL-1", v.Render())
}

// BenchmarkDefectInjection regenerates VAL-2: random spot defects dropped
// on the mask geometry, cross-checking the extracted fault list.
func BenchmarkDefectInjection(b *testing.B) {
	p := c432Pipeline(b)
	b.ResetTimer()
	var v *experiments.InjectionValidation
	for i := 0; i < b.N; i++ {
		v = experiments.RunInjectionValidation(p, 50000, 2)
	}
	printFigure("VAL-2", v.Render())
}

// BenchmarkDelayFaultSim regenerates ABL-4: transition-fault (delay)
// coverage versus stuck-at coverage on the same vectors.
func BenchmarkDelayFaultSim(b *testing.B) {
	p := c432Pipeline(b)
	b.ResetTimer()
	var a *experiments.DelayAblation
	for i := 0; i < b.N; i++ {
		var err error
		a, err = experiments.RunDelayAblation(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	printFigure("ABL-4", a.Render())
}

// BenchmarkBridgeTopUp regenerates ABL-5: constrained-ATPG vectors for the
// bridges the stuck-at set missed, switch-verified, and the resulting Θ
// ceiling improvement.
func BenchmarkBridgeTopUp(b *testing.B) {
	p := c432Pipeline(b)
	b.ResetTimer()
	var t *experiments.BridgeTopUp
	for i := 0; i < b.N; i++ {
		var err error
		t, err = experiments.RunBridgeTopUp(context.Background(), p, 300)
		if err != nil {
			b.Fatal(err)
		}
	}
	printFigure("ABL-5", t.Render())
}

// BenchmarkPathDelayStudy regenerates ABL-6: STA, the 100 longest paths
// and their non-robust coverage by the stuck-at set's vector pairs.
func BenchmarkPathDelayStudy(b *testing.B) {
	p := c432Pipeline(b)
	b.ResetTimer()
	var st *experiments.PathDelayStudy
	for i := 0; i < b.N; i++ {
		var err error
		st, err = experiments.RunPathDelayStudy(p, 100)
		if err != nil {
			b.Fatal(err)
		}
	}
	printFigure("ABL-6", st.Render())
}

// BenchmarkResistiveBridges regenerates ABL-8: the bridge-conductance
// sweep showing voltage detectability collapsing for resistive bridges
// while the IDDQ screen persists. Each conductance point is one campaign
// over the faults the stronger points left worth simulating, so the
// regression gate records the carry-forward win of the
// detected-fault-dropping sweep.
func BenchmarkResistiveBridges(b *testing.B) {
	p := c432Pipeline(b)
	b.ResetTimer()
	var st *experiments.ResistiveBridgeStudy
	for i := 0; i < b.N; i++ {
		var err error
		st, err = experiments.RunResistiveBridgeStudy(context.Background(), p, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	printFigure("ABL-8", st.Render())
}

// BenchmarkMaxwellAitken regenerates ABL-7: equal stuck-at coverage, a
// compacted test set, and the quality gap between them (the paper's
// reference [4] phenomenon).
func BenchmarkMaxwellAitken(b *testing.B) {
	p := c432Pipeline(b)
	b.ResetTimer()
	var st *experiments.MaxwellAitkenStudy
	for i := 0; i < b.N; i++ {
		var err error
		st, err = experiments.RunMaxwellAitken(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
	}
	printFigure("ABL-7", st.Render())
}

// BenchmarkBridgeDiagnosis regenerates VAL-3: localizing physical bridge
// defects from tester failure signatures through stuck-at surrogates.
func BenchmarkBridgeDiagnosis(b *testing.B) {
	p := c432Pipeline(b)
	b.ResetTimer()
	var st *experiments.DiagnosisStudy
	for i := 0; i < b.N; i++ {
		var err error
		st, err = experiments.RunDiagnosisStudy(context.Background(), p, 100, 5)
		if err != nil {
			b.Fatal(err)
		}
	}
	printFigure("VAL-3", st.Render())
}

// BenchmarkFaultKindBreakdown prints the per-kind detection profile behind
// the Θmax discussion.
func BenchmarkFaultKindBreakdown(b *testing.B) {
	p := c432Pipeline(b)
	b.ResetTimer()
	var s string
	for i := 0; i < b.N; i++ {
		s = experiments.FaultKindBreakdown(p)
	}
	printFigure("KINDS", s)
}

// --- Component microbenchmarks: the substrates' cost profile. ---

// BenchmarkLayoutBuild times standard-cell placement + routing of the
// c432-class netlist.
func BenchmarkLayoutBuild(b *testing.B) {
	nl := netlist.C432Class(1994)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := layout.Build(nl, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultExtraction times inductive fault analysis (critical areas
// for every bridge/open) on the c432-class layout.
func BenchmarkFaultExtraction(b *testing.B) {
	L, err := layout.Build(netlist.C432Class(1994), nil)
	if err != nil {
		b.Fatal(err)
	}
	stats := defect.Typical()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		extract.Faults(L, stats)
	}
}

// BenchmarkGateLevelFaultSim times 64-way parallel-pattern stuck-at
// simulation of the full collapsed universe over 256 random vectors,
// pinned to one worker — the serial measurement the BENCH_seed.json
// regression gate compares against. The fault-parallel engine is measured
// by BenchmarkGateLevelFaultSimWorkers.
func BenchmarkGateLevelFaultSim(b *testing.B) {
	nl := netlist.C432Class(1994)
	faults := fault.StuckAtUniverse(nl)
	pats := gatesim.RandomPatterns(nl, 256, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gatesim.SimulateFaultsCtx(context.Background(), nl, faults, pats, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGateLevelFaultSimWorkers sweeps the fault-parallel engine's
// worker count on the same campaign as BenchmarkGateLevelFaultSim: the
// serial-vs-parallel speedup table in DESIGN.md §Performance comes from
// this benchmark. (Results are bitwise identical at every count; only the
// wall clock moves.)
func BenchmarkGateLevelFaultSimWorkers(b *testing.B) {
	nl := netlist.C432Class(1994)
	faults := fault.StuckAtUniverse(nl)
	pats := gatesim.RandomPatterns(nl, 256, 1)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := gatesim.SimulateFaultsCtx(context.Background(), nl, faults, pats, w, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSwitchLevelGoodSim times switch-level good-circuit simulation of
// 64 vectors on the c432-class transistor netlist.
func BenchmarkSwitchLevelGoodSim(b *testing.B) {
	L, err := layout.Build(netlist.C432Class(1994), nil)
	if err != nil {
		b.Fatal(err)
	}
	c := transistor.FromLayout(L)
	vecs := switchsim.Vectors(gatesim.RandomPatterns(L.Netlist, 64, 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, out := range switchsim.Run(c, vecs) {
			if out == nil {
				b.Fatal("the fault-free machine did not settle")
			}
		}
	}
}

// BenchmarkATPG times the full test-set build (random prefix + SCOAP-guided
// PODEM top-up with per-pattern fault dropping), pinned to one simulation
// worker for continuity with the BENCH_seed.json baseline; the worker
// sweep is BenchmarkATPGWorkers.
func BenchmarkATPG(b *testing.B) {
	nl := netlist.C432Class(1994)
	faults := fault.StuckAtUniverse(nl)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := atpg.BuildTestSetWorkersCtx(context.Background(), nl, faults, 64, 1994, 2000, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkATPGWorkers sweeps the worker count of ATPG's embedded
// gate-level fault-simulation phases (the PODEM search itself stays
// serial, so gains bound well below linear — Amdahl's law on the
// search-dominated tail).
func BenchmarkATPGWorkers(b *testing.B) {
	nl := netlist.C432Class(1994)
	faults := fault.StuckAtUniverse(nl)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := atpg.BuildTestSetWorkersCtx(context.Background(), nl, faults, 64, 1994, 2000, w, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNDetectCountingSim times the counting-mode gate-level fault
// simulation (faults stay live until n = 4 detections) on the same
// campaign as BenchmarkGateLevelFaultSim, so the two seed entries bound
// the cost of multiplicity accounting over first-detection dropping.
func BenchmarkNDetectCountingSim(b *testing.B) {
	nl := netlist.C432Class(1994)
	faults := fault.StuckAtUniverse(nl)
	pats := gatesim.RandomPatterns(nl, 256, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gatesim.SimulateFaultsNCtx(context.Background(), nl, faults, pats, 4, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNDetectTestSet times the n-detect top-up (ABL-9's inner loop):
// growing a 1-detect base set until every testable fault is detected 4
// times or saturates. The base set is built once outside the timer — the
// benchmark isolates the multiplicity top-up itself.
func BenchmarkNDetectTestSet(b *testing.B) {
	nl := netlist.C432Class(1994)
	faults := fault.StuckAtUniverse(nl)
	base, err := atpg.BuildTestSetWorkersCtx(context.Background(), nl, faults, 64, 1994, 2000, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := atpg.BuildNDetectTestSet(context.Background(), nl, faults, base.Patterns, base.Untestable, 4, 2000, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Observability overhead: instrumented hot loops, no-op vs traced. ---

// benchATPGTopUp runs the deterministic ATPG top-up (the instrumented
// per-fault backtracking loop) under the given tracer.
func benchATPGTopUp(b *testing.B, tr func() *obs.Tracer) {
	nl := netlist.C432Class(1994)
	faults := fault.StuckAtUniverse(nl)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := atpg.BuildTestSetWorkersCtx(context.Background(), nl, faults, 64, 1994, 2000, 0, tr()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkATPGTopUpNoopObs is the instrumented ATPG top-up with the
// default nil tracer — the baseline every library user gets.
func BenchmarkATPGTopUpNoopObs(b *testing.B) {
	benchATPGTopUp(b, func() *obs.Tracer { return nil })
}

// BenchmarkATPGTopUpTraced is the same loop with a recording tracer, to
// keep the observability overhead (spans + backtrack metrics) visible.
func BenchmarkATPGTopUpTraced(b *testing.B) {
	benchATPGTopUp(b, obs.New)
}

// benchSwitchSim runs the switch-level fault-simulation inner loop (the
// instrumented per-vector machine advance) under the given registry.
func benchSwitchSim(b *testing.B, reg func() *obs.Registry) {
	p := c432Pipeline(b)
	vectors := switchsim.Vectors(p.TestSet.Patterns[:min(64, len(p.TestSet.Patterns))])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := switchsim.SimulateFaults(context.Background(), p.Circuit, p.Faults, vectors, 0, switchsim.BridgeG, reg(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSwitchSimNoopObs is the instrumented switch-level fault
// simulation with a nil registry — the default zero-cost path.
func BenchmarkSwitchSimNoopObs(b *testing.B) {
	benchSwitchSim(b, func() *obs.Registry { return nil })
}

// BenchmarkSwitchSimTraced is the same campaign with metrics recording.
func BenchmarkSwitchSimTraced(b *testing.B) {
	benchSwitchSim(b, func() *obs.Registry { return obs.NewRegistry() })
}

// smallCircuitCampaigns builds the pipelines of the six small circuits
// dlbench's small_mix workload sends (one seed each).
func smallCircuitCampaigns(b *testing.B) []*experiments.Pipeline {
	var pipes []*experiments.Pipeline
	for _, name := range []string{"c17", "adder", "mux", "parity", "cmp", "dec"} {
		nl, err := netlist.ByName(name, 1994)
		if err != nil {
			b.Fatal(err)
		}
		p, err := experiments.Run(nl, experiments.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		pipes = append(pipes, p)
	}
	return pipes
}

// benchSmallCircuits times the six small campaigns, each against memos[j]
// (nil: a private memo per campaign).
func benchSmallCircuits(b *testing.B, pipes []*experiments.Pipeline, memos []*switchsim.Memo) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, p := range pipes {
			if _, err := switchsim.SimulateFaults(context.Background(), p.Circuit, p.Faults, p.Vectors(), 0, switchsim.BridgeG, nil, memos[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSwitchSimSmallCircuits times the switch-level campaigns of the
// six small circuits dlbench's small_mix workload sends (one seed each,
// each campaign on its pipeline's test set): the per-fault cost of short
// jobs, where the campaign is most of a request.
func BenchmarkSwitchSimSmallCircuits(b *testing.B) {
	pipes := smallCircuitCampaigns(b)
	benchSmallCircuits(b, pipes, make([]*switchsim.Memo, len(pipes)))
}

// BenchmarkSwitchSimSmallCircuitsWarm is BenchmarkSwitchSimSmallCircuits
// on a server's warm switch-level memo: one memo shared by the six
// designs, each design's own memo warmed by one untimed campaign — what a
// repeated design's campaign costs on dlprojd, where the fault plans, seed
// classes, CCC tables and class-table entries are already built.
func BenchmarkSwitchSimSmallCircuitsWarm(b *testing.B) {
	pipes := smallCircuitCampaigns(b)
	shared := switchsim.NewMemo(nil)
	memos := make([]*switchsim.Memo, len(pipes))
	for j, p := range pipes {
		memos[j] = shared.Design(p.Circuit, p.Faults)
		if _, err := switchsim.SimulateFaults(context.Background(), p.Circuit, p.Faults, p.Vectors(), 0, switchsim.BridgeG, nil, memos[j]); err != nil {
			b.Fatal(err)
		}
	}
	benchSmallCircuits(b, pipes, memos)
}

// BenchmarkPipelineStoreHitC432 times a result-store hit on the
// c432-class pipeline whose front end is already memoized — what a server
// pays for a repeated design: the store read, the envelope check, six
// front-end stages served from the memo, cache-load and the curves.
// Without the memo every hit rebuilds layout, LVS and extraction.
func BenchmarkPipelineStoreHitC432(b *testing.B) {
	ctx := context.Background()
	data, err := c432Pipeline(b).EncodeCache()
	if err != nil {
		b.Fatal(err)
	}
	st, err := store.NewFS(b.TempDir(), nil)
	if err != nil {
		b.Fatal(err)
	}
	nl, cfg := netlist.C432Class(1994), experiments.DefaultConfig()
	if err := st.Put(ctx, experiments.CacheKey(nl.Name, cfg), data); err != nil {
		b.Fatal(err)
	}
	cfg.FrontEnds = experiments.NewFrontEnds(nil)
	hit := func() {
		if _, ok, err := experiments.RunStoredCtx(ctx, nl, cfg, st); err != nil || !ok {
			b.Fatalf("store hit = %v, err = %v", ok, err)
		}
	}
	hit() // builds the front end into the memo
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit()
	}
}

// TestNoopInstrumentationZeroAllocs pins down the contract the no-op
// benchmarks rely on: the exact calls the hot loops add (counter
// increments, histogram observations, span start/end) allocate nothing
// when observability is off (nil tracer/registry handles).
func TestNoopInstrumentationZeroAllocs(t *testing.T) {
	var tr *obs.Tracer
	reg := tr.Metrics()
	c := reg.Counter("hot_counter")
	h := reg.Histogram("hot_hist", nil)
	g := reg.Gauge("hot_gauge")
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.StartSpan("stage")
		c.Add(7)
		c.Inc()
		h.Observe(3)
		g.Set(0.5)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("no-op instrumentation allocates %v per op, want 0", allocs)
	}
}
