package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"defectsim/internal/netlist"
)

func TestLotValidationAgreesWithModel(t *testing.T) {
	p, err := Run(netlist.RippleAdder(4), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	v := RunLotValidation(p, 200000, 1)
	if len(v.Rows) == 0 {
		t.Fatal("no rows")
	}
	// The lot simulator shares the models' independence assumptions, so
	// the empirical DL must track the closed form closely.
	if v.MaxErr > 0.10 {
		t.Fatalf("empirical vs model deviation %.1f%% too large", 100*v.MaxErr)
	}
	// Monotone: empirical DL decreases with k (more vectors, fewer escapes),
	// modulo sampling noise — check first vs last.
	first, last := v.Rows[0], v.Rows[len(v.Rows)-1]
	if last.EmpiricalDL >= first.EmpiricalDL {
		t.Fatalf("DL must fall with test length: %g → %g", first.EmpiricalDL, last.EmpiricalDL)
	}
	if !strings.Contains(v.Render(), "VAL-1") {
		t.Fatal("render")
	}
}

func TestInjectionValidationOnPipeline(t *testing.T) {
	p, err := Run(netlist.RippleAdder(4), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	v := RunInjectionValidation(p, 20000, 2)
	if !v.Complete {
		t.Fatalf("extraction incomplete: %s", v.CompleteErr)
	}
	if v.Bridges == 0 || v.Opens == 0 || v.Benign == 0 {
		t.Fatalf("implausible effect mix: %+v", v)
	}
	if v.TopQuartile < 0.5 {
		t.Fatalf("bridge hits poorly correlated with weights: %.2f", v.TopQuartile)
	}
	if !strings.Contains(v.Render(), "COMPLETE") {
		t.Fatal("render")
	}
}

func TestDelayAblation(t *testing.T) {
	p, err := Run(netlist.RippleAdder(4), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunDelayAblation(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.StuckAtCurve {
		if a.TransitionCurve[i].C > a.StuckAtCurve[i].C+1e-12 {
			t.Fatalf("transition coverage exceeds stuck-at at k=%g", a.StuckAtCurve[i].K)
		}
	}
	if a.TransitionCurve.Final() <= 0.3 {
		t.Fatalf("transition coverage %.3f implausibly low", a.TransitionCurve.Final())
	}
	if !strings.Contains(a.Render(), "ABL-4") {
		t.Fatal("render")
	}
}

func TestFaultKindBreakdown(t *testing.T) {
	p, err := Run(netlist.RippleAdder(4), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := FaultKindBreakdown(p)
	for _, want := range []string{"bridge", "open-input", "open-driver"} {
		if !strings.Contains(s, want) {
			t.Fatalf("breakdown missing %q:\n%s", want, s)
		}
	}
}

func TestPathDelayStudy(t *testing.T) {
	p, err := Run(netlist.RippleAdder(4), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, err := RunPathDelayStudy(p, 40)
	if err != nil {
		t.Fatal(err)
	}
	if st.K != 40 {
		t.Fatalf("enumerated %d paths", st.K)
	}
	if st.Longest <= 0 || st.Longest > st.CriticalDelay+1e-9 {
		t.Fatalf("longest %g vs critical %g", st.Longest, st.CriticalDelay)
	}
	if st.Coverage < 0 || st.Coverage > 1 {
		t.Fatalf("coverage %g", st.Coverage)
	}
	if !strings.Contains(st.Render(), "ABL-6") {
		t.Fatal("render")
	}
}

func TestMaxwellAitkenStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full c432-class campaigns")
	}
	p, err := Run(netlist.C432Class(1994), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, err := RunMaxwellAitken(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if st.CompactVectors >= st.FullVectors {
		t.Fatalf("compaction removed nothing: %d vs %d", st.CompactVectors, st.FullVectors)
	}
	if st.ThetaCompact > st.ThetaFull+1e-12 {
		t.Fatalf("a subset cannot cover more: Θ %.4f vs %.4f", st.ThetaCompact, st.ThetaFull)
	}
	// The headline effect: equal stuck-at coverage, higher defect level.
	if st.DLCompact <= st.DLFull {
		t.Fatalf("compacted set must ship more defects: %.0f vs %.0f ppm",
			1e6*st.DLCompact, 1e6*st.DLFull)
	}
	if !strings.Contains(st.Render(), "ABL-7") {
		t.Fatal("render")
	}
}

// TestMaxwellAitkenCancelled: the study's campaign on the compacted set
// polls its context, so a cancelled study returns the context's error.
func TestMaxwellAitkenCancelled(t *testing.T) {
	p, err := Run(netlist.RippleAdder(4), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if st, err := RunMaxwellAitken(ctx, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled study returned %+v, %v; want context.Canceled", st, err)
	}
}

func TestSuiteStudy(t *testing.T) {
	st, err := RunSuiteCtx(context.Background(), []*netlist.Netlist{
		netlist.C17(),
		netlist.RippleAdder(3),
	}, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Rows) != 2 {
		t.Fatal("row count")
	}
	for _, r := range st.Rows {
		if r.ThetaFinal <= 0 || r.ThetaFinal >= 1 {
			t.Fatalf("%s: Θ(final) = %g", r.Name, r.ThetaFinal)
		}
		if r.ResidualPPM <= 0 {
			t.Fatalf("%s: residual must be positive under voltage testing", r.Name)
		}
		if err := r.Fitted.Validate(); err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
	}
	if !strings.Contains(st.Render(), "c17") {
		t.Fatal("render")
	}
}

func TestResistiveBridgeStudy(t *testing.T) {
	p, err := Run(netlist.RippleAdder(4), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, err := RunResistiveBridgeStudy(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := len(st.Gs)
	if n < 3 {
		t.Fatal("sweep too short")
	}
	// Voltage detectability must collapse as the bridge gets resistive.
	if st.ThetaVoltage[n-1] >= st.ThetaVoltage[0] {
		t.Fatalf("weak bridges must evade voltage testing: %.4f vs %.4f",
			st.ThetaVoltage[n-1], st.ThetaVoltage[0])
	}
	for i := range st.Gs {
		if st.ThetaIDDQ[i] < st.ThetaVoltage[i]-1e-12 {
			t.Fatal("IDDQ cannot cover less than voltage alone")
		}
	}
	// The IDDQ screen is conductance-independent in this model: its
	// coverage floor must hold even for the weakest bridge.
	if st.ThetaIDDQ[n-1] < st.ThetaIDDQ[0]*0.95 {
		t.Fatalf("IDDQ coverage should persist for resistive bridges: %.4f vs %.4f",
			st.ThetaIDDQ[n-1], st.ThetaIDDQ[0])
	}
	if !strings.Contains(st.Render(), "ABL-8") {
		t.Fatal("render")
	}
}

func TestAddObservationPoints(t *testing.T) {
	nl := netlist.C432Class(4)
	dft, err := AddObservationPoints(nl, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(dft.POs) != len(nl.POs)+5 {
		t.Fatalf("PO count %d, want %d", len(dft.POs), len(nl.POs)+5)
	}
	if len(dft.Gates) != len(nl.Gates) {
		t.Fatal("logic must be unchanged")
	}
	// The original must not be mutated.
	if len(nl.POs) == len(dft.POs) {
		t.Fatal("copy aliasing")
	}
	// Functional equivalence on the original POs.
	pis := make([]uint64, len(nl.PIs))
	for i := range pis {
		pis[i] = uint64(i % 2)
	}
	v1, _ := nl.Eval(pis)
	v2, _ := dft.Eval(pis)
	for i := range nl.POs {
		if v1[nl.POs[i]] != v2[dft.POs[i]] {
			t.Fatal("observation points changed the function")
		}
	}
}

func TestTestPointStudy(t *testing.T) {
	p, err := Run(netlist.Comparator(5), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, err := RunTestPointStudy(p, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Observation points can only help observability: Θ must not fall
	// (small layout perturbations allowed for — use a loose margin).
	if st.DftTheta < st.BaseTheta-0.02 {
		t.Fatalf("observation points lowered Θ: %.4f → %.4f", st.BaseTheta, st.DftTheta)
	}
	if !strings.Contains(st.Render(), "DFT-1") {
		t.Fatal("render")
	}
}
