package experiments

import (
	"context"
	"errors"
	"testing"

	"defectsim/internal/fault"
	"defectsim/internal/netlist"
	"defectsim/internal/switchsim"
)

// exhaustiveSweep is the pre-dropping reference: every bridge fault
// re-simulated at every conductance point, no verdict carrying.
func exhaustiveSweep(t *testing.T, p *Pipeline, gs []float64) ([]float64, []float64) {
	t.Helper()
	bridges := &fault.List{}
	for _, f := range p.Faults.Faults {
		if f.Kind == fault.KindBridge {
			bridges.Faults = append(bridges.Faults, f)
		}
	}
	vectors := p.Vectors()
	voltage := make([]float64, len(gs))
	iddq := make([]float64, len(gs))
	for i, g := range gs {
		res, err := switchsim.SimulateFaults(context.Background(), p.Circuit, bridges, vectors, 1, g, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		k := len(vectors)
		voltage[i] = bridges.WeightedCoverage(res.DetectedBy(k, false))
		iddq[i] = bridges.WeightedCoverage(res.DetectedBy(k, true))
	}
	return voltage, iddq
}

// TestResistiveSweepDroppingMatchesExhaustive pins the detected-fault-
// dropping sweep semantics: carrying "undetected" verdicts from stronger
// to weaker conductances (and computing the IDDQ screen once) must yield
// exactly the coverages an exhaustive per-point re-simulation yields —
// the empirical check of the monotone-detectability premise the dropping
// optimization rests on.
func TestResistiveSweepDroppingMatchesExhaustive(t *testing.T) {
	for _, nl := range []*netlist.Netlist{netlist.C17(), netlist.RippleAdder(4)} {
		p, err := Run(nl, smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		// Default grid plus extra points straddling the device drive
		// strengths (6–8), where strength fights flip outcome.
		gs := []float64{switchsim.BridgeG, 40, 20, 9, 6.5, 5, 3, 1.5, 0.3}
		st, err := RunResistiveBridgeStudy(context.Background(), p, gs)
		if err != nil {
			t.Fatal(err)
		}
		wantV, wantI := exhaustiveSweep(t, p, gs)
		for i := range gs {
			if st.ThetaVoltage[i] != wantV[i] {
				t.Errorf("%s g=%g: ThetaVoltage %.6f, exhaustive %.6f",
					nl.Name, gs[i], st.ThetaVoltage[i], wantV[i])
			}
			if st.ThetaIDDQ[i] != wantI[i] {
				t.Errorf("%s g=%g: ThetaIDDQ %.6f, exhaustive %.6f",
					nl.Name, gs[i], st.ThetaIDDQ[i], wantI[i])
			}
		}
		// The whole point: weaker points must simulate strictly fewer
		// faults than the full list once detectability starts collapsing.
		if st.Simulated[len(gs)-1] >= st.Simulated[0] {
			t.Errorf("%s: weakest point simulated %d faults, strongest %d — dropping had no effect",
				nl.Name, st.Simulated[len(gs)-1], st.Simulated[0])
		}
	}
}

// TestResistiveSweepUnsortedGs pins order independence of the reported
// arrays: results are keyed to the caller's gs order even though the
// carry-forward pass processes conductances strongest-first.
func TestResistiveSweepUnsortedGs(t *testing.T) {
	p, err := Run(netlist.C17(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sorted := []float64{20, 5, 1.5}
	shuffled := []float64{5, 1.5, 20}
	a, err := RunResistiveBridgeStudy(context.Background(), p, sorted)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunResistiveBridgeStudy(context.Background(), p, shuffled)
	if err != nil {
		t.Fatal(err)
	}
	find := func(st *ResistiveBridgeStudy, g float64) (float64, float64) {
		for i := range st.Gs {
			if st.Gs[i] == g {
				return st.ThetaVoltage[i], st.ThetaIDDQ[i]
			}
		}
		t.Fatalf("g=%g missing", g)
		return 0, 0
	}
	for _, g := range sorted {
		av, ai := find(a, g)
		bv, bi := find(b, g)
		if av != bv || ai != bi {
			t.Fatalf("g=%g: sorted run %.6f/%.6f, shuffled run %.6f/%.6f", g, av, ai, bv, bi)
		}
	}
}

// TestResistiveBridgeStudyCancelled: the sweep's campaigns poll the
// study's context, so a cancelled sweep returns its error instead of
// simulating every conductance point.
func TestResistiveBridgeStudyCancelled(t *testing.T) {
	p, err := Run(netlist.RippleAdder(4), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if st, err := RunResistiveBridgeStudy(ctx, p, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %+v, %v; want context.Canceled", st, err)
	}
}
