package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"defectsim/internal/netlist"
)

func TestBridgeTopUpRaisesTheta(t *testing.T) {
	// Use a short random-only test budget so plenty of bridges stay
	// undetected for the top-up to attack.
	cfg := DefaultConfig()
	cfg.RandomVectors = 8
	p, err := Run(netlist.Comparator(5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tu, err := RunBridgeTopUp(context.Background(), p, 200)
	if err != nil {
		t.Fatal(err)
	}
	if tu.Targeted == 0 {
		t.Skip("campaign left no netlist-visible bridges undetected")
	}
	if tu.Generated == 0 {
		t.Fatal("constrained ATPG produced no candidates")
	}
	if tu.Verified == 0 {
		t.Fatal("no candidate survived switch-level verification")
	}
	if tu.ThetaAfter < tu.ThetaBefore {
		t.Fatalf("top-up cannot lower Θ: %.4f → %.4f", tu.ThetaBefore, tu.ThetaAfter)
	}
	if tu.NewlyDetected == 0 {
		t.Fatal("verified vectors must detect new faults in the re-scored campaign")
	}
	if tu.ResidualAfter > tu.ResidualBefore {
		t.Fatal("residual DL cannot rise")
	}
	if !strings.Contains(tu.Render(), "ABL-5") {
		t.Fatal("render")
	}
}

// TestBridgeTopUpVoltageOnlyAccounting locks the documented Θ accounting
// of the top-up (see RunBridgeTopUp): both ThetaBefore and ThetaAfter are
// voltage-only — IDDQ credit is excluded from both sides of the delta, so
// the study measures exactly what the extra voltage vectors buy, and IDDQ
// detections that needed no new vectors (the ABL-2 ablation) are never
// double-counted as top-up gains.
func TestBridgeTopUpVoltageOnlyAccounting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RandomVectors = 8
	p, err := Run(netlist.Comparator(5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tu, err := RunBridgeTopUp(context.Background(), p, 200)
	if err != nil {
		t.Fatal(err)
	}
	thetaV := p.ThetaCurve(false).Final()
	thetaI := p.ThetaCurve(true).Final()
	if tu.ThetaBefore != thetaV {
		t.Fatalf("ThetaBefore = %.6f, voltage-only ThetaCurve(false) = %.6f", tu.ThetaBefore, thetaV)
	}
	if thetaI > thetaV {
		// This campaign has IDDQ-only detections, so the accounting choice
		// is observable: the top-up baseline must sit below the IDDQ curve.
		if tu.ThetaBefore >= thetaI {
			t.Fatalf("ThetaBefore = %.6f includes IDDQ credit (Θ_iddq = %.6f)", tu.ThetaBefore, thetaI)
		}
	} else {
		t.Log("campaign produced no IDDQ-only detections; baseline check is vacuous here")
	}
	// NewlyDetected counts only voltage detections of previously
	// voltage-undetected faults; it can never exceed the faults the
	// voltage campaign left undetected.
	undetV := 0
	for _, d := range p.SwitchRes.DetectedAt {
		if d == 0 {
			undetV++
		}
	}
	if tu.NewlyDetected > undetV {
		t.Fatalf("NewlyDetected %d exceeds voltage-undetected faults %d", tu.NewlyDetected, undetV)
	}
}

func TestBridgeTopUpNoTargets(t *testing.T) {
	// With the full test set on a tiny circuit, few or no signal bridges
	// remain; the top-up must handle the empty case gracefully.
	cfg := DefaultConfig()
	cfg.RandomVectors = 64
	p, err := Run(netlist.C17(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tu, err := RunBridgeTopUp(context.Background(), p, 0) // zero budget: no targets at all
	if err != nil {
		t.Fatal(err)
	}
	if tu.Targeted != 0 || tu.ExtraVectors != 0 {
		t.Fatalf("zero budget must do nothing: %+v", tu)
	}
	if tu.ThetaAfter != tu.ThetaBefore {
		t.Fatal("Θ must be unchanged")
	}
}

// TestBridgeTopUpCancelled: the study stops on a cancelled context and
// returns its error, instead of running every target and the re-score
// campaign to the end.
func TestBridgeTopUpCancelled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RandomVectors = 8
	p, err := Run(netlist.Comparator(5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if tu, err := RunBridgeTopUp(ctx, p, 200); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled top-up returned %+v, %v; want context.Canceled", tu, err)
	}
}
