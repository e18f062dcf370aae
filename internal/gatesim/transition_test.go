package gatesim

import (
	"context"
	"testing"

	"defectsim/internal/fault"
	"defectsim/internal/netlist"
)

func TestTransitionNeedsLaunchAndCapture(t *testing.T) {
	// Inverter chain a → n1 → y. The slow-to-fall transition on n1
	// (associated with n1/sa1) needs n1 = 1 on the launch vector (a = 0)
	// and sa1 detection on the capture vector (a = 1, good n1 = 0).
	nl := netlist.New("inv2")
	a := nl.AddPI("a")
	n1 := nl.AddGate(netlist.Not, "n1", a)
	y := nl.AddGate(netlist.Not, "y", n1)
	nl.MarkPO(y)
	f := []fault.StuckAt{{Net: n1, Branch: -1, Value: 1}}

	// Capture-only sequence (no launch first): a=1,1 never launches.
	res, err := SimulateTransitions(nl, f, []Pattern{{1}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectedAt[0] != 0 {
		t.Fatal("no launch, no detection")
	}
	// Launch then capture: a=0 (n1=1), then a=1 (tests n1/sa1).
	res, err = SimulateTransitions(nl, f, []Pattern{{0}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectedAt[0] != 2 {
		t.Fatalf("detected at %d, want capture vector 2", res.DetectedAt[0])
	}
	// The pure stuck-at simulation would already detect on vector 1.
	sa, _ := SimulateFaultsCtx(context.Background(), nl, f, []Pattern{{1}}, 0, nil)
	if sa.DetectedAt[0] != 1 {
		t.Fatal("sanity: stuck-at detection on first vector")
	}
}

func TestTransitionFirstVectorNeverDetects(t *testing.T) {
	nl := netlist.C17()
	faults := fault.StuckAtUniverse(nl)
	res, err := SimulateTransitions(nl, faults, exhaustivePatterns(5))
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range res.DetectedAt {
		if d == 1 {
			t.Fatalf("fault %v claims detection on vector 1 (no launch exists)", faults[i])
		}
	}
}

func TestTransitionNeverBeatsStuckAt(t *testing.T) {
	// A transition fault's detection requires its stuck-at detection on
	// the same capture vector, so transition coverage ≤ stuck-at coverage
	// at every k, and first detections cannot come earlier.
	nl := netlist.C432Class(5)
	faults := fault.StuckAtUniverse(nl)
	pats := RandomPatterns(nl, 192, 9)
	tr, err := SimulateTransitions(nl, faults, pats)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := SimulateFaultsCtx(context.Background(), nl, faults, pats, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range faults {
		if tr.DetectedAt[i] > 0 && sa.DetectedAt[i] == 0 {
			t.Fatalf("fault %v: transition detected but stuck-at never", faults[i])
		}
		if tr.DetectedAt[i] > 0 && tr.DetectedAt[i] < sa.DetectedAt[i] {
			t.Fatalf("fault %v: transition at %d before stuck-at at %d",
				faults[i], tr.DetectedAt[i], sa.DetectedAt[i])
		}
	}
	for k := 16; k <= 192; k *= 2 {
		if tr.Coverage(k) > sa.Coverage(k) {
			t.Fatalf("transition coverage %.3f exceeds stuck-at %.3f at k=%d",
				tr.Coverage(k), sa.Coverage(k), k)
		}
	}
	// Transition testing is strictly harder: with this budget some faults
	// must remain transition-undetected while stuck-at-detected.
	harder := 0
	for i := range faults {
		if sa.DetectedAt[i] > 0 && tr.DetectedAt[i] == 0 {
			harder++
		}
	}
	if harder == 0 {
		t.Fatal("expected some launch-limited faults")
	}
}

func TestTransitionAcrossBlockBoundary(t *testing.T) {
	// Launch on pattern 64, capture on pattern 65 (crossing the 64-bit
	// block boundary exercises the prevBit carry).
	nl := netlist.New("inv")
	a := nl.AddPI("a")
	y := nl.AddGate(netlist.Not, "y", a)
	nl.MarkPO(y)
	// Slow-to-fall on a (a/sa1): launch needs a=1, capture needs a=0.
	pats := make([]Pattern, 65)
	for i := range pats {
		pats[i] = Pattern{0} // neither launch (a=1) nor capture possible
	}
	pats[63] = Pattern{1} // launch on the last bit of block 0
	pats[64] = Pattern{0} // capture on the first bit of block 1
	res, err := SimulateTransitions(nl, []fault.StuckAt{{Net: a, Branch: -1, Value: 1}}, pats)
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectedAt[0] != 65 {
		t.Fatalf("detected at %d, want 65", res.DetectedAt[0])
	}
}

func TestTransitionRejectsBadPattern(t *testing.T) {
	nl := netlist.C17()
	if _, err := SimulateTransitions(nl, nil, []Pattern{{0}}); err == nil {
		t.Fatal("short pattern must error")
	}
}
