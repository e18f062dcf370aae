package atpg

import (
	"context"
	"strings"
	"testing"

	"defectsim/internal/fault"
	"defectsim/internal/gatesim"
	"defectsim/internal/netlist"
)

func TestTestabilityC17(t *testing.T) {
	nl := netlist.C17()
	ts, err := ComputeTestability(nl)
	if err != nil {
		t.Fatal(err)
	}
	// POs observe themselves for free.
	for _, po := range nl.POs {
		if ts.CO[po] != 0 {
			t.Fatalf("PO observability %d", ts.CO[po])
		}
	}
	// Every net of c17 is both controllable and observable.
	for n := 0; n < nl.NumNets(); n++ {
		if ts.CO[n] >= 1<<28 {
			t.Fatalf("net %s unobservable", nl.NetNames[n])
		}
		if ts.CC0[n] < 1 || ts.CC1[n] < 1 {
			t.Fatalf("net %s controllability too small", nl.NetNames[n])
		}
	}
	// Observability increases with logic distance from the POs: the PIs
	// are strictly harder to observe than the POs.
	for _, pi := range nl.PIs {
		if ts.CO[pi] <= 0 {
			t.Fatalf("PI %s observability %d", nl.NetNames[pi], ts.CO[pi])
		}
	}
	if s := ts.Render(nl, 3); !strings.Contains(s, "CC0") {
		t.Fatal("render")
	}
}

func TestTestabilityDeepChainHarderToObserve(t *testing.T) {
	nl := netlist.New("chain")
	a := nl.AddPI("a")
	n := a
	for i := 0; i < 6; i++ {
		n = nl.AddGate(netlist.Not, "", n)
	}
	nl.MarkPO(n)
	ts, err := ComputeTestability(nl)
	if err != nil {
		t.Fatal(err)
	}
	if ts.CO[a] != 6 {
		t.Fatalf("PI through 6 inverters: CO = %d, want 6", ts.CO[a])
	}
	hard := ts.HardestNets(1)
	if len(hard) != 1 || hard[0] != a {
		t.Fatalf("hardest net should be the PI, got %v", hard)
	}
}

func TestTestabilityAndGateObservability(t *testing.T) {
	// y = AND(a,b): observing a needs b=1, so CO(a) = CO(y) + CC1(b) + 1
	// = 0 + 1 + 1 = 2.
	nl := netlist.New("and")
	a := nl.AddPI("a")
	nl.AddPI("b")
	y := nl.AddGate(netlist.And, "y", a, 1)
	nl.MarkPO(y)
	ts, err := ComputeTestability(nl)
	if err != nil {
		t.Fatal(err)
	}
	if ts.CO[a] != 2 {
		t.Fatalf("CO(a) = %d, want 2", ts.CO[a])
	}
}

func TestCompactPreservesCoverage(t *testing.T) {
	nl := netlist.C432Class(21)
	faults := fault.StuckAtUniverse(nl)
	pats := gatesim.RandomPatterns(nl, 256, 8)
	before, err := gatesim.SimulateFaultsCtx(context.Background(), nl, faults, pats, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	compacted, err := Compact(nl, faults, pats)
	if err != nil {
		t.Fatal(err)
	}
	if len(compacted) >= len(pats) {
		t.Fatalf("compaction removed nothing: %d of %d", len(compacted), len(pats))
	}
	after, err := gatesim.SimulateFaultsCtx(context.Background(), nl, faults, compacted, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range faults {
		if (before.DetectedAt[i] > 0) != (after.DetectedAt[i] > 0) {
			t.Fatalf("fault %v coverage changed by compaction", faults[i])
		}
	}
	t.Logf("compaction: %d → %d vectors", len(pats), len(compacted))
}

func TestCompactKeepsEssentialVectors(t *testing.T) {
	// Inverter: y = NOT(a). Faults a/sa0 (needs a=1) and a/sa1 (needs a=0).
	// Patterns: {1},{1},{0}: reverse-order compaction keeps {0} and one {1}.
	nl := netlist.New("inv")
	a := nl.AddPI("a")
	y := nl.AddGate(netlist.Not, "y", a)
	nl.MarkPO(y)
	faults := []fault.StuckAt{{Net: a, Branch: -1, Value: 0}, {Net: a, Branch: -1, Value: 1}}
	pats := []gatesim.Pattern{{1}, {1}, {0}}
	out, err := Compact(nl, faults, pats)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("want 2 kept vectors, got %d", len(out))
	}
	// Reverse order keeps the LAST {1} (index 1) and {0}.
	if out[0][0] != 1 || out[1][0] != 0 {
		t.Fatalf("kept %v", out)
	}
}

func TestCompactEmptyInputs(t *testing.T) {
	nl := netlist.C17()
	out, err := Compact(nl, nil, gatesim.RandomPatterns(nl, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatal("no faults → nothing essential")
	}
}
