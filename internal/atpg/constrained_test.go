package atpg

import (
	"context"
	"testing"

	"defectsim/internal/fault"
	"defectsim/internal/gatesim"
	"defectsim/internal/netlist"
)

func TestGenerateConstrainedRespectsConstraint(t *testing.T) {
	// Two independent buffers: y1 = BUF(a), y2 = BUF(b). Target a/sa0 with
	// the constraint b = 1: the generated pattern must set both a = 1
	// (activation) and b = 1 (constraint).
	nl := netlist.New("two")
	a := nl.AddPI("a")
	b := nl.AddPI("b")
	y1 := nl.AddGate(netlist.Buf, "y1", a)
	y2 := nl.AddGate(netlist.Buf, "y2", b)
	nl.MarkPO(y1)
	nl.MarkPO(y2)
	gen, err := NewGenerator(nl)
	if err != nil {
		t.Fatal(err)
	}
	pat, status := gen.GenerateConstrained(context.Background(),
		fault.StuckAt{Net: a, Branch: -1, Value: 0},
		[]Assign{{Net: b, Value: L1}}, 1000)
	if status != StatusDetected {
		t.Fatalf("status %v", status)
	}
	if pat[0] != 1 || pat[1] != 1 {
		t.Fatalf("pattern %v must set a=1 (activate) and b=1 (constraint)", pat)
	}
}

func TestGenerateConstrainedInfeasible(t *testing.T) {
	// Constraint contradicts activation: target a/sa0 (needs a=1) with the
	// constraint a = 0.
	nl := netlist.New("one")
	a := nl.AddPI("a")
	y := nl.AddGate(netlist.Buf, "y", a)
	nl.MarkPO(y)
	gen, err := NewGenerator(nl)
	if err != nil {
		t.Fatal(err)
	}
	if _, status := gen.GenerateConstrained(context.Background(),
		fault.StuckAt{Net: a, Branch: -1, Value: 0},
		[]Assign{{Net: a, Value: L0}}, 1000); status != StatusUntestable {
		t.Fatalf("contradictory constraint must be untestable, got %v", status)
	}
}

func TestGenerateConstrainedInternalNets(t *testing.T) {
	// Constraint on an internal net: y = AND(a,b); z = OR(a,c). Target
	// z/sa0 with the constraint y = 1 (forces a=b=1).
	nl := netlist.New("mix")
	a := nl.AddPI("a")
	b := nl.AddPI("b")
	c := nl.AddPI("c")
	y := nl.AddGate(netlist.And, "y", a, b)
	z := nl.AddGate(netlist.Or, "z", a, c)
	nl.MarkPO(y)
	nl.MarkPO(z)
	gen, err := NewGenerator(nl)
	if err != nil {
		t.Fatal(err)
	}
	pat, status := gen.GenerateConstrained(context.Background(),
		fault.StuckAt{Net: z, Branch: -1, Value: 0},
		[]Assign{{Net: y, Value: L1}}, 1000)
	if status != StatusDetected {
		t.Fatalf("status %v", status)
	}
	if pat[0] != 1 || pat[1] != 1 {
		t.Fatalf("pattern %v must satisfy y = AND(a,b) = 1", pat)
	}
	// Verify with the reference simulator, both the fault and constraint.
	res, err := gatesim.SimulateFaultsCtx(context.Background(), nl, []fault.StuckAt{{Net: z, Branch: -1, Value: 0}},
		[]gatesim.Pattern{pat}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectedAt[0] != 1 {
		t.Fatal("generated pattern must detect the target")
	}
}

func TestGenerateConstrainedMatchesUnconstrained(t *testing.T) {
	// With no constraints the constrained generator must solve everything
	// the plain generator solves on c17.
	nl := netlist.C17()
	gen, err := NewGenerator(nl)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fault.StuckAtUniverse(nl) {
		_, s1 := gen.GenerateCtx(context.Background(), f, 1000)
		_, s2 := gen.GenerateConstrained(context.Background(), f, nil, 1000)
		if s1 != s2 {
			t.Fatalf("fault %v: plain %v vs constrained %v", f, s1, s2)
		}
	}
}

func TestBridgeCandidates(t *testing.T) {
	cands := BridgeCandidates(3, 5)
	if len(cands) != 4 {
		t.Fatalf("want 4 candidate formulations, got %d", len(cands))
	}
	seen := map[[3]int]bool{}
	for _, c := range cands {
		if c.Fault.Net == c.Constraint.Net {
			t.Fatal("victim and aggressor must differ")
		}
		key := [3]int{c.Fault.Net, int(c.Fault.Value), c.Constraint.Net}
		if seen[key] {
			t.Fatal("duplicate candidate")
		}
		seen[key] = true
		// Aggressor is constrained to the victim's stuck value (the wired
		// bridge drives the victim toward the aggressor's level).
		wantVal := L0
		if c.Fault.Value == 1 {
			wantVal = L1
		}
		if c.Constraint.Value != wantVal {
			t.Fatalf("constraint value %v does not match stuck value %d",
				c.Constraint.Value, c.Fault.Value)
		}
	}
}

func TestGenerateBridgeOnC17(t *testing.T) {
	nl := netlist.C17()
	gen, err := NewGenerator(nl)
	if err != nil {
		t.Fatal(err)
	}
	g10, _ := nl.NetByName("G10")
	g19, _ := nl.NetByName("G19")
	pats := gen.GenerateBridge(context.Background(), g10, g19, 1000)
	if len(pats) == 0 {
		t.Fatal("expected at least one candidate pattern")
	}
	// Each pattern must set the two nets to opposite values (a wired
	// bridge is only excited then).
	for _, pat := range pats {
		pis := make([]uint64, len(nl.PIs))
		for i, b := range pat {
			pis[i] = uint64(b)
		}
		vals, err := nl.Eval(pis)
		if err != nil {
			t.Fatal(err)
		}
		if vals[g10]&1 == vals[g19]&1 {
			t.Fatalf("pattern %v leaves the bridged nets equal", pat)
		}
	}
}
