package atpg

import (
	"context"
	"testing"

	"defectsim/internal/fault"
	"defectsim/internal/gatesim"
	"defectsim/internal/netlist"
)

func TestEval3Matches2Valued(t *testing.T) {
	types := []netlist.GateType{netlist.And, netlist.Nand, netlist.Or,
		netlist.Nor, netlist.Xor, netlist.Xnor}
	for _, gt := range types {
		for a := 0; a < 2; a++ {
			for b := 0; b < 2; b++ {
				in3 := []V3{[2]V3{L0, L1}[a], [2]V3{L0, L1}[b]}
				want := gt.Eval([]uint64{uint64(a), uint64(b)}) & 1
				got := eval3(gt, in3)
				if (got == L1) != (want == 1) || got == X3 {
					t.Errorf("%v(%d,%d) = %v, want %d", gt, a, b, got, want)
				}
			}
		}
	}
	if eval3(netlist.Not, []V3{X3}) != X3 {
		t.Fatal("NOT(X) must be X")
	}
	// Controlling values dominate X.
	if eval3(netlist.And, []V3{L0, X3}) != L0 {
		t.Fatal("AND(0,X) must be 0")
	}
	if eval3(netlist.Nor, []V3{L1, X3}) != L0 {
		t.Fatal("NOR(1,X) must be 0")
	}
	if eval3(netlist.Xor, []V3{L1, X3}) != X3 {
		t.Fatal("XOR(1,X) must be X")
	}
	if eval3(netlist.Buf, []V3{L1}) != L1 {
		t.Fatal("BUF(1)")
	}
}

func TestGenerateDetectsAllC17Faults(t *testing.T) {
	nl := netlist.C17()
	gen, err := NewGenerator(nl)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.StuckAtUniverse(nl)
	for _, f := range faults {
		pat, status := gen.GenerateCtx(context.Background(), f, 1000)
		if status != StatusDetected {
			t.Fatalf("fault %v: status %v", f, status)
		}
		// Verify the pattern with the reference fault simulator.
		res, err := gatesim.SimulateFaultsCtx(context.Background(), nl, []fault.StuckAt{f}, []gatesim.Pattern{pat}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.DetectedAt[0] != 1 {
			t.Fatalf("fault %v: generated pattern does not detect it", f)
		}
	}
}

func TestGenerateFindsUntestable(t *testing.T) {
	// y = OR(a, NOT(a)) ≡ 1: y/sa1 is redundant.
	nl := netlist.New("taut")
	a := nl.AddPI("a")
	na := nl.AddGate(netlist.Not, "na", a)
	y := nl.AddGate(netlist.Or, "y", a, na)
	nl.MarkPO(y)
	gen, err := NewGenerator(nl)
	if err != nil {
		t.Fatal(err)
	}
	if _, status := gen.GenerateCtx(context.Background(), fault.StuckAt{Net: y, Branch: -1, Value: 1}, 1000); status != StatusUntestable {
		t.Fatalf("redundant fault classified %v", status)
	}
	// And the testable polarity still works.
	if _, status := gen.GenerateCtx(context.Background(), fault.StuckAt{Net: y, Branch: -1, Value: 0}, 1000); status != StatusDetected {
		t.Fatalf("y/sa0 must be testable, got %v", status)
	}
}

func TestGenerateXorCircuit(t *testing.T) {
	nl := netlist.ParityTree(6)
	gen, err := NewGenerator(nl)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fault.StuckAtUniverse(nl) {
		pat, status := gen.GenerateCtx(context.Background(), f, 5000)
		if status != StatusDetected {
			t.Fatalf("parity fault %v: %v", f, status)
		}
		res, _ := gatesim.SimulateFaultsCtx(context.Background(), nl, []fault.StuckAt{f}, []gatesim.Pattern{pat}, 0, nil)
		if res.DetectedAt[0] != 1 {
			t.Fatalf("parity fault %v: bad pattern", f)
		}
	}
}

func TestBuildTestSetC432Class(t *testing.T) {
	nl := netlist.C432Class(1994)
	faults := fault.StuckAtUniverse(nl)
	ts, err := BuildTestSetWorkersCtx(context.Background(), nl, faults, 64, 1, 2000, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ts.RandomCount != 64 {
		t.Fatal("random count")
	}
	if len(ts.Patterns) <= 64 {
		t.Fatal("deterministic top-up expected beyond the random prefix")
	}
	// Coverage over testable faults should be essentially complete; allow
	// a small aborted remainder.
	cov := ts.Coverage(true)
	if cov < 0.97 {
		t.Fatalf("testable coverage %.4f < 0.97", cov)
	}
	// Cross-check DetectedAt against an independent full simulation.
	res, err := gatesim.SimulateFaultsCtx(context.Background(), nl, faults, ts.Patterns, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range faults {
		if (ts.DetectedAt[i] > 0) != (res.DetectedAt[i] > 0) {
			t.Fatalf("fault %v: BuildTestSetWorkersCtx says %d, reference says %d",
				faults[i], ts.DetectedAt[i], res.DetectedAt[i])
		}
	}
	// >80% coverage from random vectors alone (paper: "more than 80%
	// fault coverage is in general achieved with random vectors").
	if got := res.Coverage(64); got < 0.8 {
		t.Fatalf("random-prefix coverage %.3f < 0.8", got)
	}
}

func TestStatusString(t *testing.T) {
	if StatusDetected.String() != "detected" || StatusUntestable.String() != "untestable" ||
		StatusAborted.String() != "aborted" {
		t.Fatal("status strings")
	}
	if L0.String() != "0" || L1.String() != "1" || X3.String() != "X" {
		t.Fatal("V3 strings")
	}
}

func TestSCOAPSanity(t *testing.T) {
	nl := netlist.C17()
	gen, err := NewGenerator(nl)
	if err != nil {
		t.Fatal(err)
	}
	for _, pi := range nl.PIs {
		if gen.cc0[pi] != 1 || gen.cc1[pi] != 1 {
			t.Fatal("PI controllability must be 1")
		}
	}
	for _, g := range nl.Gates {
		if gen.cc0[g.Out] <= 1 || gen.cc1[g.Out] <= 1 {
			t.Fatal("gate output controllability must exceed PI cost")
		}
	}
}
