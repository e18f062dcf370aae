package gatesim

import (
	"context"
	"testing"

	"defectsim/internal/fault"
	"defectsim/internal/netlist"
)

func exhaustivePatterns(nPI int) []Pattern {
	out := make([]Pattern, 1<<uint(nPI))
	for v := range out {
		p := make(Pattern, nPI)
		for i := 0; i < nPI; i++ {
			p[i] = uint8((v >> uint(i)) & 1)
		}
		out[v] = p
	}
	return out
}

func TestC17ExhaustiveCoverage(t *testing.T) {
	// c17 is fully testable: every collapsed stuck-at fault is detected by
	// the exhaustive 32-vector set.
	nl := netlist.C17()
	faults := fault.StuckAtUniverse(nl)
	res, err := SimulateFaultsCtx(context.Background(), nl, faults, exhaustivePatterns(5), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range faults {
		if res.DetectedAt[i] == 0 {
			t.Errorf("fault %v undetected by exhaustive set", f)
		}
	}
	if got := res.Coverage(32); got != 1 {
		t.Fatalf("T(32) = %g, want 1", got)
	}
	if res.Detected() != len(faults) {
		t.Fatal("Detected() mismatch")
	}
}

func TestKnownDetection(t *testing.T) {
	// Inverter chain a → n1 → y: n1 stuck-at-0 forces y = 1; detected by
	// any pattern with a = 1 (good y = 1 when a... NOT(NOT(a)) = a, so
	// n1/sa0 ⇒ y = 1, detected when a = 0? n1 = NOT(a); y = NOT(n1) = a.
	// n1 stuck 0 ⇒ y = 1 always ⇒ detected when a = 0.
	nl := netlist.New("inv2")
	a := nl.AddPI("a")
	n1 := nl.AddGate(netlist.Not, "n1", a)
	y := nl.AddGate(netlist.Not, "y", n1)
	nl.MarkPO(y)

	f := []fault.StuckAt{{Net: n1, Branch: -1, Value: 0}}
	res, err := SimulateFaultsCtx(context.Background(), nl, f, []Pattern{{1}, {0}}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectedAt[0] != 2 {
		t.Fatalf("n1/sa0 detected at %d, want vector 2 (a=0)", res.DetectedAt[0])
	}
	// PI stem fault.
	f2 := []fault.StuckAt{{Net: a, Branch: -1, Value: 1}}
	res2, _ := SimulateFaultsCtx(context.Background(), nl, f2, []Pattern{{1}, {0}}, 0, nil)
	if res2.DetectedAt[0] != 2 {
		t.Fatalf("a/sa1 detected at %d, want 2", res2.DetectedAt[0])
	}
}

func TestBranchFaultIsLocal(t *testing.T) {
	// Net s fans out to two AND gates; a branch stuck-at-1 into gate g1
	// must affect only g1's output.
	nl := netlist.New("fan")
	s := nl.AddPI("s")
	a := nl.AddPI("a")
	b := nl.AddPI("b")
	y1 := nl.AddGate(netlist.And, "y1", s, a)
	y2 := nl.AddGate(netlist.And, "y2", s, b)
	nl.MarkPO(y1)
	nl.MarkPO(y2)

	f := []fault.StuckAt{{Net: s, Branch: 0, Value: 1}} // branch into gate 0 (y1)
	// Pattern s=0,a=1,b=1: good y1=0,y2=0; faulty y1=1,y2=0.
	res, err := SimulateFaultsCtx(context.Background(), nl, f, []Pattern{{0, 1, 1}}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectedAt[0] != 1 {
		t.Fatal("branch fault must be detected via y1")
	}
	// Same but observe only y2: branch fault into y1 is invisible.
	nl2 := netlist.New("fan2")
	s2 := nl2.AddPI("s")
	a2 := nl2.AddPI("a")
	b2 := nl2.AddPI("b")
	nl2.AddGate(netlist.And, "y1", s2, a2)
	z := nl2.AddGate(netlist.And, "y2", s2, b2)
	nl2.MarkPO(z)
	// y1 dangles; validation doesn't mind reads, only drivers — it drives
	// its own net. Branch fault into gate 0 cannot reach the PO.
	res2, err := SimulateFaultsCtx(context.Background(), nl2, []fault.StuckAt{{Net: s2, Branch: 0, Value: 1}},
		[]Pattern{{0, 1, 1}, {1, 1, 1}, {0, 0, 0}}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.DetectedAt[0] != 0 {
		t.Fatal("branch fault into unobserved gate must stay undetected")
	}
}

func TestRedundantFaultUndetected(t *testing.T) {
	// y = OR(a, NOT(a)) is constant 1: the stem fault y/sa1 is redundant.
	nl := netlist.New("taut")
	a := nl.AddPI("a")
	na := nl.AddGate(netlist.Not, "na", a)
	y := nl.AddGate(netlist.Or, "y", a, na)
	nl.MarkPO(y)
	res, err := SimulateFaultsCtx(context.Background(), nl, []fault.StuckAt{{Net: y, Branch: -1, Value: 1}}, []Pattern{{0}, {1}}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectedAt[0] != 0 {
		t.Fatal("redundant fault must stay undetected")
	}
}

func TestCoverageMonotone(t *testing.T) {
	nl := netlist.C432Class(1994)
	faults := fault.StuckAtUniverse(nl)
	pats := RandomPatterns(nl, 256, 1)
	res, err := SimulateFaultsCtx(context.Background(), nl, faults, pats, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for k := 0; k <= 256; k += 16 {
		c := res.Coverage(k)
		if c < prev {
			t.Fatalf("coverage not monotone at k=%d", k)
		}
		prev = c
	}
	if res.Coverage(256) < 0.75 {
		t.Fatalf("256 random vectors should reach ≥75%% on c432-class, got %.3f",
			res.Coverage(256))
	}
	if res.Coverage(0) != 0 {
		t.Fatal("T(0) must be 0")
	}
}

func TestSimulateAcrossBlockBoundaries(t *testing.T) {
	// Detection indices must be exact across the 64-pattern block boundary.
	nl := netlist.New("inv")
	a := nl.AddPI("a")
	y := nl.AddGate(netlist.Not, "y", a)
	nl.MarkPO(y)
	// a/sa1 detected only when a=0; make the first 70 patterns a=1, then
	// one a=0.
	pats := make([]Pattern, 71)
	for i := range pats {
		pats[i] = Pattern{1}
	}
	pats[70] = Pattern{0}
	res, err := SimulateFaultsCtx(context.Background(), nl, []fault.StuckAt{{Net: a, Branch: -1, Value: 1}}, pats, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectedAt[0] != 71 {
		t.Fatalf("detected at %d, want 71", res.DetectedAt[0])
	}
}

func TestSimulateRejectsBadPattern(t *testing.T) {
	nl := netlist.C17()
	if _, err := SimulateFaultsCtx(context.Background(), nl, nil, []Pattern{{0, 1}}, 0, nil); err == nil {
		t.Fatal("short pattern must error")
	}
}

func TestRandomPatternsDeterministic(t *testing.T) {
	nl := netlist.C17()
	a := RandomPatterns(nl, 10, 42)
	b := RandomPatterns(nl, 10, 42)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("RandomPatterns must be deterministic")
			}
		}
	}
	c := RandomPatterns(nl, 10, 43)
	same := true
	for i := range a {
		for j := range a[i] {
			if a[i][j] != c[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds must differ")
	}
	d := RandomPatterns(nl, 5, 0)
	if len(d) != 5 {
		t.Fatal("zero seed must still work")
	}
}
