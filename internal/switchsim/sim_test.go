package switchsim

import (
	"math/rand"
	"slices"
	"testing"

	"defectsim/internal/fault"
	"defectsim/internal/layout"
	"defectsim/internal/netlist"
	"defectsim/internal/transistor"
)

func circuitFor(t testing.TB, nl *netlist.Netlist) (*layout.Layout, *transistor.Circuit) {
	t.Helper()
	L, err := layout.Build(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := transistor.FromLayout(L)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return L, c
}

func randomVectors(nPI, n int, seed int64) []Vector {
	rng := rand.New(rand.NewSource(seed))
	vecs := make([]Vector, n)
	for i := range vecs {
		v := make(Vector, nPI)
		for j := range v {
			v[j] = Val(rng.Intn(2))
		}
		vecs[i] = v
	}
	return vecs
}

// TestGoodSimMatchesGateLevel is the central cross-validation: the
// switch-level good machine must agree with gate-level logic evaluation on
// every benchmark circuit and random vectors.
func TestGoodSimMatchesGateLevel(t *testing.T) {
	circuits := []*netlist.Netlist{
		netlist.C17(),
		netlist.RippleAdder(4),
		netlist.MuxTree(2),
		netlist.ParityTree(5),
		netlist.Comparator(3),
		netlist.Decoder(2),
		netlist.C432Class(1994),
	}
	for _, nl := range circuits {
		_, c := circuitFor(t, nl)
		vecs := randomVectors(len(nl.PIs), 40, 11)
		got := Run(c, vecs)
		for k, vec := range vecs {
			if got[k] == nil {
				t.Fatalf("%s did not settle on vector %d", nl.Name, k)
			}
			pis := make([]uint64, len(nl.PIs))
			for i, b := range vec {
				pis[i] = uint64(b)
			}
			vals, err := nl.Eval(pis)
			if err != nil {
				t.Fatal(err)
			}
			for o, po := range nl.POs {
				want := Val(vals[po] & 1)
				if got[k][o] != want {
					t.Fatalf("%s vector %d PO %d: switch-level %v, gate-level %v",
						nl.Name, k, o, got[k][o], want)
				}
			}
		}
	}
}

func TestValString(t *testing.T) {
	if V0.String() != "0" || V1.String() != "1" || VX.String() != "X" {
		t.Fatal("Val strings")
	}
}

func TestSeries(t *testing.T) {
	if g := series(6, 6); g != 3 {
		t.Fatalf("series(6,6) = %g", g)
	}
	if series(0, 5) != 0 || series(5, 0) != 0 {
		t.Fatal("zero conductance dominates")
	}
	if g := series(RailG, 8); g < 7.9 || g > 8 {
		t.Fatalf("series(rail,8) = %g", g)
	}
}

func TestApplyPanicsOnBadVector(t *testing.T) {
	_, c := circuitFor(t, netlist.C17())
	m := NewMachine(c)
	defer func() {
		if recover() == nil {
			t.Fatal("short vector must panic")
		}
	}()
	m.Apply(Vector{V0})
}

// invCircuit builds a two-inverter chain a -> n1 -> y and returns the
// layout, circuit and useful net ids.
func invChain(t *testing.T) (*layout.Layout, *transistor.Circuit, int, int) {
	nl := netlist.New("inv2")
	a := nl.AddPI("a")
	n1 := nl.AddGate(netlist.Not, "n1", a)
	y := nl.AddGate(netlist.Not, "y", n1)
	nl.MarkPO(y)
	L, c := circuitFor(t, nl)
	return L, c, 2 + n1, 2 + y
}

func TestBridgeToRailActsStuck(t *testing.T) {
	_, c, n1, _ := invChain(t)
	// Bridge the middle net to GND: y = NOT(0) = 1 always; with a = 0 the
	// good circuit has n1 = 1, y = 0 → detected.
	m, v := NewFaultMachine(c, fault.Realistic{
		Kind: fault.KindBridge, NetA: layout.NetGND, NetB: n1,
	})
	if v != VerdictSimulate || m == nil {
		t.Fatalf("verdict %v", v)
	}
	if !m.Apply(Vector{V0}) {
		t.Fatal("did not settle")
	}
	if got := m.Outputs()[0]; got != V1 {
		t.Fatalf("bridged-to-GND middle net: y = %v, want 1", got)
	}
	good := NewMachine(c)
	good.Apply(Vector{V0})
	if good.Outputs()[0] != V0 {
		t.Fatalf("good y = %v, want 0", good.Outputs()[0])
	}
}

func TestBridgeBetweenGateOutputsResolvesByStrength(t *testing.T) {
	// a --INV--> n1 ; c432-style strength battle: bridge n1 with the output
	// of a NAND2 whose pulldown is two 6λ devices in series (g = 3) versus
	// the INV pullup (g ≈ 8): when they fight, the stronger pullup wins.
	nl := netlist.New("fight")
	a := nl.AddPI("a")
	b := nl.AddPI("b")
	cNet := nl.AddPI("c")
	inv := nl.AddGate(netlist.Not, "inv", a)
	nand := nl.AddGate(netlist.Nand, "nand", b, cNet)
	y1 := nl.AddGate(netlist.Buf, "y1", inv)
	y2 := nl.AddGate(netlist.Buf, "y2", nand)
	nl.MarkPO(y1)
	nl.MarkPO(y2)
	_, c := circuitFor(t, nl)

	m, v := NewFaultMachine(c, fault.Realistic{
		Kind: fault.KindBridge, NetA: 2 + inv, NetB: 2 + nand,
	})
	if v != VerdictSimulate {
		t.Fatalf("verdict %v", v)
	}
	// a=0 → inv pulls 1 (PMOS g≈8); b=c=1 → nand pulls 0 (2×NMOS series
	// g=3). Pullup wins: both nets read 1.
	if !m.Apply(Vector{V0, V1, V1}) {
		t.Fatal("did not settle")
	}
	if got := m.Val(2 + nand); got != V1 {
		t.Fatalf("bridged nand output = %v, want 1 (overpowered)", got)
	}
	if got := m.Val(2 + inv); got != V1 {
		t.Fatalf("bridged inv output = %v, want 1", got)
	}
	// Non-activating input: both outputs 1 in the good circuit; faulty
	// machine must match the good one exactly.
	good := NewMachine(c)
	good.Apply(Vector{V0, V1, V0})
	m2, _ := NewFaultMachine(c, fault.Realistic{
		Kind: fault.KindBridge, NetA: 2 + inv, NetB: 2 + nand,
	})
	m2.Apply(Vector{V0, V1, V0})
	if !equalVals(m2.val, good.val) {
		t.Fatal("unactivated bridge must leave the circuit unchanged")
	}
}

func TestOpenInputStuckOpenNeedsTwoPatterns(t *testing.T) {
	// Classic stuck-open behaviour on an inverter chain: sever the second
	// inverter's input branch → both its transistors are off → y floats and
	// retains its previous value. A single vector cannot detect it; the
	// falling sequence 1→0 can.
	_, c, _, yNet := invChain(t)
	mk := func() *Machine {
		m, v := NewFaultMachine(c, fault.Realistic{
			Kind: fault.KindOpenInput, NetA: -1, Inst: 1, Node: 2, // inverter #1's input A
		})
		if v != VerdictSimulate {
			t.Fatalf("verdict %v", v)
		}
		return m
	}
	// Fresh machine: y floats at X on any first vector → undetected.
	m := mk()
	m.Apply(Vector{V0})
	if got := m.Val(yNet); got != VX {
		t.Fatalf("floating output on first vector = %v, want X", got)
	}
	// After the fault-free-looking history the retained value shows up.
	good := NewMachine(c)
	m2 := mk()
	for _, v := range []Val{V0, V1} {
		good.Apply(Vector{v})
		m2.Apply(Vector{v})
	}
	// good: a=1 → n1=0 → y=1... wait: a=1 ⇒ n1=0 ⇒ y=1? NOT(NOT(1)) = 1.
	if good.Outputs()[0] != V1 {
		t.Fatalf("good y = %v, want 1", good.Outputs()[0])
	}
	// Faulty: y stayed X from the start (never driven) — X forever under
	// this full-gate-open model.
	if got := m2.Val(yNet); got != VX {
		t.Fatalf("gate-open output = %v, want X (both networks off)", got)
	}
}

func TestOpenDriverActsStuckLow(t *testing.T) {
	// A severed trunk leaves the wire floating; leakage pins it low, so the
	// whole net behaves stuck-at-0 for its receivers.
	_, c, n1, yNet := invChain(t)
	m, v := NewFaultMachine(c, fault.Realistic{Kind: fault.KindOpenDriver, NetA: n1})
	if v != VerdictSimulate {
		t.Fatalf("verdict %v", v)
	}
	m.Apply(Vector{V0}) // good: n1 = 1, y = 0
	if got := m.Val(n1); got != V0 {
		t.Fatalf("severed net = %v, want stuck 0", got)
	}
	if got := m.Val(yNet); got != V1 {
		t.Fatalf("receiver of severed net = %v, want 1", got)
	}
}

func TestOpenDriverOnPI(t *testing.T) {
	_, c, n1, _ := invChain(t)
	piNet := c.PIs[0]
	m, v := NewFaultMachine(c, fault.Realistic{Kind: fault.KindOpenDriver, NetA: piNet})
	if v != VerdictSimulate {
		t.Fatalf("verdict %v", v)
	}
	m.Apply(Vector{V1})
	if got := m.Val(piNet); got != V0 {
		t.Fatalf("dead PI = %v, want stuck 0", got)
	}
	if got := m.Val(n1); got != V1 {
		t.Fatalf("first inverter output = %v, want 1", got)
	}
}

func TestTrivialVerdicts(t *testing.T) {
	_, c, _, _ := invChain(t)
	if _, v := NewFaultMachine(c, fault.Realistic{
		Kind: fault.KindBridge, NetA: layout.NetGND, NetB: layout.NetVDD,
	}); v != VerdictDetected {
		t.Fatalf("power short verdict = %v, want detected", v)
	}
	if _, v := NewFaultMachine(c, fault.Realistic{
		Kind: fault.KindBridge, NetA: layout.NetGND, NetB: c.PIs[0],
	}); v != VerdictDetected {
		t.Fatalf("PI-rail bridge verdict = %v, want detected (DC input-leakage screen)", v)
	}
	if _, v := NewFaultMachine(c, fault.Realistic{
		Kind: fault.KindOpenInput, NetA: -1, Inst: 99, Node: 99,
	}); v != VerdictUndetectable {
		t.Fatalf("no-device open verdict = %v", v)
	}
}

// TestSettleFastForwardMatchesStepping pins drainTo's cycle search
// against plain stepping: along every simulable fault's campaign
// trajectory on the oracle circuits, at the hard and a weak bridge
// conductance, every settle that runs out of budget when stepped one
// solve at a time is rerun by drainTo from the same start state, with a
// settle's budget and cycle-search start, and must end with the same
// values and the same pending queue. Most such settles are periodic, so
// most reruns skip whole periods.
func TestSettleFastForwardMatchesStepping(t *testing.T) {
	total := int64(0)
	for _, s := range oracleSetups(t) {
		for _, g := range []float64{BridgeG, 1.5} {
			stuck, forwarded := 0, int64(0)
			for _, plan := range s.plans {
				ref, m := NewMachine(s.c), NewMachine(s.c)
				ref.install(plan, g, nil)
				m.install(plan, g, nil)
				m.ensureScratch()
				h := &walkHooks{
					settle: func() {
						copy(m.val, ref.val)
						m.queue, m.qhead = append(m.queue[:0], ref.queue[ref.qhead:]...), 0
						clear(m.inQueue)
						for _, id := range m.queue {
							m.inQueue[id] = true
						}
					},
					stuck: func() {
						budget := m.settleBudget()
						if m.drainTo(budget, budget-2*len(s.c.CCCs)) {
							t.Fatalf("%s g=%g: drainTo settled where stepping ran out of budget", s.name, g)
						}
						if !slices.Equal(m.val, ref.val) || !slices.Equal(m.queue[m.qhead:], ref.queue[ref.qhead:]) {
							t.Fatalf("%s g=%g: drainTo ended in another state than stepping (values equal: %v, queue %v, stepped %v)",
								s.name, g, slices.Equal(m.val, ref.val), m.queue[m.qhead:], ref.queue[ref.qhead:])
						}
					},
				}
				walkFault(ref, s.good, s.vecs, h)
				stuck += h.stuckSettles
				forwarded += m.fastForwards
			}
			t.Logf("%s g=%g: %d settles ran out of budget, %d of them fast-forwarded", s.name, g, stuck, forwarded)
			total += forwarded
		}
	}
	if total == 0 {
		t.Fatal("no settle was fast-forwarded")
	}
}
