package switchsim

import (
	"context"
	"runtime"
	"slices"
	"strings"
	"testing"

	"defectsim/internal/cell"
	"defectsim/internal/defect"
	"defectsim/internal/extract"
	"defectsim/internal/fault"
	"defectsim/internal/layout"
	"defectsim/internal/netlist"
	"defectsim/internal/transistor"
)

// buildCampaign extracts the fault list and transistor circuit for nl.
func buildCampaign(t testing.TB, nl *netlist.Netlist) (*fault.List, *transistor.Circuit) {
	t.Helper()
	L, err := layout.Build(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	return extract.Faults(L, defect.Typical()), transistor.FromLayout(L)
}

// sameResult fails the test unless a and b are bitwise identical.
func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.VectorsApplied != b.VectorsApplied || a.Oscillations != b.Oscillations || a.GoodUnsettledAt != b.GoodUnsettledAt {
		t.Fatalf("%s: campaign summary differs: applied %d/%d osc %d/%d unsettled %d/%d",
			label, a.VectorsApplied, b.VectorsApplied, a.Oscillations, b.Oscillations, a.GoodUnsettledAt, b.GoodUnsettledAt)
	}
	for i := range a.DetectedAt {
		if a.DetectedAt[i] != b.DetectedAt[i] || a.IDDQAt[i] != b.IDDQAt[i] || a.Undecided[i] != b.Undecided[i] {
			t.Fatalf("%s: fault %d differs: det %d/%d iddq %d/%d und %v/%v", label, i,
				a.DetectedAt[i], b.DetectedAt[i], a.IDDQAt[i], b.IDDQAt[i], a.Undecided[i], b.Undecided[i])
		}
	}
}

// goodRun is the fault-free machine's trajectory over a vector sequence,
// stepped on a plain NewMachine, whose every solve relaxes: the
// independent reference the walk, memo and alloc tests check the
// campaign's machines against. states[k] is the state before vector k and
// states[k+1] the one after; unsettledAt is the 1-based vector the machine
// failed to settle on (0: none), where the states stop.
type goodRun struct {
	states      [][]Val
	unsettledAt int
}

// runGood steps a plain fault-free machine of c over vecs.
func runGood(c *transistor.Circuit, vecs []Vector) *goodRun {
	m := NewMachine(c)
	g := &goodRun{states: [][]Val{slices.Clone(m.val)}}
	for k, vec := range vecs {
		if !m.Apply(vec) {
			g.unsettledAt = k + 1
			break
		}
		g.states = append(g.states, slices.Clone(m.val))
	}
	return g
}

// campaign runs the full extraction + fault simulation pipeline for nl.
func campaign(t testing.TB, nl *netlist.Netlist, nVec int, seed int64) (*fault.List, *Result, *transistor.Circuit) {
	t.Helper()
	L, err := layout.Build(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	list := extract.Faults(L, defect.Typical())
	c := transistor.FromLayout(L)
	vecs := randomVectors(len(nl.PIs), nVec, seed)
	res, err := SimulateFaults(context.Background(), c, list, vecs, 0, BridgeG, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return list, res, c
}

func TestFaultCampaignC17(t *testing.T) {
	list, res, _ := campaign(t, netlist.C17(), 64, 5)
	if len(res.DetectedAt) != len(list.Faults) {
		t.Fatal("result size mismatch")
	}
	var detBridge, totBridge, totOpen int
	var latBridge, nLatBridge, latInput, nLatInput float64
	for i, f := range list.Faults {
		switch f.Kind {
		case fault.KindBridge:
			totBridge++
			if res.DetectedAt[i] > 0 {
				detBridge++
				latBridge += float64(res.DetectedAt[i])
				nLatBridge++
			}
		case fault.KindOpenInput:
			totOpen++
			if res.DetectedAt[i] > 0 {
				latInput += float64(res.DetectedAt[i])
				nLatInput++
			}
		default:
			totOpen++
		}
	}
	if totBridge == 0 || totOpen == 0 {
		t.Fatal("campaign needs both fault classes")
	}
	// Bridges must be well covered by 64 random vectors on c17.
	if frac := float64(detBridge) / float64(totBridge); frac < 0.5 {
		t.Fatalf("bridge detection fraction %.2f too low (%d/%d)", frac, detBridge, totBridge)
	}
	// Gate-input opens need two-pattern sequences: when detected at all,
	// their mean first-detection vector must lag the bridges' — the
	// susceptibility asymmetry behind the paper's R and Θmax.
	if nLatInput == 0 {
		t.Fatal("expected at least one detected input open")
	}
	if latInput/nLatInput <= latBridge/nLatBridge {
		t.Fatalf("input opens (mean detection %.1f) must lag bridges (%.1f)",
			latInput/nLatInput, latBridge/nLatBridge)
	}
}

func TestDetectionMonotoneAndBounded(t *testing.T) {
	list, res, _ := campaign(t, netlist.C17(), 32, 6)
	for i := range list.Faults {
		if res.DetectedAt[i] < 0 || res.DetectedAt[i] > 32 {
			t.Fatalf("DetectedAt out of range: %d", res.DetectedAt[i])
		}
		if res.IDDQAt[i] < 0 || res.IDDQAt[i] > 32 {
			t.Fatalf("IDDQAt out of range: %d", res.IDDQAt[i])
		}
		if list.Faults[i].Kind != fault.KindBridge && res.IDDQAt[i] != 0 {
			t.Fatal("IDDQ detections apply to bridges only")
		}
	}
	det16 := res.DetectedBy(16, false)
	det32 := res.DetectedBy(32, false)
	for i := range det16 {
		if det16[i] && !det32[i] {
			t.Fatal("detection must be monotone in k")
		}
	}
}

func TestIDDQDominatesVoltageForBridges(t *testing.T) {
	// Every voltage-detected bridge requires opposite driven values at the
	// bridge, so IDDQ must detect it no later.
	list, res, _ := campaign(t, netlist.C17(), 64, 7)
	for i, f := range list.Faults {
		if f.Kind != fault.KindBridge || res.DetectedAt[i] == 0 {
			continue
		}
		if res.IDDQAt[i] == 0 || res.IDDQAt[i] > res.DetectedAt[i] {
			t.Fatalf("bridge %v: voltage at %d but IDDQ at %d", f, res.DetectedAt[i], res.IDDQAt[i])
		}
	}
}

func TestCampaignDeterministic(t *testing.T) {
	_, r1, _ := campaign(t, netlist.C17(), 32, 9)
	_, r2, _ := campaign(t, netlist.C17(), 32, 9)
	for i := range r1.DetectedAt {
		if r1.DetectedAt[i] != r2.DetectedAt[i] || r1.IDDQAt[i] != r2.IDDQAt[i] {
			t.Fatalf("nondeterministic campaign at fault %d", i)
		}
	}
}

func TestWeightedCoverageOrdering(t *testing.T) {
	// On a mid-size circuit with bridging-dominant statistics the paper's
	// fig. 4 ordering must emerge: Γ (unweighted) > Θ (weighted) is not
	// guaranteed pointwise, but Θ must stay below Γ when opens (which are
	// individually light but numerous) are the undetected mass... The
	// robust invariant from the paper's setup: Θ > 0 after enough vectors
	// and Θ < 1 (voltage testing cannot cover everything).
	list, res, _ := campaign(t, netlist.RippleAdder(4), 128, 10)
	det := res.DetectedBy(128, false)
	theta := list.WeightedCoverage(det)
	gamma := list.UnweightedCoverage(det)
	if theta <= 0.3 {
		t.Fatalf("Θ = %.3f unreasonably low after 128 vectors", theta)
	}
	if theta >= 1 || gamma >= 1 {
		t.Fatalf("static voltage testing must leave residual faults: Θ=%.3f Γ=%.3f", theta, gamma)
	}
	iddqDet := res.DetectedBy(128, true)
	if list.WeightedCoverage(iddqDet) < theta {
		t.Fatal("adding IDDQ cannot lower coverage")
	}
}

// Nets of enabledRing: the enable input and the three stage outputs (the
// stages' series-stack nodes are nets 6..8).
const ringEn, ringA, ringB, ringC = 2, 3, 4, 5

// enabledRing is a hand-built circuit whose fault-free machine runs out of
// settle budget, which no generated circuit does: three NAND2 stages in a
// ring, a = NAND(en, c), b = NAND(en, a), c = NAND(en, b), each enabled by
// the primary input en. en = 0 holds every stage at 1; en = 1 turns the
// ring into three inverters, which oscillate from any definite state. a
// is the primary output.
func enabledRing() *transistor.Circuit {
	ring := &transistor.Circuit{Name: "ring3", NumNets: 9, PIs: []int{ringEn}, POs: []int{ringA},
		CCCOf: []int{-1, -1, -1, 0, 1, 2, 0, 1, 2}, Readers: make([][]int, 9)}
	ring.Readers[ringEn] = []int{0, 1, 2}
	outs := []int{ringA, ringB, ringC}
	for i, out := range outs {
		in, mid := outs[(i+2)%3], 6+i
		ring.Readers[in] = []int{i}
		ring.CCCs = append(ring.CCCs, []int{out, mid})
		d := len(ring.Devices)
		ring.DevsOf = append(ring.DevsOf, []int{d, d + 1, d + 2, d + 3})
		ring.Devices = append(ring.Devices,
			transistor.Device{Type: cell.PMOS, Gate: ringEn, Source: layout.NetVDD, Drain: out, Conductance: 6, Inst: i, Node: 0},
			transistor.Device{Type: cell.PMOS, Gate: in, Source: layout.NetVDD, Drain: out, Conductance: 6, Inst: i, Node: 1},
			transistor.Device{Type: cell.NMOS, Gate: ringEn, Source: out, Drain: mid, Conductance: 8, Inst: i, Node: 0},
			transistor.Device{Type: cell.NMOS, Gate: in, Source: mid, Drain: layout.NetGND, Conductance: 8, Inst: i, Node: 1},
		)
	}
	return ring
}

// TestGoodUnsettledCutoff pins the GoodUnsettledAt contract on a circuit
// whose fault-free machine fails to settle: the campaign stops at that
// vector with VectorsApplied one short of it, every fault still live
// there becomes undecided, and the result equals the fresh-machine
// reference's for any worker count.
func TestGoodUnsettledCutoff(t *testing.T) {
	c := enabledRing()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	list := &fault.List{Faults: []fault.Realistic{
		{Kind: fault.KindOpenDriver, NetA: ringA},                  // a stuck at 0
		{Kind: fault.KindBridge, NetA: layout.NetGND, NetB: ringA}, // a pulled to 0
		{Kind: fault.KindBridge, NetA: ringA, NetB: ringB},         // a and b agree while en = 0
		{Kind: fault.KindOpenDriver, NetA: ringB},                  // unobservable while en = 0
		{Kind: fault.KindOpenInput, Inst: 2, Node: 1},              // c's ring input floats
		{Kind: fault.KindBridge, NetA: ringEn, NetB: ringC},
	}}
	vecs := []Vector{{V0}, {V0}, {V1}, {V0}, {V1}}
	if g := runGood(c, vecs); g.unsettledAt != 3 {
		t.Fatalf("the plain fault-free machine failed to settle at vector %d, want 3", g.unsettledAt)
	}
	want := freshMachineCampaign(c, list, vecs, BridgeG, 0)
	if want.GoodUnsettledAt != 3 || want.VectorsApplied != 2 {
		t.Fatalf("reference: GoodUnsettledAt=%d VectorsApplied=%d, want 3/2", want.GoodUnsettledAt, want.VectorsApplied)
	}
	undecided, detected := 0, 0
	for i, f := range list.Faults {
		switch {
		case want.Undecided[i]:
			undecided++
		case want.DetectedAt[i] > 0:
			detected++
		default:
			t.Fatalf("fault %v neither detected nor undecided after the cutoff", f)
		}
	}
	if undecided == 0 || detected == 0 {
		t.Fatalf("%d faults undecided and %d detected before the cutoff; want both > 0", undecided, detected)
	}
	t.Logf("%d faults detected before the cutoff, %d undecided", detected, undecided)
	for _, w := range []int{1, 4, runtime.NumCPU()} {
		res, err := SimulateFaults(context.Background(), c, list, vecs, w, BridgeG, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "ring", want, res)
	}
}

// TestAllXVectorsMatchFreshMachines covers the good machine's plain
// settle of an all-X schedule, whose log no diverged fault may walk: a
// sequence opening with two all-X vectors (the reset state stays all X,
// so every CCC is queued) and holding one later, where the state is
// definite, gives the fresh-machine reference's result for any worker
// count, walking every usable log or only the long ones.
func TestAllXVectorsMatchFreshMachines(t *testing.T) {
	nl := netlist.RippleAdder(3)
	list, c := buildCampaign(t, nl)
	allX := make(Vector, len(nl.PIs))
	for i := range allX {
		allX[i] = VX
	}
	vecs := append([]Vector{allX, allX}, randomVectors(len(nl.PIs), 24, 4)...)
	vecs = append(vecs, allX, randomVectors(len(nl.PIs), 1, 5)[0])
	want := freshMachineCampaign(c, list, vecs, BridgeG, 0)
	for _, w := range []int{1, runtime.NumCPU()} {
		for _, walkFrom := range []int{0, minWalkPops} {
			res, err := simulateFaults(context.Background(), c, list, vecs, w, BridgeG, nil, nil, walkFrom)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "all-X vectors", want, res)
		}
	}
}

// TestCampaignRejectsBadVectors pins the campaign's input check: a vector
// holding a value above X, or of the wrong width, is an error before any
// simulation.
func TestCampaignRejectsBadVectors(t *testing.T) {
	nl := netlist.C17()
	list, c := buildCampaign(t, nl)
	vecs := randomVectors(len(nl.PIs), 8, 2)
	high := append([]Vector(nil), vecs...)
	high[3] = append(Vector(nil), vecs[3]...)
	high[3][1] = 9
	narrow := append([]Vector(nil), vecs...)
	narrow[5] = vecs[5][1:]
	for _, tc := range []struct {
		name, want string
		vecs       []Vector
	}{
		{"value above X", "value 9", high},
		{"narrow vector", "bits", narrow},
	} {
		if res, err := SimulateFaults(context.Background(), c, list, tc.vecs, 2, BridgeG, nil, nil); err == nil || res != nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: SimulateFaults = %v, %v; want an error mentioning %q", tc.name, res, err, tc.want)
		}
	}
}

// TestDetectedByClampsToVectorsApplied pins the early-stop accounting
// contract: coverage queried beyond the stop point reports the flags as
// of the stop, and a zero VectorsApplied (a Result that never ran the
// vector loop) keeps trivial-verdict detections credited.
func TestDetectedByClampsToVectorsApplied(t *testing.T) {
	r := &Result{
		DetectedAt:     []int{1, 5, 0},
		IDDQAt:         []int{0, 0, 9},
		Undecided:      []bool{false, false, true},
		VectorsApplied: 5,
	}
	// Vector 9 was never simulated: the IDDQ entry beyond the stop (which
	// a real campaign cannot produce) must not be credited at k = 20.
	got := r.DetectedBy(20, true)
	want := []bool{true, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DetectedBy(20) = %v, want %v", got, want)
		}
	}
	// Queries inside the applied range are untouched.
	if got := r.DetectedBy(1, false); !got[0] || got[1] || got[2] {
		t.Fatalf("DetectedBy(1) = %v, want [true false false]", got)
	}
	// VectorsApplied == 0: trivial verdicts stay credited.
	triv := &Result{DetectedAt: []int{1}, IDDQAt: []int{0}}
	if got := triv.DetectedBy(64, false); !got[0] {
		t.Fatal("trivial verdict lost on a Result without VectorsApplied")
	}
}

// TestEqualValsLengthGuard pins the defensive fast-path contract: skewed
// slices never compare equal (and never panic).
func TestEqualValsLengthGuard(t *testing.T) {
	if equalVals([]Val{V0, V1}, []Val{V0}) {
		t.Fatal("skewed slices must not compare equal")
	}
	if !equalVals([]Val{V0, V1}, []Val{V0, V1}) {
		t.Fatal("identical slices must compare equal")
	}
}
