package fault

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"defectsim/internal/netlist"
)

func TestStuckAtUniverseC17(t *testing.T) {
	nl := netlist.C17()
	faults := StuckAtUniverse(nl)
	// 11 nets × 2 stem faults = 22. Fanout nets: G3 feeds two NANDs, G11
	// feeds two, G16 feeds two. Branch s-a-0 collapses into the NAND output
	// (controlling value), branch s-a-1 remains: 3 nets × 2 branches × 1
	// value = 6 branch faults.
	want := 22 + 6
	if len(faults) != want {
		t.Fatalf("c17 collapsed universe = %d faults, want %d", len(faults), want)
	}
	seen := map[StuckAt]bool{}
	for _, f := range faults {
		if seen[f] {
			t.Fatalf("duplicate fault %v", f)
		}
		seen[f] = true
		if f.Value > 1 {
			t.Fatalf("bad stuck value in %v", f)
		}
	}
}

func TestStuckAtUniverseDeterministic(t *testing.T) {
	nl := netlist.C432Class(3)
	a := StuckAtUniverse(nl)
	b := StuckAtUniverse(nl)
	if len(a) != len(b) {
		t.Fatal("nondeterministic universe size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic order at %d", i)
		}
	}
}

func TestCollapseRules(t *testing.T) {
	cases := []struct {
		t    netlist.GateType
		v    uint8
		want bool
	}{
		{netlist.And, 0, true}, {netlist.And, 1, false},
		{netlist.Nand, 0, true}, {netlist.Nand, 1, false},
		{netlist.Or, 1, true}, {netlist.Or, 0, false},
		{netlist.Nor, 1, true}, {netlist.Nor, 0, false},
		{netlist.Not, 0, true}, {netlist.Not, 1, true},
		{netlist.Buf, 0, true}, {netlist.Buf, 1, true},
		{netlist.Xor, 0, false}, {netlist.Xor, 1, false},
		{netlist.Xnor, 0, false}, {netlist.Xnor, 1, false},
	}
	for _, c := range cases {
		if got := collapsesIntoOutput(c.t, c.v); got != c.want {
			t.Errorf("collapse(%v, sa%d) = %v, want %v", c.t, c.v, got, c.want)
		}
	}
}

func TestRealisticProb(t *testing.T) {
	f := Realistic{Weight: 0}
	if f.Prob() != 0 {
		t.Fatal("zero weight means zero probability")
	}
	f.Weight = 1e-6
	if p := f.Prob(); math.Abs(p-1e-6) > 1e-11 {
		t.Fatalf("small-weight prob ≈ weight, got %g", p)
	}
	f.Weight = 100
	if p := f.Prob(); p < 0.999999 {
		t.Fatalf("large weight must saturate, got %g", p)
	}
}

func TestListYieldAndCoverage(t *testing.T) {
	l := &List{Faults: []Realistic{
		{Kind: KindBridge, NetA: 0, NetB: 1, Weight: 0.2},
		{Kind: KindOpenDriver, NetA: 2, Weight: 0.1},
		{Kind: KindOpenInput, NetA: 3, Inst: 0, Node: 2, Weight: 0.7},
	}}
	if got, want := l.TotalWeight(), 1.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("TotalWeight = %g", got)
	}
	if got, want := l.Yield(), math.Exp(-1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Yield = %g, want %g", got, want)
	}
	det := []bool{true, false, true}
	if got, want := l.WeightedCoverage(det), 0.9; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Θ = %g, want %g", got, want)
	}
	if got, want := l.UnweightedCoverage(det), 2.0/3.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Γ = %g, want %g", got, want)
	}
}

func TestScaleToYield(t *testing.T) {
	l := &List{Faults: []Realistic{
		{Weight: 0.3}, {Weight: 0.5}, {Weight: 1.2},
	}}
	l.ScaleToYield(0.75)
	if got := l.Yield(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("scaled yield = %g, want 0.75", got)
	}
	// Relative weights preserved.
	if r := l.Faults[1].Weight / l.Faults[0].Weight; math.Abs(r-5.0/3.0) > 1e-9 {
		t.Fatalf("relative weights changed: %g", r)
	}
}

func TestScaleToYieldProperty(t *testing.T) {
	f := func(w1, w2 uint16, yRaw uint16) bool {
		y := 0.01 + 0.98*float64(yRaw)/65535
		l := &List{Faults: []Realistic{
			{Weight: 0.001 + float64(w1)/100},
			{Weight: 0.001 + float64(w2)/100},
		}}
		l.ScaleToYield(y)
		return math.Abs(l.Yield()-y) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestScaleToYieldPanics(t *testing.T) {
	for _, y := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ScaleToYield(%g) must panic", y)
				}
			}()
			l := &List{Faults: []Realistic{{Weight: 1}}}
			l.ScaleToYield(y)
		}()
	}
}

func TestSortByWeight(t *testing.T) {
	l := &List{Faults: []Realistic{
		{Kind: KindBridge, NetA: 1, NetB: 2, Weight: 0.1},
		{Kind: KindBridge, NetA: 3, NetB: 4, Weight: 0.9},
		{Kind: KindOpenDriver, NetA: 5, Weight: 0.5},
	}}
	l.SortByWeight()
	if l.Faults[0].Weight != 0.9 || l.Faults[2].Weight != 0.1 {
		t.Fatalf("not sorted: %v", l.Faults)
	}
}

func TestSortByWeightMatchesStringComparator(t *testing.T) {
	// A shuffled list drawn from few weights, so most faults tie, and
	// with repeated faults, so some tie on String() too (Inst tells them
	// apart for bridges). Both ways must give the same order.
	rng := rand.New(rand.NewSource(7))
	weights := []float64{0.5, 1e-7, 3e-9, 0, math.Copysign(0, -1), 2.5e-8}
	var fs []Realistic
	for i := 0; i < 2000; i++ {
		f := Realistic{Kind: Kind(rng.Intn(3)), NetA: rng.Intn(40), NetB: -1,
			Inst: rng.Intn(3), Node: rng.Intn(3), Weight: weights[rng.Intn(len(weights))]}
		if f.Kind == KindBridge {
			f.NetB = f.NetA + 1 + rng.Intn(40)
		}
		fs = append(fs, f)
	}
	for trial := 0; trial < 5; trial++ {
		rng.Shuffle(len(fs), func(i, j int) { fs[i], fs[j] = fs[j], fs[i] })
		want := slices.Clone(fs)
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].Weight != want[j].Weight {
				return want[i].Weight > want[j].Weight
			}
			return want[i].String() < want[j].String()
		})
		l := &List{Faults: slices.Clone(fs)}
		l.SortByWeight()
		for i := range want {
			if l.Faults[i] != want[i] || math.Signbit(l.Faults[i].Weight) != math.Signbit(want[i].Weight) {
				t.Fatalf("trial %d: position %d is %+v, the string comparator puts %+v there", trial, i, l.Faults[i], want[i])
			}
		}
	}
}

func TestCountByKindAndStrings(t *testing.T) {
	l := &List{Faults: []Realistic{
		{Kind: KindBridge, NetA: 0, NetB: 1},
		{Kind: KindBridge, NetA: 0, NetB: 2},
		{Kind: KindOpenInput, NetA: 3, Inst: 1, Node: 2},
		{Kind: KindOpenDriver, NetA: 4},
	}}
	m := l.CountByKind()
	if m[KindBridge] != 2 || m[KindOpenInput] != 1 || m[KindOpenDriver] != 1 {
		t.Fatalf("counts: %v", m)
	}
	for _, f := range l.Faults {
		if f.String() == "" || f.Kind.String() == "" {
			t.Fatal("empty string rendering")
		}
	}
	if (StuckAt{3, -1, 1}).String() != "net3/sa1" {
		t.Fatal("stuck-at stem string")
	}
	if (StuckAt{3, 7, 0}).String() != "net3->g7/sa0" {
		t.Fatal("stuck-at branch string")
	}
}

func TestEmptyListEdgeCases(t *testing.T) {
	l := &List{}
	if l.Yield() != 1 {
		t.Fatal("empty list yields 1")
	}
	if l.WeightedCoverage(nil) != 0 || l.UnweightedCoverage(nil) != 0 {
		t.Fatal("empty coverages must be 0")
	}
}
