package extract

import (
	"math"
	"testing"

	"defectsim/internal/defect"
	"defectsim/internal/fault"
	"defectsim/internal/layout"
	"defectsim/internal/netlist"
)

func extractC17(t *testing.T) (*layout.Layout, *fault.List) {
	t.Helper()
	L, err := layout.Build(netlist.C17(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return L, Faults(L, defect.Typical())
}

func TestFaultsC17Basics(t *testing.T) {
	L, list := extractC17(t)
	if len(list.Faults) == 0 {
		t.Fatal("no faults extracted")
	}
	counts := list.CountByKind()
	if counts[fault.KindBridge] == 0 {
		t.Fatal("no bridges extracted")
	}
	if counts[fault.KindOpenInput] == 0 {
		t.Fatal("no input opens extracted")
	}
	if counts[fault.KindOpenDriver] == 0 {
		t.Fatal("no driver opens extracted")
	}
	for _, f := range list.Faults {
		if f.Weight <= 0 {
			t.Fatalf("non-positive weight: %v", f)
		}
		switch f.Kind {
		case fault.KindBridge:
			if f.NetA >= f.NetB {
				t.Fatalf("bridge nets unordered: %v", f)
			}
			if f.NetA < 0 || f.NetB >= len(L.Nets) {
				t.Fatalf("bridge nets out of range: %v", f)
			}
			if f.NetA == layout.NetGND && f.NetB == layout.NetVDD {
				continue // power-to-power bridge is possible and fine
			}
		case fault.KindOpenInput:
			if f.Inst < 0 || f.Inst >= len(L.Instances) {
				t.Fatalf("open-input instance out of range: %v", f)
			}
			if f.NetA <= layout.NetVDD {
				t.Fatalf("open on power net: %v", f)
			}
		case fault.KindOpenDriver:
			if f.NetA <= layout.NetVDD {
				t.Fatalf("open on power net: %v", f)
			}
		}
	}
	// Sorted by descending weight.
	for i := 1; i < len(list.Faults); i++ {
		if list.Faults[i].Weight > list.Faults[i-1].Weight {
			t.Fatal("fault list not sorted by weight")
		}
	}
}

func TestFaultsDeterministic(t *testing.T) {
	_, a := extractC17(t)
	_, b := extractC17(t)
	if len(a.Faults) != len(b.Faults) {
		t.Fatal("nondeterministic fault count")
	}
	for i := range a.Faults {
		if a.Faults[i] != b.Faults[i] {
			t.Fatalf("fault %d differs between runs", i)
		}
	}
}

func TestEveryInputPinGetsOpenFault(t *testing.T) {
	L, list := extractC17(t)
	type bk struct{ inst, node int }
	got := map[bk]bool{}
	for _, f := range list.Faults {
		if f.Kind == fault.KindOpenInput {
			got[bk{f.Inst, f.Node}] = true
		}
	}
	want := map[bk]bool{}
	for _, p := range L.Pins {
		if p.Input && p.Net > layout.NetVDD {
			want[bk{p.Inst, p.Node}] = true
		}
	}
	if len(got) != len(want) {
		t.Fatalf("open-input faults cover %d input pins, want %d", len(got), len(want))
	}
}

func TestBridgeNeighborhood(t *testing.T) {
	// On the c432-class layout, most nets bridge to only a few geometric
	// neighbors: the pair count must be far below the all-pairs bound but
	// large enough to be interesting.
	L, err := layout.Build(netlist.C432Class(1994), nil)
	if err != nil {
		t.Fatal(err)
	}
	list := Faults(L, defect.Typical())
	nb := list.CountByKind()[fault.KindBridge]
	n := len(L.Nets)
	if nb < n/2 {
		t.Fatalf("too few bridges: %d for %d nets", nb, n)
	}
	if nb > n*n/8 {
		t.Fatalf("bridge count %d suspiciously close to all-pairs for %d nets", nb, n)
	}
}

func TestWeightDispersion(t *testing.T) {
	// Paper fig. 3: fault weights span several decades. Require ≥ 2.5
	// decades between the 5th and 95th percentile on the c432-class layout.
	L, err := layout.Build(netlist.C432Class(1994), nil)
	if err != nil {
		t.Fatal(err)
	}
	list := Faults(L, defect.Typical())
	ws := make([]float64, 0, len(list.Faults))
	for _, f := range list.Faults {
		ws = append(ws, f.Weight)
	}
	// list is sorted descending already.
	hi := ws[len(ws)*5/100]
	lo := ws[len(ws)*95/100]
	if span := math.Log10(hi / lo); span < 2.0 {
		t.Fatalf("weight dispersion only %.2f decades (hi=%g lo=%g)", span, hi, lo)
	}
}

func TestBridgesDominateTypicalStats(t *testing.T) {
	// Typical() encodes a bridging-dominant line: total bridge weight must
	// exceed total open weight (the regime in which the paper finds R > 1).
	L, err := layout.Build(netlist.C432Class(1994), nil)
	if err != nil {
		t.Fatal(err)
	}
	list := Faults(L, defect.Typical())
	var wb, wo float64
	for _, f := range list.Faults {
		if f.Kind == fault.KindBridge {
			wb += f.Weight
		} else {
			wo += f.Weight
		}
	}
	if wb <= wo {
		t.Fatalf("bridges (%g) must dominate opens (%g) under Typical()", wb, wo)
	}
	// And the flipped statistics must flip the balance.
	list2 := Faults(L, defect.OpensDominant())
	wb, wo = 0, 0
	for _, f := range list2.Faults {
		if f.Kind == fault.KindBridge {
			wb += f.Weight
		} else {
			wo += f.Weight
		}
	}
	if wo <= wb {
		t.Fatalf("opens (%g) must dominate bridges (%g) under OpensDominant()", wo, wb)
	}
}

func TestZeroDensityProducesNoFaults(t *testing.T) {
	L, err := layout.Build(netlist.C17(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var zeroDensity defect.Statistics
	zeroDensity.MaxSize = 24
	noSizes := defect.Typical()
	noSizes.MaxSize = 0
	for name, stats := range map[string]defect.Statistics{"zero densities": zeroDensity, "MaxSize 0": noSizes} {
		if list := Faults(L, stats); len(list.Faults) != 0 {
			t.Errorf("%s must give an empty list, got %d faults", name, len(list.Faults))
		}
	}
}
