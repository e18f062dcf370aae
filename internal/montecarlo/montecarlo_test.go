package montecarlo

import (
	"math"
	"testing"

	"defectsim/internal/defect"
	"defectsim/internal/dlmodel"
	"defectsim/internal/extract"
	"defectsim/internal/fault"
	"defectsim/internal/layout"
	"defectsim/internal/netlist"
)

func adderFaults(t testing.TB) (*layout.Layout, *fault.List) {
	t.Helper()
	L, err := layout.Build(netlist.RippleAdder(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	list := extract.Faults(L, defect.Typical())
	list.ScaleToYield(0.75)
	return L, list
}

func TestSimulateLotMatchesClosedForm(t *testing.T) {
	_, list := adderFaults(t)
	// Synthetic detection data: every fault detected at vector 1 except a
	// deterministic 30% of the weight.
	detectedAt := make([]int, len(list.Faults))
	var undet float64
	for i := range list.Faults {
		if i%3 == 0 {
			undet += list.Faults[i].Weight
		} else {
			detectedAt[i] = 1
		}
	}
	det := make([]bool, len(list.Faults))
	for i, d := range detectedAt {
		det[i] = d > 0
	}
	theta := list.WeightedCoverage(det)
	want := dlmodel.Weighted(list.Yield(), theta)

	res := SimulateLot(list, detectedAt, 1, 300000, 42)
	if math.Abs(res.Yield()-0.75) > 0.01 {
		t.Fatalf("empirical yield %.4f, want ≈0.75", res.Yield())
	}
	got := res.DefectLevel()
	if math.Abs(got-want) > 0.15*want {
		t.Fatalf("empirical DL %.5f vs closed form %.5f", got, want)
	}
	if res.GoodDies+res.Detected+res.Escapes != res.Dies {
		t.Fatal("lot bookkeeping inconsistent")
	}
	if res.String() == "" {
		t.Fatal("string")
	}
}

func TestSimulateLotFullCoverage(t *testing.T) {
	_, list := adderFaults(t)
	detectedAt := make([]int, len(list.Faults))
	for i := range detectedAt {
		detectedAt[i] = 1
	}
	res := SimulateLot(list, detectedAt, 1, 50000, 7)
	if res.Escapes != 0 {
		t.Fatalf("full detection must ship zero defects, got %d escapes", res.Escapes)
	}
	// And k = 0 (no vectors applied) catches nothing.
	res0 := SimulateLot(list, detectedAt, 0, 50000, 7)
	if res0.Detected != 0 {
		t.Fatal("no vectors, no detections")
	}
	if dl := res0.DefectLevel(); math.Abs(dl-(1-res0.Yield())) > 1e-12 {
		t.Fatalf("untested lot DL must be 1−Y: %g vs %g", dl, 1-res0.Yield())
	}
}

func TestSimulateLotPanicsOnMismatch(t *testing.T) {
	_, list := adderFaults(t)
	defer func() {
		if recover() == nil {
			t.Fatal("must panic")
		}
	}()
	SimulateLot(list, make([]int, 3), 1, 10, 1)
}

func TestInjectDefectsBasics(t *testing.T) {
	L, list := adderFaults(t)
	rep := InjectDefects(L, defect.Typical(), 20000, 11)
	if rep.Total != 20000 {
		t.Fatal("total mismatch")
	}
	if rep.ByEffect[EffectBridge] == 0 {
		t.Fatal("no bridges observed — defect sampling broken")
	}
	if rep.ByEffect[EffectOpen] == 0 {
		t.Fatal("no opens observed")
	}
	if rep.ByEffect[EffectBenign] == 0 {
		t.Fatal("every defect faulting is implausible on a sparse layout")
	}
	sum := 0
	for _, c := range rep.ByEffect {
		sum += c
	}
	if sum != rep.Total {
		t.Fatal("effect counts must partition the total")
	}
	// Completeness: every geometrically observed fault was predicted by
	// the critical-area extraction.
	if err := rep.ValidateAgainst(list); err != nil {
		t.Fatal(err)
	}
}

func TestInjectionFrequenciesTrackWeights(t *testing.T) {
	L, list := adderFaults(t)
	rep := InjectDefects(L, defect.Typical(), 30000, 12)
	// Bridge hits must concentrate on the top weight quartile of the
	// extracted bridges far beyond the 25% a uniform spread would give.
	frac := rep.WeightCorrelation(list, 0.25)
	if frac < 0.5 {
		t.Fatalf("only %.0f%% of bridge hits in the top weight quartile", 100*frac)
	}
	// And the bridge/open ratio must lean bridging under Typical() stats.
	if rep.ByEffect[EffectBridge] <= rep.ByEffect[EffectOpen] {
		t.Fatalf("bridging-dominant statistics must produce more bridges (got %d vs %d)",
			rep.ByEffect[EffectBridge], rep.ByEffect[EffectOpen])
	}
}

func TestInjectionEffectStrings(t *testing.T) {
	if EffectBenign.String() != "benign" || EffectBridge.String() != "bridge" || EffectOpen.String() != "open" {
		t.Fatal("effect strings")
	}
}

func TestInjectionDeterministic(t *testing.T) {
	L, _ := adderFaults(t)
	a := InjectDefects(L, defect.Typical(), 5000, 3)
	b := InjectDefects(L, defect.Typical(), 5000, 3)
	if a.ByEffect[EffectBridge] != b.ByEffect[EffectBridge] ||
		a.ByEffect[EffectOpen] != b.ByEffect[EffectOpen] {
		t.Fatal("injection must be deterministic per seed")
	}
}

// pinDetections is the synthetic campaign of the sampler pins: a third of
// the faults never detected, the rest first detected at vectors 1..4.
func pinDetections(n int) []int {
	detectedAt := make([]int, n)
	for i := range detectedAt {
		if i%3 != 0 {
			detectedAt[i] = 1 + i%4
		}
	}
	return detectedAt
}

// TestSimulateLotPinned pins the lot sampler's exact output at a fixed
// seed: the RNG draw order (Poisson count, then one draw per fault until
// the die is caught) must not change, or every recorded lot result moves.
func TestSimulateLotPinned(t *testing.T) {
	_, list := adderFaults(t)
	got := SimulateLot(list, pinDetections(len(list.Faults)), 3, 20000, 11)
	want := LotResult{Dies: 20000, GoodDies: 14948, Detected: 2743, Escapes: 2309}
	if got != want {
		t.Fatalf("SimulateLot = %+v, want %+v", got, want)
	}
}
