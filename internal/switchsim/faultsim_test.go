package switchsim

import (
	"context"
	"testing"

	"defectsim/internal/defect"
	"defectsim/internal/extract"
	"defectsim/internal/fault"
	"defectsim/internal/layout"
	"defectsim/internal/netlist"
	"defectsim/internal/transistor"
)

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
	res, _, err := SimulateFaults(context.Background(), c, list, vecs, 0, BridgeG, nil, nil, nil)
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
