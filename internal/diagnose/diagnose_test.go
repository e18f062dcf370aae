package diagnose

import (
	"context"
	"testing"

	"defectsim/internal/fault"
	"defectsim/internal/gatesim"
	"defectsim/internal/netlist"
)

func exhaustive(nPI int) []gatesim.Pattern {
	out := make([]gatesim.Pattern, 1<<uint(nPI))
	for v := range out {
		p := make(gatesim.Pattern, nPI)
		for i := 0; i < nPI; i++ {
			p[i] = uint8((v >> uint(i)) & 1)
		}
		out[v] = p
	}
	return out
}

func c17Dictionary(t *testing.T) (*Dictionary, []gatesim.Pattern) {
	t.Helper()
	nl := netlist.C17()
	pats := exhaustive(5)
	d, err := Build(nl, fault.StuckAtUniverse(nl), pats)
	if err != nil {
		t.Fatal(err)
	}
	return d, pats
}

func TestSelfDiagnosisRanksInjectedFaultFirst(t *testing.T) {
	// Feeding a fault's own signature back must rank that fault (or an
	// equivalent one with the identical signature) first with zero
	// mis/nonpredictions.
	d, _ := c17Dictionary(t)
	for i, f := range d.Faults {
		if len(d.Sigs[i]) == 0 {
			t.Fatalf("fault %v undetected by exhaustive set", f)
		}
		cands := d.Diagnose(d.Sigs[i], 5)
		if len(cands) == 0 {
			t.Fatalf("fault %v: no candidates", f)
		}
		top := cands[0]
		if top.Mispredict != 0 || top.Nonpredict != 0 {
			t.Fatalf("fault %v: top candidate %v has residuals", f, top)
		}
		// The injected fault must appear among the perfect-score heads.
		found := false
		for _, c := range cands {
			if c.Match != top.Match || c.Mispredict != 0 || c.Nonpredict != 0 {
				break
			}
			if c.Fault == f {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("fault %v not among the perfect candidates: %v", f, cands)
		}
	}
}

func TestDiagnoseEmptyObservation(t *testing.T) {
	d, _ := c17Dictionary(t)
	if cands := d.Diagnose(nil, 10); len(cands) != 0 {
		t.Fatalf("no failures, no candidates: %v", cands)
	}
}

func TestDiagnoseTopNAndImplicatedNets(t *testing.T) {
	d, _ := c17Dictionary(t)
	cands := d.Diagnose(d.Sigs[0], 3)
	if len(cands) > 3 {
		t.Fatal("topN not honored")
	}
	nets := ImplicatedNets(cands)
	if len(nets) == 0 || len(nets) > 3 {
		t.Fatalf("implicated nets: %v", nets)
	}
	seen := map[int]bool{}
	for _, n := range nets {
		if seen[n] {
			t.Fatal("duplicate net")
		}
		seen[n] = true
	}
	if cands[0].String() == "" {
		t.Fatal("string")
	}
}

func TestDiagnoseNoisyObservation(t *testing.T) {
	// Corrupt a signature by dropping one observation: the fault must
	// still rank at the top (fewest nonpredictions among high-match
	// candidates tolerated).
	d, _ := c17Dictionary(t)
	for i, f := range d.Faults {
		if len(d.Sigs[i]) < 3 {
			continue
		}
		obs := append([]gatesim.Fail(nil), d.Sigs[i][1:]...)
		cands := d.Diagnose(obs, 5)
		found := false
		for _, c := range cands {
			if c.Fault == f {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("fault %v lost after dropping one observation", f)
		}
		break
	}
}

func TestSignaturesConsistentWithSimulate(t *testing.T) {
	// First-failure of the signature must equal Simulate's DetectedAt.
	nl := netlist.C432Class(2)
	faults := fault.StuckAtUniverse(nl)
	pats := gatesim.RandomPatterns(nl, 128, 4)
	sigs, err := gatesim.Signatures(nl, faults, pats)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gatesim.SimulateFaultsCtx(context.Background(), nl, faults, pats, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range faults {
		want := res.DetectedAt[i]
		if len(sigs[i]) == 0 {
			if want != 0 {
				t.Fatalf("fault %v: Simulate detects at %d, signature empty", faults[i], want)
			}
			continue
		}
		if got := sigs[i][0].Vector + 1; got != want {
			t.Fatalf("fault %v: first failure %d vs DetectedAt %d", faults[i], got, want)
		}
		for j := 1; j < len(sigs[i]); j++ {
			if sigs[i][j].Vector <= sigs[i][j-1].Vector {
				t.Fatal("signature vectors must be strictly increasing")
			}
		}
		for _, fl := range sigs[i] {
			if fl.POMask == 0 {
				t.Fatal("failing observation with empty PO mask")
			}
		}
	}
}

func TestDiagnoseStructuralPrunes(t *testing.T) {
	d, _ := c17Dictionary(t)
	nl := d.Netlist
	// Observe only failures at PO 0 (G22): every structural candidate must
	// lie in G22's fanin cone.
	cone := nl.FaninCone(nl.POs[0])
	for i := range d.Faults {
		var obs []gatesim.Fail
		for _, f := range d.Sigs[i] {
			if f.POMask&1 != 0 {
				obs = append(obs, gatesim.Fail{Vector: f.Vector, POMask: 1})
			}
		}
		if len(obs) == 0 {
			continue
		}
		cands := d.DiagnoseStructural(obs, 0)
		if len(cands) == 0 {
			t.Fatalf("fault %v: structural diagnosis empty", d.Faults[i])
		}
		for _, c := range cands {
			if !cone[c.Fault.Net] {
				t.Fatalf("candidate %v outside the failing PO's cone", c)
			}
		}
		// Structural candidates are a subset of plain candidates.
		plain := d.Diagnose(obs, 0)
		if len(cands) > len(plain) {
			t.Fatal("pruning added candidates")
		}
	}
	if got := d.DiagnoseStructural(nil, 5); got != nil {
		t.Fatal("no failures → no candidates")
	}
}
