package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"defectsim/internal/atpg"
	"defectsim/internal/extract"
	"defectsim/internal/fault"
	"defectsim/internal/gatesim"
	"defectsim/internal/layout"
	"defectsim/internal/netlist"
	"defectsim/internal/switchsim"
	"defectsim/internal/transistor"
)

// TestRandomCircuitSweep is the cross-package property sweep: for a batch
// of random circuits it checks that (a) the generated layout passes LVS,
// (b) the switch-level good machine agrees with gate-level logic on random
// vectors, and (c) deterministic ATPG reaches full coverage of testable
// faults with patterns the reference simulator confirms.
func TestRandomCircuitSweep(t *testing.T) {
	for seed := int64(100); seed < 106; seed++ {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Parallel() // the seeds are independent end-to-end pipelines
			nl := netlist.RandomCircuit(fmt.Sprintf("rnd%d", seed), seed, 10, 4, 30)

			// (a) layout + LVS.
			L, err := layout.Build(nl, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := extract.VerifyLVS(L); err != nil {
				t.Fatal(err)
			}

			// (b) switch-level vs gate-level equivalence.
			c := transistor.FromLayout(L)
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			var vecs []switchsim.Vector
			var pis [][]uint64
			for k := 0; k < 24; k++ {
				v := make(switchsim.Vector, len(nl.PIs))
				w := make([]uint64, len(nl.PIs))
				for j := range v {
					b := switchsim.Val(rng.Intn(2))
					v[j] = b
					w[j] = uint64(b)
				}
				vecs = append(vecs, v)
				pis = append(pis, w)
			}
			outs := switchsim.Run(c, vecs)
			for k := range vecs {
				if outs[k] == nil {
					t.Fatalf("the fault-free machine did not settle on vector %d", k)
				}
				vals, err := nl.Eval(pis[k])
				if err != nil {
					t.Fatal(err)
				}
				for o, po := range nl.POs {
					if uint64(outs[k][o]) != vals[po]&1 {
						t.Fatalf("vector %d PO %d: switch %v vs gate %d",
							k, o, outs[k][o], vals[po]&1)
					}
				}
			}

			// (c) ATPG closes the coverage gap with verified patterns.
			faults := fault.StuckAtUniverse(nl)
			ts, err := atpg.BuildTestSetWorkersCtx(context.Background(), nl, faults, 16, uint64(seed), 3000, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			aborted := 0
			for i := range faults {
				if ts.Aborted[i] {
					aborted++
				}
			}
			if cov := ts.Coverage(true); cov < 1.0 && aborted == 0 {
				t.Fatalf("testable coverage %.4f with no aborts", cov)
			}
			res, err := gatesim.SimulateFaultsCtx(context.Background(), nl, faults, ts.Patterns, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range faults {
				if (ts.DetectedAt[i] > 0) != (res.DetectedAt[i] > 0) {
					t.Fatalf("fault %v: ATPG bookkeeping disagrees with reference simulation", faults[i])
				}
			}
		})
	}
}

// TestRandomCircuitExtractionInvariants checks extraction invariants on
// random layouts: positive weights, ordered bridge pairs, and the yield
// identity Y = e^{−Σw} surviving scaling.
func TestRandomCircuitExtractionInvariants(t *testing.T) {
	for seed := int64(200); seed < 204; seed++ {
		nl := netlist.RandomCircuit(fmt.Sprintf("rx%d", seed), seed, 8, 3, 20)
		L, err := layout.Build(nl, nil)
		if err != nil {
			t.Fatal(err)
		}
		list := extract.Faults(L, DefaultConfig().Stats)
		if len(list.Faults) == 0 {
			t.Fatal("no faults")
		}
		for _, f := range list.Faults {
			if f.Weight <= 0 {
				t.Fatalf("weight %g", f.Weight)
			}
			if f.Kind == fault.KindBridge && f.NetA >= f.NetB {
				t.Fatal("bridge pair unordered")
			}
		}
		list.ScaleToYield(0.6)
		if y := list.Yield(); y < 0.5999 || y > 0.6001 {
			t.Fatalf("yield identity broken: %g", y)
		}
	}
}
