package switchsim

import (
	"context"
	"runtime"
	"testing"

	"defectsim/internal/defect"
	"defectsim/internal/extract"
	"defectsim/internal/layout"
	"defectsim/internal/netlist"
	"defectsim/internal/obs"
	"defectsim/internal/transistor"
)

// TestWorkerNormalizationPolicy is the regression test for the repo-wide
// worker policy: switchsim used to map workers <= 0 to GOMAXPROCS while
// the rest of the tree used NumCPU. Every subsystem now normalizes through
// internal/par, and the chosen count is observable via the swsim_workers
// gauge.
func TestWorkerNormalizationPolicy(t *testing.T) {
	nl := netlist.C17()
	L, err := layout.Build(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	list := extract.Faults(L, defect.Typical())
	c := transistor.FromLayout(L)
	vecs := randomVectors(len(nl.PIs), 32, 11)

	want := map[int]float64{
		-3: float64(runtime.NumCPU()),
		0:  float64(runtime.NumCPU()),
		1:  1,
		5:  5,
	}
	var ref *Result
	for _, w := range []int{-3, 0, 1, 5} {
		reg := obs.NewRegistry()
		res, err := SimulateFaults(context.Background(), c, list, vecs, w, BridgeG, reg, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if got := reg.Gauge("swsim_workers").Value(); got != want[w] {
			t.Errorf("workers=%d normalized to %.0f, want %.0f", w, got, want[w])
		}
		if ref == nil {
			ref = res
			continue
		}
		for i := range ref.DetectedAt {
			if res.DetectedAt[i] != ref.DetectedAt[i] || res.IDDQAt[i] != ref.IDDQAt[i] {
				t.Fatalf("workers=%d: fault %d detection differs from reference", w, i)
			}
		}
	}
}
