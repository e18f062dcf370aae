package switchsim

import (
	"context"
	"errors"
	"testing"

	"defectsim/internal/defect"
	"defectsim/internal/extract"
	"defectsim/internal/faultinject"
	"defectsim/internal/layout"
	"defectsim/internal/netlist"
	"defectsim/internal/transistor"
)

// TestSimulateFaultsCtxCancelMidRun pins the partial-result contract: a
// context cancelled mid-campaign returns the detections recorded so far
// (with VectorsApplied < len(vectors) and the still-live faults marked
// undecided) together with the context's error.
func TestSimulateFaultsCtxCancelMidRun(t *testing.T) {
	nl := netlist.RippleAdder(4)
	L, err := layout.Build(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	list := extract.Faults(L, defect.Typical())
	c := transistor.FromLayout(L)
	vecs := randomVectors(len(nl.PIs), 64, 5)

	const stopAfter = 10
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	restore := faultinject.Set(faultinject.HookSwitchSimVector, func(context.Context) error {
		n++
		if n > stopAfter {
			cancel()
		}
		return nil
	})
	defer restore()

	res, err := SimulateFaults(ctx, c, list, vecs, 0, BridgeG, nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled campaign returned no partial result")
	}
	if res.VectorsApplied != stopAfter {
		t.Fatalf("VectorsApplied = %d, want %d", res.VectorsApplied, stopAfter)
	}
	for i, d := range res.DetectedAt {
		if d > stopAfter {
			t.Fatalf("fault %d detected at vector %d, after the stop point", i, d)
		}
		if d > 0 && res.Undecided[i] {
			t.Fatalf("fault %d both detected and undecided", i)
		}
		if d == 0 && !res.Undecided[i] {
			t.Fatalf("fault %d neither detected nor undecided after early stop", i)
		}
	}

	// The partial prefix must agree with an uncancelled run.
	full, err := SimulateFaults(context.Background(), c, list, vecs, 0, BridgeG, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range full.DetectedAt {
		if d > 0 && d <= stopAfter && res.DetectedAt[i] != d {
			t.Fatalf("fault %d: partial run detected at %d, full run at %d", i, res.DetectedAt[i], d)
		}
	}
	if full.VectorsApplied != len(vecs) {
		t.Fatalf("full run applied %d/%d vectors", full.VectorsApplied, len(vecs))
	}
}
