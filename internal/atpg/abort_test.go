package atpg

import (
	"context"
	"testing"

	"defectsim/internal/fault"
	"defectsim/internal/netlist"
)

// TestBuildTestSetAbortAccounting pins the paper's eq.-6 accounting for
// aborted faults: a starved backtrack limit must leave some faults
// aborted, and those faults stay out of the detected set but inside the
// coverage denominator (their testability is unknown, so they could still
// reach a customer).
func TestBuildTestSetAbortAccounting(t *testing.T) {
	nl := netlist.C432Class(7)
	faults := fault.StuckAtUniverse(nl)

	// No random prefix and an immediately-exhausted backtrack limit: every
	// fault needing even one backtrack aborts.
	ts, err := BuildTestSetWorkersCtx(context.Background(), nl, faults, 0, 7, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	det, unt, ab := ts.Counts()
	if ab == 0 {
		t.Fatal("backtrack limit 0 on c432-class aborted no faults; the starvation path is untested")
	}
	if det == 0 {
		t.Fatal("no faults detected at all; backtrack-free generation should still cover easy faults")
	}
	if det+unt+ab != len(faults) {
		t.Fatalf("counts %d+%d+%d do not partition the %d-fault universe", det, unt, ab, len(faults))
	}

	for i := range faults {
		if !ts.Aborted[i] {
			continue
		}
		if ts.DetectedAt[i] != 0 {
			t.Fatalf("fault %d is aborted but has detection index %d", i, ts.DetectedAt[i])
		}
		if ts.Untestable[i] {
			t.Fatalf("fault %d is both aborted and untestable", i)
		}
	}

	// Coverage over testable faults: aborted faults stay in the
	// denominator, untestable ones drop out.
	wantTestable := float64(det) / float64(len(faults)-unt)
	if got := ts.Coverage(true); got != wantTestable {
		t.Fatalf("Coverage(true) = %v, want detected/(total-untestable) = %v", got, wantTestable)
	}
	wantAll := float64(det) / float64(len(faults))
	if got := ts.Coverage(false); got != wantAll {
		t.Fatalf("Coverage(false) = %v, want detected/total = %v", got, wantAll)
	}

	// A sane limit must strictly improve on starvation.
	full, err := BuildTestSetWorkersCtx(context.Background(), nl, faults, 0, 7, 2000, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	fdet, _, fab := full.Counts()
	if fab >= ab {
		t.Fatalf("raising the backtrack limit did not reduce aborts: %d -> %d", ab, fab)
	}
	if fdet <= det {
		t.Fatalf("raising the backtrack limit did not improve detection: %d -> %d", det, fdet)
	}
	if full.Coverage(true) <= ts.Coverage(true) {
		t.Fatalf("coverage did not improve: %v -> %v", ts.Coverage(true), full.Coverage(true))
	}
}
