package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"defectsim/internal/netlist"
)

func TestDiagnosisStudyLocalizesBridges(t *testing.T) {
	p, err := Run(netlist.RippleAdder(4), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, err := RunDiagnosisStudy(context.Background(), p, 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.Bridges < 20 {
		t.Fatalf("too few diagnosable bridges: %d", st.Bridges)
	}
	rate := float64(st.Localized) / float64(st.Bridges)
	if rate < 0.7 {
		t.Fatalf("localization rate %.0f%% too low", 100*rate)
	}
	if st.MeanRank < 1 || st.MeanRank > float64(st.TopK) {
		t.Fatalf("mean rank %.1f outside [1,%d]", st.MeanRank, st.TopK)
	}
	if !strings.Contains(st.Render(), "VAL-3") {
		t.Fatal("render")
	}
}

func TestDiagnosisStudyBudget(t *testing.T) {
	p, err := Run(netlist.C17(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, err := RunDiagnosisStudy(context.Background(), p, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.Bridges > 3 {
		t.Fatalf("budget exceeded: %d", st.Bridges)
	}
}

// TestDiagnosisStudyCancelled: the replay polls its context once per
// bridge, so a cancelled study returns the context's error instead of
// replaying every bridge.
func TestDiagnosisStudyCancelled(t *testing.T) {
	p, err := Run(netlist.RippleAdder(4), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if st, err := RunDiagnosisStudy(ctx, p, 60, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled diagnosis returned %+v, %v; want context.Canceled", st, err)
	}
}
