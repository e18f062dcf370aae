package montecarlo

import (
	"math"
	"testing"

	"defectsim/internal/dlmodel"
)

func TestClusteredLotMatchesClosedForm(t *testing.T) {
	_, list := adderFaults(t)
	// Deterministic 40% of the weight undetected.
	detectedAt := make([]int, len(list.Faults))
	for i := range list.Faults {
		if i%5 != 0 && i%5 != 1 {
			detectedAt[i] = 1
		}
	}
	det := make([]bool, len(list.Faults))
	for i, d := range detectedAt {
		det[i] = d > 0
	}
	theta := list.WeightedCoverage(det)
	lambda := list.TotalWeight()

	for _, alpha := range []float64{0.5, 2, 1e8} {
		res := SimulateClusteredLot(list, detectedAt, 1, 250000, alpha, 77)
		wantDL := dlmodel.Clustered(lambda, alpha, theta)
		wantY := math.Pow(1+lambda/alpha, -alpha) // Stapper's negative-binomial yield
		if math.Abs(res.Yield()-wantY) > 0.01 {
			t.Fatalf("α=%g: empirical yield %.4f vs NB %.4f", alpha, res.Yield(), wantY)
		}
		got := res.DefectLevel()
		if math.Abs(got-wantDL) > 0.12*wantDL+0.002 {
			t.Fatalf("α=%g: empirical DL %.5f vs closed form %.5f", alpha, got, wantDL)
		}
	}
}

func TestClusteredLotDegeneratesToPoisson(t *testing.T) {
	_, list := adderFaults(t)
	detectedAt := make([]int, len(list.Faults))
	for i := range detectedAt {
		if i%2 == 0 {
			detectedAt[i] = 1
		}
	}
	a := SimulateClusteredLot(list, detectedAt, 1, 150000, 1e9, 5)
	b := SimulateLot(list, detectedAt, 1, 150000, 5)
	if math.Abs(a.Yield()-b.Yield()) > 0.01 {
		t.Fatalf("α→∞ yield %.4f vs Poisson %.4f", a.Yield(), b.Yield())
	}
	if math.Abs(a.DefectLevel()-b.DefectLevel()) > 0.01 {
		t.Fatalf("α→∞ DL %.5f vs Poisson %.5f", a.DefectLevel(), b.DefectLevel())
	}
}

func TestClusteringShrinksDefectLevel(t *testing.T) {
	// Same λ and Θ: clustered lots ship fewer defects (faults pile onto
	// fewer dies, and catching one fault scraps the die).
	_, list := adderFaults(t)
	detectedAt := make([]int, len(list.Faults))
	for i := range detectedAt {
		if i%3 != 0 {
			detectedAt[i] = 1
		}
	}
	clustered := SimulateClusteredLot(list, detectedAt, 1, 250000, 0.5, 9)
	poisson := SimulateLot(list, detectedAt, 1, 250000, 9)
	if clustered.DefectLevel() >= poisson.DefectLevel() {
		t.Fatalf("clustering must shrink DL: %.5f vs %.5f",
			clustered.DefectLevel(), poisson.DefectLevel())
	}
	// And raise yield.
	if clustered.Yield() <= poisson.Yield() {
		t.Fatal("clustering must raise yield at equal λ")
	}
}

func TestClusteredLotPanics(t *testing.T) {
	_, list := adderFaults(t)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s must panic", name)
			}
		}()
		f()
	}
	mustPanic("alpha", func() {
		SimulateClusteredLot(list, make([]int, len(list.Faults)), 1, 10, 0, 1)
	})
	mustPanic("mismatch", func() {
		SimulateClusteredLot(list, make([]int, 1), 1, 10, 1, 1)
	})
}

// TestClusteredLotPinned pins the clustered sampler's exact output at a
// fixed seed: per die, the Gamma draw, then the Poisson count, then the
// per-fault draws.
func TestClusteredLotPinned(t *testing.T) {
	_, list := adderFaults(t)
	got := SimulateClusteredLot(list, pinDetections(len(list.Faults)), 3, 20000, 0.5, 13)
	want := LotResult{Dies: 20000, GoodDies: 15861, Detected: 2415, Escapes: 1724}
	if got != want {
		t.Fatalf("SimulateClusteredLot = %+v, want %+v", got, want)
	}
}
