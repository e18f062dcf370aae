package wafer

import (
	"math"
	"strings"
	"testing"

	"defectsim/internal/defect"
	"defectsim/internal/extract"
	"defectsim/internal/fault"
	"defectsim/internal/layout"
	"defectsim/internal/netlist"
)

func testFaults(t testing.TB) *fault.List {
	t.Helper()
	L, err := layout.Build(netlist.RippleAdder(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	list := extract.Faults(L, defect.Typical())
	list.ScaleToYield(0.75)
	return list
}

func allDetected(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

func TestSitesInsideWafer(t *testing.T) {
	g := Geometry{Radius: 100, DieW: 10, DieH: 8, EdgeExclusion: 3}
	dies := g.Sites()
	if len(dies) == 0 {
		t.Fatal("no dies")
	}
	usable := g.Radius - g.EdgeExclusion
	for _, d := range dies {
		corner := math.Hypot(math.Abs(d.X)+g.DieW/2, math.Abs(d.Y)+g.DieH/2)
		if corner > usable+1e-9 {
			t.Fatalf("die at (%g,%g) leaves the usable area", d.X, d.Y)
		}
	}
	// Die count should be in the ballpark of the area ratio.
	areaRatio := math.Pi * usable * usable / (g.DieW * g.DieH)
	if float64(len(dies)) < 0.5*areaRatio || float64(len(dies)) > areaRatio {
		t.Fatalf("%d dies vs area bound %.0f", len(dies), areaRatio)
	}
}

func TestSitesPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("must panic")
		}
	}()
	Geometry{Radius: 0, DieW: 1, DieH: 1}.Sites()
}

func TestUniformWaferMatchesLotStatistics(t *testing.T) {
	list := testFaults(t)
	g := Geometry{Radius: 300, DieW: 6, DieH: 6}
	m := Simulate(g, list, allDetected(len(list.Faults)), 1, Uniform(), 4)
	// Uniform profile at λ from the list: yield ≈ 0.75.
	if math.Abs(m.Yield()-0.75) > 0.02 {
		t.Fatalf("wafer yield %.4f, want ≈0.75", m.Yield())
	}
	// Everything detected ⇒ zero escapes.
	if m.DefectLevel() != 0 {
		t.Fatal("full detection must ship clean")
	}
}

func TestEdgeDegradedProfile(t *testing.T) {
	p := EdgeDegraded(4)
	if p(0) != 1 || math.Abs(p(1)-4) > 1e-12 {
		t.Fatalf("profile endpoints: %g, %g", p(0), p(1))
	}
	if p(0.5) <= p(0.2) {
		t.Fatal("profile must increase outward")
	}

	list := testFaults(t)
	g := Geometry{Radius: 300, DieW: 6, DieH: 6}
	m := Simulate(g, list, allDetected(len(list.Faults)), 1, p, 9)
	zones := m.ZoneYields(4)
	if len(zones) != 4 {
		t.Fatal("zone count")
	}
	if zones[0] <= zones[3] {
		t.Fatalf("edge zone must yield worse than center: %v", zones)
	}
	// Overall yield sits below the flat-profile wafer.
	flat := Simulate(g, list, allDetected(len(list.Faults)), 1, Uniform(), 9)
	if m.Yield() >= flat.Yield() {
		t.Fatalf("edge degradation must cost yield: %.4f vs %.4f", m.Yield(), flat.Yield())
	}
}

func TestEscapesAppearWithImperfectTest(t *testing.T) {
	list := testFaults(t)
	det := make([]int, len(list.Faults)) // nothing detected
	g := Geometry{Radius: 200, DieW: 8, DieH: 8}
	m := Simulate(g, list, det, 1, Uniform(), 5)
	var detected, escapes int
	for _, s := range m.Status {
		switch s {
		case StatusDetected:
			detected++
		case StatusEscape:
			escapes++
		}
	}
	if detected != 0 {
		t.Fatal("nothing is detectable")
	}
	if escapes == 0 {
		t.Fatal("faulty dies must escape an empty test")
	}
	// DL = 1 − Y when nothing is tested.
	if math.Abs(m.DefectLevel()-(1-m.Yield())) > 1e-12 {
		t.Fatal("untested wafer: DL must equal 1−Y")
	}
}

func TestRenderMap(t *testing.T) {
	list := testFaults(t)
	g := Geometry{Radius: 80, DieW: 8, DieH: 8}
	m := Simulate(g, list, allDetected(len(list.Faults)), 1, EdgeDegraded(3), 6)
	s := m.Render()
	if !strings.Contains(s, ".") || !strings.Contains(s, "yield") {
		t.Fatalf("render:\n%s", s)
	}
	empty := &Map{}
	if !strings.Contains(empty.Render(), "empty") {
		t.Fatal("empty map render")
	}
}

func TestSimulatePanicsOnMismatch(t *testing.T) {
	list := testFaults(t)
	defer func() {
		if recover() == nil {
			t.Fatal("must panic")
		}
	}()
	Simulate(Geometry{Radius: 50, DieW: 5, DieH: 5}, list, make([]int, 2), 1, Uniform(), 1)
}

// TestSimulatePinned pins the wafer sampler's exact die dispositions at a
// fixed seed for the flat and the edge-degraded profile.
func TestSimulatePinned(t *testing.T) {
	list := testFaults(t)
	detectedAt := make([]int, len(list.Faults))
	for i := range detectedAt {
		if i%3 != 0 {
			detectedAt[i] = 1 + i%4
		}
	}
	g := Geometry{Radius: 150, DieW: 7, DieH: 7, EdgeExclusion: 4}
	for _, tc := range []struct {
		name    string
		profile RadialProfile
		want    [3]int // good, detected, escape
	}{
		{"uniform", Uniform(), [3]int{983, 168, 140}},
		{"edge-degraded", EdgeDegraded(3), [3]int{763, 297, 231}},
	} {
		m := Simulate(g, list, detectedAt, 3, tc.profile, 21)
		var got [3]int
		for _, s := range m.Status {
			got[s]++
		}
		if got != tc.want {
			t.Errorf("%s: status counts (good, detected, escape) = %v, want %v", tc.name, got, tc.want)
		}
	}
}
