// Package wafer adds the spatial dimension to yield simulation: dies on a
// circular wafer, radially varying defect density (edge degradation, the
// classic signature of process non-uniformity), per-die fault sampling
// from a weighted fault list, and ASCII wafer maps — the yield engineer's
// view of the same statistics the defect-level models abstract into Y and
// DL.
package wafer

import (
	"fmt"
	"math"
	"strings"

	"defectsim/internal/fault"
	"defectsim/internal/montecarlo"
)

// Geometry describes the wafer and die dimensions (arbitrary common unit).
type Geometry struct {
	Radius     float64
	DieW, DieH float64
	// EdgeExclusion keeps dies whose far corner exceeds Radius−EdgeExclusion
	// off the map.
	EdgeExclusion float64
}

// Die is one wafer site.
type Die struct {
	Col, Row int
	X, Y     float64 // center coordinates, wafer origin at the center
	R        float64 // radial distance of the center
}

// Sites enumerates the dies fully inside the usable wafer area, row-major.
func (g Geometry) Sites() []Die {
	if g.Radius <= 0 || g.DieW <= 0 || g.DieH <= 0 {
		panic("wafer: non-positive geometry")
	}
	usable := g.Radius - g.EdgeExclusion
	var dies []Die
	nx := int(2 * g.Radius / g.DieW)
	ny := int(2 * g.Radius / g.DieH)
	for row := 0; row <= ny; row++ {
		for col := 0; col <= nx; col++ {
			cx := (float64(col)+0.5)*g.DieW - g.Radius
			cy := (float64(row)+0.5)*g.DieH - g.Radius
			// The die's farthest corner must stay inside the usable disc.
			dx := math.Abs(cx) + g.DieW/2
			dy := math.Abs(cy) + g.DieH/2
			if math.Hypot(dx, dy) > usable {
				continue
			}
			dies = append(dies, Die{Col: col, Row: row, X: cx, Y: cy, R: math.Hypot(cx, cy)})
		}
	}
	return dies
}

// RadialProfile maps a normalized radius (0 at center, 1 at the usable
// edge) to a defect-density multiplier.
type RadialProfile func(rNorm float64) float64

// Uniform is the flat profile.
func Uniform() RadialProfile { return func(float64) float64 { return 1 } }

// EdgeDegraded returns the classic quadratic edge profile: multiplier 1 at
// the center rising to edgeFactor at the usable edge.
func EdgeDegraded(edgeFactor float64) RadialProfile {
	return func(r float64) float64 { return 1 + (edgeFactor-1)*r*r }
}

// Status classifies a die after test.
type Status = montecarlo.Status

// Die dispositions.
const (
	StatusGood     = montecarlo.Good
	StatusDetected = montecarlo.Detected
	StatusEscape   = montecarlo.Escape
)

// Map is a simulated, tested wafer.
type Map struct {
	Geometry Geometry
	Dies     []Die
	Status   []Status
}

// Simulate manufactures one wafer: each die's fault count is Poisson with
// rate λ·profile(r/rUsable) (λ = the fault list's total weight, i.e. the
// per-die average of the flat process), faults are drawn from the weighted
// list, and the first k vectors of the campaign disposition the die.
func Simulate(g Geometry, list *fault.List, detectedAt []int, k int, profile RadialProfile, seed int64) *Map {
	s := montecarlo.NewSampler(list, detectedAt, k, seed)
	usable := g.Radius - g.EdgeExclusion
	m := &Map{Geometry: g, Dies: g.Sites()}
	m.Status = make([]Status, len(m.Dies))
	for i, d := range m.Dies {
		m.Status[i] = s.Die(s.Lambda() * profile(d.R/usable))
	}
	return m
}

// Yield returns the fraction of fault-free dies.
func (m *Map) Yield() float64 {
	good := 0
	for _, s := range m.Status {
		if s == StatusGood {
			good++
		}
	}
	if len(m.Status) == 0 {
		return 0
	}
	return float64(good) / float64(len(m.Status))
}

// DefectLevel returns escapes over shipped dies.
func (m *Map) DefectLevel() float64 {
	shipped, escapes := 0, 0
	for _, s := range m.Status {
		if s != StatusDetected {
			shipped++
			if s == StatusEscape {
				escapes++
			}
		}
	}
	if shipped == 0 {
		return 0
	}
	return float64(escapes) / float64(shipped)
}

// ZoneYields returns the yield per concentric radial zone (equal-width
// rings), center first.
func (m *Map) ZoneYields(zones int) []float64 {
	if zones < 1 {
		zones = 1
	}
	usable := m.Geometry.Radius - m.Geometry.EdgeExclusion
	good := make([]int, zones)
	total := make([]int, zones)
	for i, d := range m.Dies {
		z := int(d.R / usable * float64(zones))
		if z >= zones {
			z = zones - 1
		}
		total[z]++
		if m.Status[i] == StatusGood {
			good[z]++
		}
	}
	out := make([]float64, zones)
	for z := range out {
		if total[z] > 0 {
			out[z] = float64(good[z]) / float64(total[z])
		}
	}
	return out
}

// Render draws the wafer map: '.' good, 'x' detected, 'E' escape, spaces
// outside the wafer.
func (m *Map) Render() string {
	if len(m.Dies) == 0 {
		return "(empty wafer)\n"
	}
	maxCol, maxRow := 0, 0
	for _, d := range m.Dies {
		if d.Col > maxCol {
			maxCol = d.Col
		}
		if d.Row > maxRow {
			maxRow = d.Row
		}
	}
	grid := make([][]byte, maxRow+1)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", maxCol+1))
	}
	for i, d := range m.Dies {
		ch := byte('.')
		switch m.Status[i] {
		case StatusDetected:
			ch = 'x'
		case StatusEscape:
			ch = 'E'
		}
		grid[d.Row][d.Col] = ch
	}
	var b strings.Builder
	for r := maxRow; r >= 0; r-- {
		b.Write(grid[r])
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%d dies: yield %.3f, DL %.0f ppm ('.' good, 'x' scrapped, 'E' escape)\n",
		len(m.Dies), m.Yield(), 1e6*m.DefectLevel())
	return b.String()
}
