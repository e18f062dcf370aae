// Package defect models the spot-defect statistics of a CMOS process line:
// defect types (extra or missing material per mask layer, missing cuts),
// per-type densities, and the classical peaked defect-size distribution.
// These statistics drive fault weighting in the extraction step — the paper
// uses "defect density statistics similar to the ones given in [23, 21]"
// (Maly), which this package encodes with tunable parameters.
package defect

import (
	"fmt"
	"math"
	"math/rand"

	"defectsim/internal/geom"
)

// Type identifies a spot-defect mechanism.
type Type uint8

// Spot-defect mechanisms. Extra-material defects on conducting layers cause
// bridges (shorts); missing-material defects cause opens; missing cuts open
// the vertical connection they implement.
const (
	ExtraPoly Type = iota
	ExtraMetal1
	ExtraMetal2
	ExtraActive
	MissingPoly
	MissingMetal1
	MissingMetal2
	MissingActive
	MissingContact
	MissingVia
	NumTypes
)

var typeNames = [NumTypes]string{
	"extra-poly", "extra-metal1", "extra-metal2", "extra-active",
	"missing-poly", "missing-metal1", "missing-metal2", "missing-active",
	"missing-contact", "missing-via",
}

// String returns the conventional defect-type name.
func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("defect(%d)", uint8(t))
}

// Bridge reports whether the defect type causes shorts (extra material on a
// conducting layer).
func (t Type) Bridge() bool { return t <= ExtraActive }

// Open reports whether the defect type causes opens.
func (t Type) Open() bool { return !t.Bridge() }

// Layer returns the mask layer the defect type acts on. Missing cuts return
// the cut layer itself.
func (t Type) Layer() geom.Layer {
	switch t {
	case ExtraPoly, MissingPoly:
		return geom.LayerPoly
	case ExtraMetal1, MissingMetal1:
		return geom.LayerMetal1
	case ExtraMetal2, MissingMetal2:
		return geom.LayerMetal2
	case ExtraActive, MissingActive:
		return geom.LayerNDiff // active defects are checked on both diffusions
	case MissingContact:
		return geom.LayerContact
	case MissingVia:
		return geom.LayerVia
	}
	panic("defect: bad type")
}

// SizeDist is the classical normalized spot-defect size density
//
//	f(x) = x/x0²          0 ≤ x ≤ x0
//	f(x) = x0²/x³         x > x0
//
// peaking at the resolution limit X0 with the empirical 1/x³ tail
// (Stapper / Ferris-Prabhu). Sizes are in λ.
type SizeDist struct {
	X0 float64 // peak (most likely) defect diameter, λ
}

// PDF returns f(x).
func (d SizeDist) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x <= d.X0 {
		return x / (d.X0 * d.X0)
	}
	return d.X0 * d.X0 / (x * x * x)
}

// CDF returns P(size ≤ x).
func (d SizeDist) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x <= d.X0 {
		return x * x / (2 * d.X0 * d.X0)
	}
	return 1 - d.X0*d.X0/(2*x*x)
}

// Sample draws a defect size using inverse-transform sampling.
func (d SizeDist) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	if u < 0.5 {
		return d.X0 * math.Sqrt(2*u)
	}
	return d.X0 / math.Sqrt(2*(1-u))
}

// Class groups the parameters of one defect mechanism.
type Class struct {
	Type Type
	// Density is the average number of defects of this type per 10⁶ λ² of
	// chip area (the absolute scale only matters up to the yield-scaling
	// step of the extraction pipeline).
	Density float64
	Size    SizeDist
}

// Statistics is the full spot-defect characterization of a process line.
type Statistics struct {
	Classes [NumTypes]Class
	// MaxSize truncates critical-area integration: defects larger than this
	// (λ) are ignored (their probability mass is negligible under the 1/x³
	// tail).
	MaxSize int
}

// Typical returns bridging-dominant statistics representative of the
// positive-photoresist CMOS lines discussed in the paper (§2: "when
// bridging faults are dominant ... positive photoresist technology"):
// extra-material densities well above missing-material densities, metal1
// dirtiest, and a 2λ resolution-limit peak.
func Typical() Statistics {
	mk := func(t Type, density, x0 float64) Class {
		return Class{Type: t, Density: density, Size: SizeDist{X0: x0}}
	}
	var s Statistics
	s.MaxSize = 24
	s.Classes[ExtraPoly] = mk(ExtraPoly, 0.9, 2)
	s.Classes[ExtraMetal1] = mk(ExtraMetal1, 1.6, 3)
	s.Classes[ExtraMetal2] = mk(ExtraMetal2, 0.8, 3)
	s.Classes[ExtraActive] = mk(ExtraActive, 0.4, 2)
	s.Classes[MissingPoly] = mk(MissingPoly, 0.25, 2)
	s.Classes[MissingMetal1] = mk(MissingMetal1, 0.35, 3)
	s.Classes[MissingMetal2] = mk(MissingMetal2, 0.20, 3)
	s.Classes[MissingActive] = mk(MissingActive, 0.10, 2)
	s.Classes[MissingContact] = mk(MissingContact, 0.05, 2)
	s.Classes[MissingVia] = mk(MissingVia, 0.06, 2)
	return s
}

// OpensDominant returns statistics with the extra/missing balance flipped —
// used by ablation experiments to show how the susceptibility ratio R moves
// when open faults dominate the defect mix.
func OpensDominant() Statistics {
	s := Typical()
	for t := Type(0); t < NumTypes; t++ {
		c := &s.Classes[t]
		switch {
		case t.Bridge():
			c.Density *= 0.2
		default:
			c.Density *= 5
		}
	}
	return s
}

// Scale returns a copy with every density multiplied by f (yield knob).
func (s Statistics) Scale(f float64) Statistics {
	for t := range s.Classes {
		s.Classes[t].Density *= f
	}
	return s
}

// TotalDensity returns the summed defect density over all types
// (defects / 10⁶ λ²).
func (s Statistics) TotalDensity() float64 {
	var d float64
	for _, c := range s.Classes {
		d += c.Density
	}
	return d
}

// Sample draws one random defect: its type (by density weight), size, and a
// uniform position inside area. Used by the Monte-Carlo validation
// experiments.
func (s Statistics) Sample(rng *rand.Rand, area geom.Rect) (Type, float64, geom.Point) {
	r := rng.Float64() * s.TotalDensity()
	var t Type
	for i, c := range s.Classes {
		if r < c.Density {
			t = Type(i)
			break
		}
		r -= c.Density
	}
	size := s.Classes[t].Size.Sample(rng)
	p := geom.Point{
		X: area.X0 + rng.Intn(area.W()+1),
		Y: area.Y0 + rng.Intn(area.H()+1),
	}
	return t, size, p
}
