// Package critarea computes critical areas: the chip area in which the
// center of a spot defect of a given size must fall to cause a fault
// (Stapper's construction). Together with defect densities these yield the
// fault weights w = A·D of the paper's equations (4)–(6).
//
// Defects are modeled as squares of side x (λ). For a short between two
// shape sets, the critical area is area((A ⊕ x/2) ∩ (B ⊕ x/2)) — a defect
// bridges the sets iff its center lies where the two dilations intersect.
// For an open on a wire of drawn width w, a missing-material defect of size
// x > w severs the wire when its center lies in a band of height (x−w)
// along the wire: A(x) = L·(x−w).
//
// Average critical areas integrate A(x) against the defect-size density of
// package defect. ShortArea evaluates one size the direct way: dilate,
// intersect pairwise, take the union's area. AvgShortArea needs the whole
// curve x = 1…maxSize and gets it in one pass: the dilations of two rects
// intersect in a fixed "core" rect grown by x, so the cores of the shape
// pairs within reach are built once and only grown and swept per size.
// Both work in half-λ coordinates, so every area is an exact integer count
// of quarter-λ², and both sum the sizes in the same order: the one-pass
// average equals Average over ShortArea bit for bit.
package critarea

import (
	"defectsim/internal/defect"
	"defectsim/internal/geom"
)

// ShortArea returns the critical area (λ²) for a defect of side x to short
// the two shape sets a and b. Computation is exact: shapes are scaled to
// half-λ units so that dilation by x/2 stays integral.
func ShortArea(a, b []geom.Rect, x int) float64 {
	if x <= 0 || len(a) == 0 || len(b) == 0 {
		return 0
	}
	ea := dilate(a, x)
	eb := dilate(b, x)
	inter := geom.IntersectSets(ea, eb)
	return float64(geom.UnionArea(inter)) / 4 // quarter-λ² → λ²
}

// dilate scales rects to half-λ units and grows them by x half-λ (= x/2 λ).
func dilate(rects []geom.Rect, x int) []geom.Rect {
	out := make([]geom.Rect, 0, len(rects))
	for _, r := range rects {
		out = append(out, geom.Rect{
			X0: 2*r.X0 - x, Y0: 2*r.Y0 - x,
			X1: 2*r.X1 + x, Y1: 2*r.Y1 + x,
		})
	}
	return out
}

// OpenArea returns the critical area (λ²) for a missing-material defect of
// side x to sever any wire rectangle in rects. Each rectangle is treated as
// a wire of width MinDim and length MaxDim; end effects are ignored (the
// standard first-order model).
func OpenArea(rects []geom.Rect, x int) float64 {
	if x <= 0 {
		return 0
	}
	var area float64
	for _, r := range rects {
		w := r.MinDim()
		if x <= w {
			continue
		}
		l := r.MaxDim()
		area += float64(l) * float64(x-w)
	}
	return area
}

// CutOpenArea returns the critical area for missing-cut defects over the
// given contact/via cuts: a defect of side x ≥ the cut size centered within
// the cut kills it. First order: A(x) = (cut side)² for x ≥ side.
func CutOpenArea(cuts []geom.Rect, x int) float64 {
	var area float64
	for _, c := range cuts {
		if x >= c.MinDim() {
			area += float64(c.Area())
		}
	}
	return area
}

// Average integrates sizeArea(x)·f(x) over defect sizes 1..maxSize using
// the midpoint rule with Δx = 1. The result has units λ² and is the
// size-averaged critical area A of the fault.
func Average(dist defect.SizeDist, maxSize int, sizeArea func(x int) float64) float64 {
	var avg float64
	for x := 1; x <= maxSize; x++ {
		avg += dist.PDF(float64(x)) * sizeArea(x)
	}
	return avg
}

// AvgShortArea is the size-averaged critical area for shorting a and b:
// Average over ShortArea, bit for bit, computed from the shape pairs'
// cores in one pass (see the package doc).
func AvgShortArea(a, b []geom.Rect, dist defect.SizeDist, maxSize int) float64 {
	c := curvePool.Get().(*curve)
	defer curvePool.Put(c)
	c.build(a, b, maxSize)
	return Average(dist, maxSize, func(x int) float64 {
		return float64(c.area(x)) / 4 // quarter-λ² → λ²
	})
}

// AvgOpenArea is the size-averaged critical area for severing rects.
func AvgOpenArea(rects []geom.Rect, dist defect.SizeDist, maxSize int) float64 {
	return Average(dist, maxSize, func(x int) float64 { return OpenArea(rects, x) })
}

// AvgCutOpenArea is the size-averaged critical area for killing cuts.
func AvgCutOpenArea(cuts []geom.Rect, dist defect.SizeDist, maxSize int) float64 {
	return Average(dist, maxSize, func(x int) float64 { return CutOpenArea(cuts, x) })
}
