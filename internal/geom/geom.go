// Package geom provides the rectilinear geometry primitives used by the
// layout, critical-area and fault-extraction packages.
//
// All coordinates are integers in λ (lambda) units, the scalable design-rule
// unit of the classic Mead–Conway methodology. Mask shapes are axis-aligned
// rectangles; more complex rectilinear polygons are represented as sets of
// (possibly overlapping) rectangles. The package supplies the operations the
// defect-level pipeline needs:
//
//   - rectangle algebra (intersection, expansion, containment),
//   - exact union area of a rectangle set (coordinate-compression sweep),
//   - pairwise intersection of rectangle sets,
//   - connectivity of touching shapes (union–find), used by the layout
//     extractor to recover electrical nets from mask geometry,
//   - bounding boxes and distance queries used by the critical-area engine.
package geom

import (
	"fmt"
	"sort"
)

// Layer identifies a mask layer of the 2-metal CMOS process modeled by this
// library. The set matches the layers the paper's lift extractor works on.
type Layer uint8

// Mask layers, ordered roughly bottom-up in the process stack.
const (
	LayerNWell   Layer = iota
	LayerPDiff         // p+ diffusion (PMOS source/drain)
	LayerNDiff         // n+ diffusion (NMOS source/drain)
	LayerPoly          // polysilicon (transistor gates, short wires)
	LayerContact       // diffusion/poly to metal1 contact cut
	LayerMetal1
	LayerVia // metal1 to metal2 via cut
	LayerMetal2
	NumLayers // number of mask layers; keep last
)

var layerNames = [NumLayers]string{
	"nwell", "pdiff", "ndiff", "poly", "contact", "metal1", "via", "metal2",
}

// String returns the conventional lowercase layer name.
func (l Layer) String() string {
	if int(l) < len(layerNames) {
		return layerNames[l]
	}
	return fmt.Sprintf("layer(%d)", uint8(l))
}

// Conducting reports whether the layer carries signal current and can
// therefore participate in bridge (short) faults. Cut layers (contact, via)
// and implant wells do not bridge by extra material in this model; their
// defect mechanism is handled separately (missing-material opens on cuts).
func (l Layer) Conducting() bool {
	switch l {
	case LayerPDiff, LayerNDiff, LayerPoly, LayerMetal1, LayerMetal2:
		return true
	}
	return false
}

// Point is a location in λ units.
type Point struct {
	X, Y int
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Rect is a closed axis-aligned rectangle [X0,X1]×[Y0,Y1] in λ units.
// A Rect is valid when X0 <= X1 and Y0 <= Y1; a degenerate rectangle with
// zero width or height has zero area but can still touch other shapes.
type Rect struct {
	X0, Y0, X1, Y1 int
}

// R is shorthand for constructing a normalized Rect from two corners.
func R(x0, y0, x1, y1 int) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{x0, y0, x1, y1}
}

// Valid reports whether r is normalized (non-negative extents).
func (r Rect) Valid() bool { return r.X0 <= r.X1 && r.Y0 <= r.Y1 }

// Empty reports whether r has zero area.
func (r Rect) Empty() bool { return r.X0 >= r.X1 || r.Y0 >= r.Y1 }

// W returns the width of r.
func (r Rect) W() int { return r.X1 - r.X0 }

// H returns the height of r.
func (r Rect) H() int { return r.Y1 - r.Y0 }

// Area returns the area of r in λ².
func (r Rect) Area() int64 {
	if r.Empty() {
		return 0
	}
	return int64(r.W()) * int64(r.H())
}

// MinDim returns the smaller of width and height (the "drawn width" of a
// wire segment, relevant for open-circuit critical areas).
func (r Rect) MinDim() int {
	if w, h := r.W(), r.H(); w < h {
		return w
	}
	return r.H()
}

// MaxDim returns the larger of width and height.
func (r Rect) MaxDim() int {
	if w, h := r.W(), r.H(); w > h {
		return w
	}
	return r.H()
}

// Translate returns r shifted by (dx, dy).
func (r Rect) Translate(dx, dy int) Rect {
	return Rect{r.X0 + dx, r.Y0 + dy, r.X1 + dx, r.Y1 + dy}
}

// Expand returns r grown by d on every side. A negative d shrinks r; the
// result may be invalid (use Valid to check) when shrinking past the center.
func (r Rect) Expand(d int) Rect {
	return Rect{r.X0 - d, r.Y0 - d, r.X1 + d, r.Y1 + d}
}

// Intersect returns the intersection of r and s. If the rectangles do not
// overlap the result is not Valid or is Empty.
func (r Rect) Intersect(s Rect) Rect {
	return Rect{
		max(r.X0, s.X0), max(r.Y0, s.Y0),
		min(r.X1, s.X1), min(r.Y1, s.Y1),
	}
}

// Overlaps reports whether r and s share interior area.
func (r Rect) Overlaps(s Rect) bool {
	return r.X0 < s.X1 && s.X0 < r.X1 && r.Y0 < s.Y1 && s.Y0 < r.Y1
}

// Touches reports whether r and s share at least a boundary point (abutting
// rectangles touch; this is the connectivity predicate for mask shapes).
func (r Rect) Touches(s Rect) bool {
	return r.X0 <= s.X1 && s.X0 <= r.X1 && r.Y0 <= s.Y1 && s.Y0 <= r.Y1
}

// Contains reports whether p lies in the closed rectangle r.
func (r Rect) Contains(p Point) bool {
	return r.X0 <= p.X && p.X <= r.X1 && r.Y0 <= p.Y && p.Y <= r.Y1
}

// ContainsRect reports whether s lies entirely inside the closed rectangle r.
func (r Rect) ContainsRect(s Rect) bool {
	return r.X0 <= s.X0 && s.X1 <= r.X1 && r.Y0 <= s.Y0 && s.Y1 <= r.Y1
}

// Union returns the bounding box of r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		min(r.X0, s.X0), min(r.Y0, s.Y0),
		max(r.X1, s.X1), max(r.Y1, s.Y1),
	}
}

// GapTo returns the rectilinear (Chebyshev-style per-axis) gap between r and
// s: dx and dy are the empty distances along each axis (zero when the
// projections overlap). Two shapes can be shorted by a square defect of side
// d iff d > max(dx, dy) ... see critarea for the precise predicate.
func (r Rect) GapTo(s Rect) (dx, dy int) {
	if s.X0 > r.X1 {
		dx = s.X0 - r.X1
	} else if r.X0 > s.X1 {
		dx = r.X0 - s.X1
	}
	if s.Y0 > r.Y1 {
		dy = s.Y0 - r.Y1
	} else if r.Y0 > s.Y1 {
		dy = r.Y0 - s.Y1
	}
	return dx, dy
}

func (r Rect) String() string {
	return fmt.Sprintf("(%d,%d)-(%d,%d)", r.X0, r.Y0, r.X1, r.Y1)
}

// BoundingBox returns the smallest rectangle covering all rects. It returns
// a zero Rect and false when rects is empty.
func BoundingBox(rects []Rect) (Rect, bool) {
	if len(rects) == 0 {
		return Rect{}, false
	}
	bb := rects[0]
	for _, r := range rects[1:] {
		bb = bb.Union(r)
	}
	return bb, true
}

// UnionArea returns the exact area of the union of rects, counting each
// covered point once even where rectangles overlap. It uses coordinate
// compression with a vertical sweep: O(n² log n) worst case, which is ample
// for the per-net shape sets handled by the critical-area engine.
func UnionArea(rects []Rect) int64 {
	// Collect distinct x coordinates of non-empty rectangles.
	xs := make([]int, 0, 2*len(rects))
	for _, r := range rects {
		if r.Empty() {
			continue
		}
		xs = append(xs, r.X0, r.X1)
	}
	if len(xs) == 0 {
		return 0
	}
	sort.Ints(xs)
	xs = dedupInts(xs)

	var total int64
	// For each vertical slab, merge the y-intervals of rectangles spanning it.
	ys := make([][2]int, 0, len(rects))
	for i := 0; i+1 < len(xs); i++ {
		xa, xb := xs[i], xs[i+1]
		ys = ys[:0]
		for _, r := range rects {
			if r.Empty() || r.X0 > xa || r.X1 < xb {
				continue
			}
			ys = append(ys, [2]int{r.Y0, r.Y1})
		}
		if len(ys) == 0 {
			continue
		}
		sort.Slice(ys, func(a, b int) bool { return ys[a][0] < ys[b][0] })
		covered := int64(0)
		curLo, curHi := ys[0][0], ys[0][1]
		for _, iv := range ys[1:] {
			if iv[0] > curHi {
				covered += int64(curHi - curLo)
				curLo, curHi = iv[0], iv[1]
				continue
			}
			if iv[1] > curHi {
				curHi = iv[1]
			}
		}
		covered += int64(curHi - curLo)
		total += covered * int64(xb-xa)
	}
	return total
}

// IntersectSets returns the pairwise intersections of the rectangles in a
// and b, dropping empty results. The union area of the returned set is the
// area of (∪a) ∩ (∪b).
func IntersectSets(a, b []Rect) []Rect {
	var out []Rect
	for _, ra := range a {
		if ra.Empty() {
			continue
		}
		for _, rb := range b {
			x := ra.Intersect(rb)
			if x.Valid() && !x.Empty() {
				out = append(out, x)
			}
		}
	}
	return out
}

// ExpandSet returns every rectangle in rects grown by d on all sides.
func ExpandSet(rects []Rect, d int) []Rect {
	out := make([]Rect, 0, len(rects))
	for _, r := range rects {
		e := r.Expand(d)
		if e.Valid() {
			out = append(out, e)
		}
	}
	return out
}

func dedupInts(xs []int) []int {
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
