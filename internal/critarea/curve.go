package critarea

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync"

	"defectsim/internal/geom"
)

// core is what one shape of each set contributes to a short critical
// area, in half-λ units. Dilating both shapes by x/2 λ (x half-λ) makes
// them overlap in exactly the core grown by x on every side. The core is
// the overlap of the undilated shapes; where they are apart it is inverted
// (x0 > x1 or y0 > y1) by twice the gap, so the grown core has area only
// from the size minX = 1 + the larger per-axis gap on.
type core struct {
	x0, y0, x1, y1 int
	minX           int
}

// sided is a rect of set a (side 0) or set b (side 1).
type sided struct {
	r    geom.Rect
	side uint8
}

// edge is where a core's grown rect starts (pos = x0) or ends (pos = x1)
// along x, before growing; rank is the core's index in y0 order.
type edge struct {
	pos, minX, rank int
}

// curve computes one shape-set pair's short critical area at every defect
// size from cores built once. It is scratch space: AvgShortArea takes one
// from curvePool, so the buffers are reused across pairs.
type curve struct {
	rects  []sided
	cores  []core   // in y0 order
	starts []edge   // by x0
	ends   []edge   // by x1
	active []uint64 // bit r set: cores[r] spans the current slab
	minX   int      // smallest minX over the cores
}

var curvePool = sync.Pool{New: func() any { return new(curve) }}

// build collects the cores of every shape pair of a×b that a defect of
// side maxSize or less can short. As in geom.ConnectTouching, a sort by X0
// lets the pair scan stop at the first shape whose x-gap is out of reach.
func (c *curve) build(a, b []geom.Rect, maxSize int) {
	c.rects = c.rects[:0]
	for _, r := range a {
		c.rects = append(c.rects, sided{r, 0})
	}
	for _, r := range b {
		c.rects = append(c.rects, sided{r, 1})
	}
	slices.SortFunc(c.rects, func(p, q sided) int { return cmp.Compare(p.r.X0, q.r.X0) })
	c.cores = c.cores[:0]
	for i, p := range c.rects {
		for _, q := range c.rects[i+1:] {
			if q.r.X0-p.r.X1 >= maxSize {
				break // the x-gap only grows from here
			}
			if q.side == p.side {
				continue
			}
			k := core{
				x0: 2 * max(p.r.X0, q.r.X0), y0: 2 * max(p.r.Y0, q.r.Y0),
				x1: 2 * min(p.r.X1, q.r.X1), y1: 2 * min(p.r.Y1, q.r.Y1),
			}
			k.minX = max(1, (k.x0-k.x1)/2+1, (k.y0-k.y1)/2+1)
			if k.minX <= maxSize {
				c.cores = append(c.cores, k)
			}
		}
	}
	// Growing every core by the same x keeps the y0, x0 and x1 orders, so
	// they are sorted once and serve every size.
	slices.SortFunc(c.cores, func(p, q core) int { return cmp.Compare(p.y0, q.y0) })
	c.starts, c.ends = c.starts[:0], c.ends[:0]
	c.minX = math.MaxInt
	for r, k := range c.cores {
		c.starts = append(c.starts, edge{k.x0, k.minX, r})
		c.ends = append(c.ends, edge{k.x1, k.minX, r})
		c.minX = min(c.minX, k.minX)
	}
	byPos := func(p, q edge) int { return cmp.Compare(p.pos, q.pos) }
	slices.SortFunc(c.starts, byPos)
	slices.SortFunc(c.ends, byPos)
	words := (len(c.cores) + 63) / 64
	c.active = slices.Grow(c.active[:0], words)[:words]
}

// area returns the exact area, in quarter-λ², of the union of the cores
// that have area at size x, each grown by x: area((A ⊕ x/2) ∩ (B ⊕ x/2)),
// the integer geom.UnionArea finds for ShortArea. A sweep along x merges
// the start and end edges; between two edges the covered length is the
// union of the active cores' y-intervals, walked in y0 order.
func (c *curve) area(x int) int64 {
	if x < c.minX {
		return 0
	}
	var total int64
	clear(c.active)
	starts, ends, prev := c.starts, c.ends, 0
	for {
		for len(starts) > 0 && starts[0].minX > x {
			starts = starts[1:]
		}
		for len(ends) > 0 && ends[0].minX > x {
			ends = ends[1:]
		}
		if len(ends) == 0 {
			return total
		}
		at := ends[0].pos + x
		if len(starts) > 0 {
			at = min(at, starts[0].pos-x)
		}
		if at > prev {
			total += c.spanY(x) * int64(at-prev)
		}
		prev = at
		for ; len(ends) > 0; ends = ends[1:] {
			if e := ends[0]; e.minX <= x {
				if e.pos+x != at {
					break
				}
				c.active[e.rank>>6] &^= 1 << (e.rank & 63)
			}
		}
		for ; len(starts) > 0; starts = starts[1:] {
			if s := starts[0]; s.minX <= x {
				if s.pos-x != at {
					break
				}
				c.active[s.rank>>6] |= 1 << (s.rank & 63)
			}
		}
	}
}

// spanY is the length of the union of the active cores' y-intervals at
// size x.
func (c *curve) spanY(x int) int64 {
	var span int64
	lo, hi := 0, math.MinInt
	for wi, w := range c.active {
		for ; w != 0; w &= w - 1 {
			k := &c.cores[wi<<6+bits.TrailingZeros64(w)]
			y0, y1 := k.y0-x, k.y1+x
			if y0 > hi {
				if hi > lo {
					span += int64(hi - lo)
				}
				lo, hi = y0, y1
				continue
			}
			hi = max(hi, y1)
		}
	}
	if hi > lo {
		span += int64(hi - lo)
	}
	return span
}
