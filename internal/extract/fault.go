package extract

import (
	"cmp"
	"context"
	"math"
	"slices"

	"defectsim/internal/critarea"
	"defectsim/internal/defect"
	"defectsim/internal/fault"
	"defectsim/internal/faultinject"
	"defectsim/internal/geom"
	"defectsim/internal/layout"
	"defectsim/internal/obs"
)

// densityScale converts defect densities (per 10⁶ λ²) times critical areas
// (λ²) into expected defect counts.
const densityScale = 1e-6

// bridgeLayers lists, per extra-material defect class, the layers whose
// shapes it can short together (in a fixed order so that floating-point
// accumulation is deterministic). Active spot defects bridge both
// diffusion polarities.
var bridgeLayers = []struct {
	dt     defect.Type
	layers []geom.Layer
}{
	{defect.ExtraPoly, []geom.Layer{geom.LayerPoly}},
	{defect.ExtraMetal1, []geom.Layer{geom.LayerMetal1}},
	{defect.ExtraMetal2, []geom.Layer{geom.LayerMetal2}},
	{defect.ExtraActive, []geom.Layer{geom.LayerNDiff, geom.LayerPDiff}},
}

// openLayers lists wire layers with their missing-material defect class, in
// deterministic order.
var openLayers = []struct {
	layer geom.Layer
	dt    defect.Type
}{
	{geom.LayerPoly, defect.MissingPoly},
	{geom.LayerMetal1, defect.MissingMetal1},
	{geom.LayerMetal2, defect.MissingMetal2},
	{geom.LayerNDiff, defect.MissingActive},
	{geom.LayerPDiff, defect.MissingActive},
}

// cutLayers lists cut layers with their missing-cut defect class.
var cutLayers = []struct {
	layer geom.Layer
	dt    defect.Type
}{
	{geom.LayerContact, defect.MissingContact},
	{geom.LayerVia, defect.MissingVia},
}

// Faults performs inductive fault analysis on L: every extra-material
// defect class contributes bridge faults between net pairs that come within
// the maximum defect size, and every missing-material/cut class contributes
// open faults, attributed either to a specific receiving gate input
// (KindOpenInput — the input's pad/stub/poly branch) or to the net trunk
// (KindOpenDriver — tracks, feedthroughs, driver straps and diffusion).
// Fault weights are size-averaged critical areas times class densities
// (w = A·D, paper eq. 4). Power nets contribute bridges (a signal shorted
// to a rail is a classic stuck-like defect) but not opens (rails are wide
// and redundant).
func Faults(L *layout.Layout, stats defect.Statistics) *fault.List {
	return FaultsObs(L, stats, nil)
}

// FaultsCtx is FaultsObs with cancellation: the context is consulted on
// entry (extraction of one layout is a single bounded unit of work) and
// the extract.faults fault-injection hook fires before any analysis.
func FaultsCtx(ctx context.Context, L *layout.Layout, stats defect.Statistics, reg *obs.Registry) (*fault.List, error) {
	if err := faultinject.Fire(ctx, faultinject.HookExtractFaults); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return FaultsObs(L, stats, reg), nil
}

// FaultsObs is Faults with metrics: per-kind fault counts and a weight
// histogram land in reg (nil registry: no recording, no cost).
func FaultsObs(L *layout.Layout, stats defect.Statistics, reg *obs.Registry) *fault.List {
	list := &fault.List{}
	extractBridges(L, stats, list)
	extractOpens(L, stats, list)
	list.SortByWeight()
	RecordFaults(reg, list.Faults, nil)
	return list
}

// RecordFaults records an extracted list's metrics in reg: the per-kind
// fault counters and the weight histogram. weights, when non-nil, stands
// in for the faults' own weights index by index — a memoized front end
// whose list has since been yield-scaled replays its extraction-time
// weights through it. Nil registry: no recording, no cost.
func RecordFaults(reg *obs.Registry, faults []fault.Realistic, weights []float64) {
	if reg == nil {
		return
	}
	var kinds [3]*obs.Counter
	kinds[fault.KindBridge] = reg.Counter("extract_bridge_faults")
	kinds[fault.KindOpenInput] = reg.Counter("extract_open_input_faults")
	kinds[fault.KindOpenDriver] = reg.Counter("extract_open_driver_faults")
	hist := reg.Histogram("extract_fault_weight", obs.ExpBuckets(1e-6, 10, 6))
	for i, f := range faults {
		if int(f.Kind) < len(kinds) {
			kinds[f.Kind].Inc()
		}
		w := f.Weight
		if weights != nil {
			w = weights[i]
		}
		hist.Observe(w)
	}
}

// netRect is a net-tagged shape on one bridge class's layers.
type netRect struct {
	net  int
	rect geom.Rect
}

// nearPair is a pair of shapes of different nets that one defect of the
// largest size can short: shape i on the lower net and shape j on the
// higher, with key = lower net<<32 | higher net.
type nearPair struct {
	key  uint64
	i, j int32
}

func extractBridges(L *layout.Layout, stats defect.Statistics, list *fault.List) {
	type contrib struct {
		a, b int
		w    float64
	}
	var contribs []contrib
	var shapes []netRect
	for _, bl := range bridgeLayers {
		cls := stats.Classes[bl.dt]
		if cls.Density == 0 {
			continue
		}
		shapes = classShapes(L, bl.layers, shapes[:0])
		forEachNearPair(shapes, stats.MaxSize, func(a, b int, ra, rb []geom.Rect) {
			if avg := critarea.AvgShortArea(ra, rb, cls.Size, stats.MaxSize); avg > 0 {
				contribs = append(contribs, contrib{a, b, avg * cls.Density * densityScale})
			}
		})
	}
	// A stable sort by pair keeps each pair's classes in bridgeLayers
	// order, the order their weights are summed in.
	slices.SortStableFunc(contribs, func(p, q contrib) int {
		return cmp.Or(cmp.Compare(p.a, q.a), cmp.Compare(p.b, q.b))
	})
	for i := 0; i < len(contribs); {
		a, b := contribs[i].a, contribs[i].b
		var w float64
		for ; i < len(contribs) && contribs[i].a == a && contribs[i].b == b; i++ {
			w += contribs[i].w
		}
		list.Faults = append(list.Faults, fault.Realistic{
			Kind: fault.KindBridge, NetA: a, NetB: b,
			Inst: -1, Node: -1, Weight: w,
		})
	}
}

// classShapes appends to dst L's net-tagged shapes on the given layers, in
// layout order.
func classShapes(L *layout.Layout, layers []geom.Layer, dst []netRect) []netRect {
	for _, sh := range L.Shapes.Shapes {
		if sh.Net >= 0 && slices.Contains(layers, sh.Layer) {
			dst = append(dst, netRect{sh.Net, sh.Rect})
		}
	}
	return dst
}

// forEachNearPair calls fn once per net pair a < b, in ascending order,
// with a shape of a and a shape of b closer than maxX on both axes — the
// pairs a defect of side maxX or less can short. ra and rb are the rects
// of the shapes of nets a and b within that reach of the other net, each
// shape once, in index order; fn must not keep them.
//
// Shapes are bucketed by the cells of a grid of step 4·maxX that their
// rects grown by maxX cover. Two shapes in reach share a cell, and each
// pair is taken only in the first cell both cover, so no pair is seen
// twice.
func forEachNearPair(shapes []netRect, maxX int, fn func(a, b int, ra, rb []geom.Rect)) {
	if maxX <= 0 || len(shapes) == 0 {
		return
	}
	step := 4 * maxX
	cells := make([][4]int, len(shapes)) // gx0, gy0, gx1, gy1
	lo, hi := [2]int{math.MaxInt, math.MaxInt}, [2]int{math.MinInt, math.MinInt}
	for i, s := range shapes {
		r := s.rect.Expand(maxX)
		c := [4]int{floorDiv(r.X0, step), floorDiv(r.Y0, step), floorDiv(r.X1, step), floorDiv(r.Y1, step)}
		cells[i] = c
		lo = [2]int{min(lo[0], c[0]), min(lo[1], c[1])}
		hi = [2]int{max(hi[0], c[2]), max(hi[1], c[3])}
	}
	// The grid as one flat bucket array: cell (gx, gy)'s shapes, in index
	// order, are grid[start[c]:start[c+1]] with c = (gy-lo)·nx + gx-lo.
	nx := hi[0] - lo[0] + 1
	start := make([]int32, nx*(hi[1]-lo[1]+1)+1)
	for _, c := range cells {
		for gy := c[1]; gy <= c[3]; gy++ {
			for gx := c[0]; gx <= c[2]; gx++ {
				start[(gy-lo[1])*nx+gx-lo[0]+1]++
			}
		}
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	grid := make([]int32, start[len(start)-1])
	fill := slices.Clone(start[:len(start)-1])
	for i, c := range cells {
		for gy := c[1]; gy <= c[3]; gy++ {
			for gx := c[0]; gx <= c[2]; gx++ {
				cell := (gy-lo[1])*nx + gx - lo[0]
				grid[fill[cell]] = int32(i)
				fill[cell]++
			}
		}
	}

	var pairs []nearPair
	for cell := 0; cell+1 < len(start); cell++ {
		gx, gy := cell%nx+lo[0], cell/nx+lo[1]
		idx := grid[start[cell]:start[cell+1]]
		for ai, i := range idx {
			si, ci := shapes[i], cells[i]
			for _, j := range idx[ai+1:] {
				sj, cj := shapes[j], cells[j]
				if si.net == sj.net || gx != max(ci[0], cj[0]) || gy != max(ci[1], cj[1]) {
					continue
				}
				if dx, dy := si.rect.GapTo(sj.rect); max(dx, dy) >= maxX {
					continue
				}
				if si.net < sj.net {
					pairs = append(pairs, nearPair{uint64(si.net)<<32 | uint64(sj.net), i, j})
				} else {
					pairs = append(pairs, nearPair{uint64(sj.net)<<32 | uint64(si.net), j, i})
				}
			}
		}
	}
	slices.SortFunc(pairs, func(p, q nearPair) int { return cmp.Compare(p.key, q.key) })
	var ia, ib []int32
	var ra, rb []geom.Rect
	for g := 0; g < len(pairs); {
		key := pairs[g].key
		ia, ib = ia[:0], ib[:0]
		for ; g < len(pairs) && pairs[g].key == key; g++ {
			ia = append(ia, pairs[g].i)
			ib = append(ib, pairs[g].j)
		}
		ra, rb = rectsOf(shapes, ia, ra[:0]), rectsOf(shapes, ib, rb[:0])
		fn(int(key>>32), int(uint32(key)), ra, rb)
	}
}

// rectsOf appends to dst the rects of the shapes in ids, each shape once,
// in index order. It sorts ids.
func rectsOf(shapes []netRect, ids []int32, dst []geom.Rect) []geom.Rect {
	slices.Sort(ids)
	for _, i := range slices.Compact(ids) {
		dst = append(dst, shapes[i].rect)
	}
	return dst
}

// branchKey names a receiver branch: an input node of an instance.
type branchKey struct{ inst, node int }

// branchRegion is the column over one input pad of a receiver branch, from
// the cell bottom to the top of the pin's routing stub; key indexes the
// branch in receiverBranches' key order.
type branchRegion struct {
	key  int
	rect geom.Rect
}

// receiverBranches indexes L's receiver branches. keys lists the branches
// of signal-net input pins in first-pin order; byNet[n] lists net n's
// branch regions in pin order.
func receiverBranches(L *layout.Layout) (keys []branchKey, byNet [][]branchRegion) {
	index := make(map[branchKey]int)
	byNet = make([][]branchRegion, len(L.Nets))
	for _, p := range L.Pins {
		if !p.Input || p.Net <= layout.NetVDD {
			continue
		}
		bk := branchKey{p.Inst, p.Node}
		k, ok := index[bk]
		if !ok {
			k = len(keys)
			index[bk] = k
			keys = append(keys, bk)
		}
		top := max(p.StubTop, p.Pad.Y1)
		byNet[p.Net] = append(byNet[p.Net], branchRegion{k, geom.R(p.Pad.X0-1, L.RowY[p.Row], p.Pad.X1+1, top)})
	}
	return keys, byNet
}

// wires are the rects of one branch or trunk, per layer (cuts included).
type wires [geom.NumLayers][]geom.Rect

func extractOpens(L *layout.Layout, stats defect.Statistics, list *fault.List) {
	// Partition each signal net's shapes into branch wires and trunk
	// wires: a shape inside a receiver branch region of its net belongs to
	// the first such branch in pin order, any other to its net's trunk.
	keys, byNet := receiverBranches(L)
	branchWires := make([]*wires, len(keys))
	branchNet := make([]int, len(keys))
	trunk := make([]*wires, len(L.Nets))
	for _, sh := range L.Shapes.Shapes {
		if sh.Net <= layout.NetVDD {
			continue
		}
		isCut := sh.Layer == geom.LayerContact || sh.Layer == geom.LayerVia
		if !isCut && !sh.Layer.Conducting() {
			continue
		}
		var owner *wires
		for _, br := range byNet[sh.Net] {
			if br.rect.ContainsRect(sh.Rect) {
				if branchWires[br.key] == nil {
					branchWires[br.key] = new(wires)
					branchNet[br.key] = sh.Net
				}
				owner = branchWires[br.key]
				break
			}
		}
		if owner == nil {
			if trunk[sh.Net] == nil {
				trunk[sh.Net] = new(wires)
			}
			owner = trunk[sh.Net]
		}
		owner[sh.Layer] = append(owner[sh.Layer], sh.Rect)
	}

	weightOf := func(w *wires) float64 {
		var sum float64
		for _, ol := range openLayers {
			rects := w[ol.layer]
			if len(rects) == 0 {
				continue
			}
			cls := stats.Classes[ol.dt]
			if cls.Density == 0 {
				continue
			}
			sum += critarea.AvgOpenArea(rects, cls.Size, stats.MaxSize) * cls.Density * densityScale
		}
		for _, cl := range cutLayers {
			cuts := w[cl.layer]
			if len(cuts) == 0 {
				continue
			}
			cls := stats.Classes[cl.dt]
			if cls.Density == 0 {
				continue
			}
			sum += critarea.AvgCutOpenArea(cuts, cls.Size, stats.MaxSize) * cls.Density * densityScale
		}
		return sum
	}

	for k, bk := range keys {
		w := branchWires[k]
		if w == nil {
			continue
		}
		wt := weightOf(w)
		if wt <= 0 {
			continue
		}
		list.Faults = append(list.Faults, fault.Realistic{
			Kind: fault.KindOpenInput, NetA: branchNet[k], NetB: -1,
			Inst: bk.inst, Node: bk.node, Weight: wt,
		})
	}
	for net, w := range trunk {
		if w == nil {
			continue
		}
		wt := weightOf(w)
		if wt <= 0 {
			continue
		}
		list.Faults = append(list.Faults, fault.Realistic{
			Kind: fault.KindOpenDriver, NetA: net, NetB: -1,
			Inst: -1, Node: -1, Weight: wt,
		})
	}
}
