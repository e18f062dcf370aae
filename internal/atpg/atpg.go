// Package atpg generates stuck-at test vectors: a seeded random prefix
// followed by deterministic test generation for the remaining undetected
// faults, mirroring the paper's experimental setup ("the first vectors are
// random vectors, being the last vectors deterministically generated using
// the FAN algorithm").
//
// The deterministic engine is a PODEM-style branch-and-bound over primary
// input assignments with SCOAP controllability-guided backtrace and
// D-frontier objective selection (the guidance ideas FAN systematized).
// Faults whose decision tree is exhausted are reported untestable
// (redundant); a backtrack limit bounds the effort per fault.
package atpg

import (
	"context"

	"defectsim/internal/fault"
	"defectsim/internal/gatesim"
	"defectsim/internal/netlist"
	"defectsim/internal/obs"
)

// V3 is three-valued logic for test generation.
type V3 uint8

// Three-valued levels.
const (
	X3 V3 = iota
	L0
	L1
)

func (v V3) String() string {
	switch v {
	case L0:
		return "0"
	case L1:
		return "1"
	}
	return "X"
}

func not3(v V3) V3 {
	switch v {
	case L0:
		return L1
	case L1:
		return L0
	}
	return X3
}

// eval3 computes a gate function in three-valued logic.
func eval3(t netlist.GateType, in []V3) V3 {
	switch t {
	case netlist.Buf:
		return in[0]
	case netlist.Not:
		return not3(in[0])
	case netlist.And, netlist.Nand:
		v := L1
		for _, x := range in {
			if x == L0 {
				v = L0
				break
			}
			if x == X3 {
				v = X3
			}
		}
		if t == netlist.Nand {
			v = not3(v)
		}
		return v
	case netlist.Or, netlist.Nor:
		v := L0
		for _, x := range in {
			if x == L1 {
				v = L1
				break
			}
			if x == X3 {
				v = X3
			}
		}
		if t == netlist.Nor {
			v = not3(v)
		}
		return v
	case netlist.Xor, netlist.Xnor:
		v := L0
		for _, x := range in {
			if x == X3 {
				return X3
			}
			if x == L1 {
				v = not3(v)
			}
		}
		if t == netlist.Xnor {
			v = not3(v)
		}
		return v
	}
	panic("atpg: bad gate type")
}

// controlling returns the controlling input value of a gate type, or X3
// when it has none (XOR class, BUF/NOT).
func controlling(t netlist.GateType) V3 {
	switch t {
	case netlist.And, netlist.Nand:
		return L0
	case netlist.Or, netlist.Nor:
		return L1
	}
	return X3
}

// Status classifies the outcome of deterministic generation for one fault.
type Status uint8

// Generation outcomes.
const (
	StatusDetected Status = iota
	StatusUntestable
	StatusAborted
)

func (s Status) String() string {
	switch s {
	case StatusDetected:
		return "detected"
	case StatusUntestable:
		return "untestable"
	}
	return "aborted"
}

// Generator is a deterministic test generator for one netlist.
type Generator struct {
	nl       *netlist.Netlist
	order    []int
	fanouts  [][]int
	cc0, cc1 []int // SCOAP combinational controllabilities per net

	// Per-attempt state.
	good, bad []V3

	// Metric handles (nil unless Instrument was called; nil handles are
	// allocation-free no-ops, so Generate stays free by default).
	mBacktracks    *obs.Counter
	mBacktracksPer *obs.Histogram
	mDetected      *obs.Counter
	mUntestable    *obs.Counter
	mAborted       *obs.Counter
}

// Instrument routes per-fault generation metrics to reg: total backtracks,
// a per-fault backtrack histogram, and the detected/untestable/aborted
// outcome counts. A nil registry leaves the generator un-instrumented.
func (g *Generator) Instrument(reg *obs.Registry) {
	g.mBacktracks = reg.Counter("atpg_backtracks_total")
	g.mBacktracksPer = reg.Histogram("atpg_backtracks_per_fault", obs.ExpBuckets(1, 4, 7))
	g.mDetected = reg.Counter("atpg_faults_detected")
	g.mUntestable = reg.Counter("atpg_faults_untestable")
	g.mAborted = reg.Counter("atpg_faults_aborted")
}

// NewGenerator prepares a generator (levelization + SCOAP measures).
func NewGenerator(nl *netlist.Netlist) (*Generator, error) {
	order, _, err := nl.Levelize()
	if err != nil {
		return nil, err
	}
	g := &Generator{
		nl: nl, order: order, fanouts: nl.Fanouts(),
		cc0:  make([]int, nl.NumNets()),
		cc1:  make([]int, nl.NumNets()),
		good: make([]V3, nl.NumNets()),
		bad:  make([]V3, nl.NumNets()),
	}
	g.computeSCOAP()
	return g, nil
}

// computeSCOAP fills the classic combinational 0/1-controllability
// measures: PIs cost 1; a gate output's cost is derived from its inputs'
// costs plus 1.
func (g *Generator) computeSCOAP() {
	const inf = 1 << 28
	for n := range g.cc0 {
		g.cc0[n], g.cc1[n] = inf, inf
	}
	for _, pi := range g.nl.PIs {
		g.cc0[pi], g.cc1[pi] = 1, 1
	}
	min := func(a, b int) int {
		if a < b {
			return a
		}
		return b
	}
	for _, gi := range g.order {
		gt := &g.nl.Gates[gi]
		sum0, sum1, min0, min1 := 0, 0, inf, inf
		for _, in := range gt.Inputs {
			sum0 += g.cc0[in]
			sum1 += g.cc1[in]
			min0 = min(min0, g.cc0[in])
			min1 = min(min1, g.cc1[in])
		}
		var c0, c1 int
		switch gt.Type {
		case netlist.Buf:
			c0, c1 = g.cc0[gt.Inputs[0]]+1, g.cc1[gt.Inputs[0]]+1
		case netlist.Not:
			c0, c1 = g.cc1[gt.Inputs[0]]+1, g.cc0[gt.Inputs[0]]+1
		case netlist.And:
			c0, c1 = min0+1, sum1+1
		case netlist.Nand:
			c0, c1 = sum1+1, min0+1
		case netlist.Or:
			c0, c1 = sum0+1, min1+1
		case netlist.Nor:
			c0, c1 = min1+1, sum0+1
		case netlist.Xor, netlist.Xnor:
			// Cheapest parity assignment approximation.
			even := sum0 + 1
			odd := min1 + min0 + 1 // crude but adequate guidance
			if gt.Type == netlist.Xor {
				c0, c1 = even, odd
			} else {
				c0, c1 = odd, even
			}
		}
		g.cc0[gt.Out], g.cc1[gt.Out] = c0, c1
	}
}

// imply forward-simulates both machines from the current PI assignment.
// The faulty machine has f injected (stem force or branch substitution).
func (g *Generator) imply(assign []V3, f fault.StuckAt) {
	fv := L0
	if f.Value == 1 {
		fv = L1
	}
	for n := range g.good {
		g.good[n], g.bad[n] = X3, X3
	}
	for i, pi := range g.nl.PIs {
		g.good[pi] = assign[i]
		g.bad[pi] = assign[i]
	}
	if f.Branch < 0 && g.nl.Driver(f.Net) < 0 {
		g.bad[f.Net] = fv
	}
	var gin, bin [8]V3
	for _, gi := range g.order {
		gt := &g.nl.Gates[gi]
		gs, bs := gin[:0], bin[:0]
		for _, in := range gt.Inputs {
			gs = append(gs, g.good[in])
			bv := g.bad[in]
			if f.Branch == gi && f.Net == in {
				bv = fv
			}
			bs = append(bs, bv)
		}
		g.good[gt.Out] = eval3(gt.Type, gs)
		out := eval3(gt.Type, bs)
		if f.Branch < 0 && f.Net == gt.Out {
			out = fv
		}
		g.bad[gt.Out] = out
	}
}

// detected reports whether some PO definitely differs between machines.
func (g *Generator) detected() bool {
	for _, po := range g.nl.POs {
		gv, bv := g.good[po], g.bad[po]
		if gv != X3 && bv != X3 && gv != bv {
			return true
		}
	}
	return false
}

// dFrontier returns gates whose output is X in either machine while some
// input already carries a definite good/faulty difference. For a branch
// fault the difference originates inside gate f.Branch (the substituted
// input), so that gate joins the frontier as soon as the stem is activated.
func (g *Generator) dFrontier(f fault.StuckAt) []int {
	var out []int
	for gi := range g.nl.Gates {
		gt := &g.nl.Gates[gi]
		if g.good[gt.Out] != X3 && g.bad[gt.Out] != X3 {
			continue
		}
		for _, in := range gt.Inputs {
			gv, bv := g.good[in], g.bad[in]
			if f.Branch == gi && f.Net == in {
				// The faulty machine sees the stuck value here.
				bv = L0
				if f.Value == 1 {
					bv = L1
				}
			}
			if gv != X3 && bv != X3 && gv != bv {
				out = append(out, gi)
				break
			}
		}
	}
	return out
}

// xPathToPO reports whether a gate output can still reach a PO through
// X-valued nets (the X-path check).
func (g *Generator) xPathToPO(net int, memo map[int]bool) bool {
	if v, ok := memo[net]; ok {
		return v
	}
	memo[net] = false // cycle guard (combinational: none, but safe)
	for _, po := range g.nl.POs {
		if po == net {
			memo[net] = true
			return true
		}
	}
	for _, gi := range g.fanouts[net] {
		out := g.nl.Gates[gi].Out
		if (g.good[out] == X3 || g.bad[out] == X3) && g.xPathToPO(out, memo) {
			memo[net] = true
			return true
		}
	}
	return false
}

// backtrace maps an objective (net must become val in the good machine) to
// an unassigned primary input and a value, following cheapest-controllability
// paths.
func (g *Generator) backtrace(net int, val V3) (pi int, v V3, ok bool) {
	for {
		drv := g.nl.Driver(net)
		if drv < 0 {
			for i, p := range g.nl.PIs {
				if p == net {
					return i, val, true
				}
			}
			return 0, X3, false
		}
		gt := &g.nl.Gates[drv]
		if gt.Type.Inverting() {
			val = not3(val)
		}
		switch gt.Type {
		case netlist.Buf, netlist.Not:
			net = gt.Inputs[0]
			continue
		}
		ctrl := controlling(gt.Type)
		// After accounting for output inversion, AND/NAND need all-1 inputs
		// for val==1 side, one-0 for val==0 side (dual for OR/NOR). XOR:
		// pick any X input toward parity.
		wantAll := (ctrl == L0 && val == L1) || (ctrl == L1 && val == L0)
		bestIn, bestCost := -1, 1<<30
		for _, in := range gt.Inputs {
			if g.good[in] != X3 {
				continue
			}
			var cost int
			target := val
			if ctrl != X3 && !wantAll {
				target = ctrl
			}
			if target == L0 {
				cost = g.cc0[in]
			} else {
				cost = g.cc1[in]
			}
			if wantAll {
				// Need every input: pick the hardest first.
				cost = -cost
			}
			if cost < bestCost {
				bestCost, bestIn = cost, in
			}
		}
		if bestIn < 0 {
			return 0, X3, false
		}
		if ctrl != X3 && !wantAll {
			val = ctrl
		} else if ctrl != X3 && wantAll {
			val = not3(ctrl)
		}
		// XOR class: aim val at the chosen input directly (parity handled
		// by later decisions).
		net = bestIn
	}
}

// GenerateCtx attempts to build a test pattern for f within the backtrack
// limit. On success the returned pattern has X positions filled with 0.
// The backtrack loop checks the context every ctxCheckStride backtracks,
// so a cancelled or expired context aborts the search promptly. A fault
// cut short by cancellation reports StatusAborted — its decision tree was
// not exhausted, so it is neither detected nor proven untestable.
func (g *Generator) GenerateCtx(ctx context.Context, f fault.StuckAt, backtrackLimit int) (gatesim.Pattern, Status) {
	pat, status, backtracks := g.search(ctx, f, nil, backtrackLimit)
	g.mBacktracks.Add(int64(backtracks))
	g.mBacktracksPer.Observe(float64(backtracks))
	switch status {
	case StatusDetected:
		g.mDetected.Inc()
	case StatusUntestable:
		g.mUntestable.Inc()
	case StatusAborted:
		g.mAborted.Inc()
	}
	return pat, status
}

// ctxCheckStride is how many backtracks pass between context checks in
// the deterministic search: frequent enough for sub-millisecond
// cancellation latency, rare enough to keep the check off the profile.
const ctxCheckStride = 256

// search is the PODEM branch-and-bound behind every generator entry
// point: it decides primary inputs one at a time until the fault is
// detected with every constraint met, backtracking on a definite
// constraint violation or a dead fault effect. A plain stuck-at test
// passes no constraints. It returns the pattern, the status and the
// number of backtracks made.
func (g *Generator) search(ctx context.Context, f fault.StuckAt, constraints []Assign, backtrackLimit int) (gatesim.Pattern, Status, int) {
	nPI := len(g.nl.PIs)
	assign := make([]V3, nPI)
	type decision struct {
		pi      int
		flipped bool
	}
	var stack []decision
	fv := L0
	if f.Value == 1 {
		fv = L1
	}
	backtracks := 0

	for {
		g.imply(assign, f)
		// Constraint handling first: a definite violation forces a
		// backtrack; an undetermined constraint becomes the next objective.
		violated := false
		var objNet int
		var objVal V3
		haveObj := false
		for _, c := range constraints {
			gv := g.good[c.Net]
			if gv == c.Value {
				continue
			}
			if gv != X3 {
				violated = true
				break
			}
			if !haveObj {
				objNet, objVal, haveObj = c.Net, c.Value, true
			}
		}
		if !violated && !haveObj && g.detected() {
			pat := make(gatesim.Pattern, nPI)
			for i, v := range assign {
				if v == L1 {
					pat[i] = 1
				}
			}
			return pat, StatusDetected, backtracks
		}

		// Possible? Activation: the good value at the site must be able to
		// be ¬fv; then a D-frontier with an X-path must remain.
		feasible := !violated
		if feasible && !haveObj {
			siteGood := g.good[f.Net]
			activated := siteGood != X3 && siteGood != fv
			if siteGood == fv {
				feasible = false
			}
			if feasible && !activated {
				objNet, objVal, haveObj = f.Net, not3(fv), true
			}
			if feasible && activated {
				df := g.dFrontier(f)
				if len(df) == 0 {
					feasible = false
				} else {
					memo := map[int]bool{}
					found := false
					for _, gi := range df {
						gt := &g.nl.Gates[gi]
						if !g.xPathToPO(gt.Out, memo) {
							continue
						}
						// Objective: set an X input to the non-controlling
						// value to let the difference through.
						ctrl := controlling(gt.Type)
						for _, in := range gt.Inputs {
							if g.good[in] == X3 {
								objNet = in
								if ctrl == X3 {
									objVal = L0 // XOR: any definite value
								} else {
									objVal = not3(ctrl)
								}
								haveObj, found = true, true
								break
							}
						}
						if found {
							break
						}
					}
					if !found {
						feasible = false
					}
				}
			}
		}
		if feasible && haveObj {
			if pi, v, ok := g.backtrace(objNet, objVal); ok && assign[pi] == X3 {
				assign[pi] = v
				stack = append(stack, decision{pi, false})
				continue
			}
		}
		// Backtrack.
		for {
			if len(stack) == 0 {
				return nil, StatusUntestable, backtracks
			}
			d := &stack[len(stack)-1]
			if !d.flipped {
				d.flipped = true
				assign[d.pi] = not3(assign[d.pi])
				backtracks++
				if backtracks > backtrackLimit {
					return nil, StatusAborted, backtracks
				}
				if backtracks%ctxCheckStride == 0 && ctx.Err() != nil {
					return nil, StatusAborted, backtracks
				}
				break
			}
			assign[d.pi] = X3
			stack = stack[:len(stack)-1]
		}
	}
}

// TestSet is a test set grown toward N detections of every fault: the
// outcome of BuildTestSetWorkersCtx (the paper's stuck-at set, N = 1)
// and of BuildNDetectTestSet.
type TestSet struct {
	// N is the target detection multiplicity.
	N int
	// Patterns holds the vectors the builder was given followed by the
	// vectors it appended. Appended vectors are pairwise distinct and
	// distinct from every given vector; the given ones are taken as-is
	// (duplicate random stimuli each earn their own credit: counts are per
	// applied vector, matching gatesim counting mode).
	Patterns []gatesim.Pattern
	// RandomCount is how many leading patterns the builder was given: the
	// random prefix, or the base set of an n-detect build.
	RandomCount int
	// DetectCounts[i] is fault i's detection count, capped at N.
	DetectCounts []int
	// DetectedAt[i] is the 1-based index of the vector supplying fault i's
	// N-th detection (at N = 1 its first), 0 when the set never detects it
	// N times.
	DetectedAt []int
	// Untestable marks faults proven redundant.
	Untestable []bool
	// Aborted marks faults the builder gave up on short of N detections:
	// the search hit its backtrack limit, or (N > 1) found no further
	// distinct detecting vector. A later vector that brings the fault to N
	// detections clears the flag. A stuck-at set that stopped early also
	// marks every fault it had not decided.
	Aborted []bool
	// Incomplete marks a set whose top-up stopped early (cancellation, an
	// exhausted time budget or an injected failure).
	Incomplete bool
}

// Coverage returns the fraction of faults detected N times, over testable
// faults if excludeUntestable, else over all faults. Aborted faults are
// never excluded: their testability is unknown, so they stay in the
// denominator (the paper's eq. 6 weights every fault that could reach a
// customer) and out of the numerator.
//
// Per-fault outcome precedence is Detected > Untestable > Aborted,
// matching Counts: a fault the random phase detected before the
// deterministic search proved its target site redundant (possible when
// the PODEM target is a collapsed representative) counts as detected,
// and excludeUntestable only removes faults that are untestable AND
// undetected from the denominator.
func (ts *TestSet) Coverage(excludeUntestable bool) float64 {
	det, tot := 0, 0
	for i := range ts.DetectedAt {
		if excludeUntestable && ts.Untestable[i] && ts.DetectedAt[i] == 0 {
			continue
		}
		tot++
		if ts.DetectedAt[i] > 0 {
			det++
		}
	}
	if tot == 0 {
		return 0
	}
	return float64(det) / float64(tot)
}

// Counts returns the per-outcome fault totals of the set: detected N
// times, proven untestable (redundant), and aborted (backtrack limit,
// no further distinct vector, budget exhaustion or cancellation). Each
// fault lands in exactly one bucket with precedence Detected > Untestable
// > Aborted — the same precedence Coverage applies, so detected+untestable
// faults are never double-counted and the two views always agree.
func (ts *TestSet) Counts() (detected, untestable, aborted int) {
	for i := range ts.DetectedAt {
		switch {
		case ts.DetectedAt[i] > 0:
			detected++
		case ts.Untestable[i]:
			untestable++
		case ts.Aborted[i]:
			aborted++
		}
	}
	return detected, untestable, aborted
}

// BuildTestSetWorkersCtx produces the paper's vector recipe: nRandom
// seeded random patterns, topped up with deterministic patterns until
// every fault is detected, proven untestable or aborted — the one
// test-set builder at N = 1 (see BuildNDetectTestSet).
//
// tr records stage spans for the random prefix, its gate-level fault
// simulation and the deterministic top-up, plus generation and detection
// metrics in its registry; a nil tracer costs nothing.
//
// workers sets the worker count of the gate-level fault-simulation phases
// (the random-prefix campaign and the per-pattern simulations of the
// top-up loop), normalized by the shared internal/par policy (<= 0 selects
// runtime.NumCPU()). The deterministic PODEM search itself stays serial —
// pattern order defines the test set — and the gate-level simulator is
// bitwise deterministic for any worker count, so the produced TestSet is
// identical whatever workers is.
//
// The context is checked between faults in the top-up loop, every
// ctxCheckStride backtracks inside the deterministic search, and once per
// 64-pattern block in the gate-level fault simulations. When the context
// ends mid-build the partial test set is still returned — marked
// Incomplete, with every fault not yet detected or proven untestable
// reported Aborted — together with the context's error, so callers can
// either discard it (run cancelled) or keep it as a degraded result
// (stage budget exhausted).
func BuildTestSetWorkersCtx(ctx context.Context, nl *netlist.Netlist, faults []fault.StuckAt, nRandom int, seed uint64, backtrackLimit int, workers int, tr *obs.Tracer) (*TestSet, error) {
	sp := tr.StartSpan("random-prefix")
	prefix := gatesim.RandomPatterns(nl, nRandom, seed)
	sp.End()
	ts, err := build(ctx, nl, faults, prefix, nil, 1, backtrackLimit, workers, tr, stuckAtPhases)
	if ts == nil {
		return nil, err
	}
	reg := tr.Metrics()
	if err != nil {
		n := int64(0)
		for i := range faults {
			if ts.DetectedAt[i] == 0 && !ts.Untestable[i] && !ts.Aborted[i] {
				ts.Aborted[i] = true
				n++
			}
		}
		reg.Counter("atpg_faults_aborted_on_stop").Add(n)
		return ts, err
	}
	if reg != nil {
		hist := reg.Histogram("atpg_vectors_to_detect", obs.ExpBuckets(1, 2, 10))
		for _, d := range ts.DetectedAt {
			if d > 0 {
				hist.Observe(float64(d))
			}
		}
	}
	return ts, nil
}
