// Package switchsim is the switch-level fault simulator of the pipeline
// (the paper's swift): an event-driven, three-valued (0/1/X) simulator over
// channel-connected components with a conductance-based strength model.
//
// Each CCC is solved by max-conductance relaxation: a signal reaching a node
// through a chain of conducting transistors has the series conductance of
// the chain (g₁g₂/(g₁+g₂) per device); the node takes the strongest
// definitely-arriving value unless a possibly-conducting path of comparable
// strength could deliver the opposite value (→ X). Undriven nodes retain
// their previous value (charge storage), which is what makes open faults
// sequence-dependent and harder to detect than bridges — the central
// mechanism behind the paper's susceptibility ratio R and coverage ceiling
// Θmax.
//
// Fault injection (faultsim.go) supports the realistic fault kinds of
// package fault: bridges (an always-on short of high conductance, resolved
// by relative drive strength) and opens (transistors removed / nets severed
// from their drivers).
//
// The hot path is allocation-free in steady state: every scratch buffer the
// CCC solver needs (the group worklist, the local node index, the edge
// list, the four conductance fields, the changed-net buffer) lives in a
// per-Machine arena that is grown once and reused across solves, and fault
// configurations are immutable faultPlans installable on any machine of the
// same circuit in O(1) — which is what lets the campaign loop run every
// fault on one machine per worker, a fault owning nothing but its node
// values. Inside a fault campaign most solves skip the relaxation
// altogether: a CCC the installed fault leaves alone is a pure function of
// at most eight 0/1/X nets, so the campaign's CCC memo (memo.go) relaxes
// each such state once and replays it from a table; the CCCs hosting a
// fault relax once per state for every fault of the same shape, replayed
// from the campaign's class table and each fault's small table of its own
// recent solves — all bitwise identical to the relaxation. A settle that
// cycles skips whole periods of its budget (drainTo), and a fault whose
// values have diverged from the good machine's walks the fault-free
// settle's event log of the vector (walk.go), solving only the pops its
// difference reaches.
package switchsim

import (
	"fmt"
	"slices"

	"defectsim/internal/cell"
	"defectsim/internal/gatesim"
	"defectsim/internal/layout"
	"defectsim/internal/transistor"
)

// Val is a three-valued logic level.
type Val uint8

// Logic values.
const (
	V0 Val = iota
	V1
	VX
)

// String returns "0", "1" or "X".
func (v Val) String() string {
	switch v {
	case V0:
		return "0"
	case V1:
		return "1"
	}
	return "X"
}

// Conductances of the strength model.
const (
	RailG   = 1e12 // power rails and primary inputs (ideal drivers)
	BridgeG = 1e5  // bridging defect (hard short, far above any device)
	tinyG   = 1e-18
)

// series combines two conductances in series.
func series(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		return 0
	}
	return a * b / (a + b)
}

// Vector is one input pattern: a 0/1 value per primary input, in netlist PI
// order.
type Vector []Val

// Vectors converts gate-level test patterns into switch-level vectors, one
// per pattern, in order.
func Vectors(pats []gatesim.Pattern) []Vector {
	out := make([]Vector, len(pats))
	for i, p := range pats {
		v := make(Vector, len(p))
		for j, b := range p {
			v[j] = Val(b)
		}
		out[i] = v
	}
	return out
}

// conduction state of a device under current gate values.
type conduction uint8

const (
	condOff conduction = iota
	condOn
	condMaybe
)

func devConduction(d *transistor.Device, gateVal Val) conduction {
	switch gateVal {
	case VX:
		return condMaybe
	case V1:
		if d.Type == cell.NMOS {
			return condOn
		}
		return condOff
	default: // V0
		if d.Type == cell.PMOS {
			return condOn
		}
		return condOff
	}
}

// forcedNet pins one net to a stuck level (a severed interconnect trunk).
type forcedNet struct {
	net int
	v   Val
}

// extraBridges groups a plan's bridges by attachment key (see
// faultPlan.extraOf).
type extraBridges struct {
	key int
	brs [][2]int
}

// faultPlan is the precomputed switch-level model of one realistic fault:
// everything fault injection used to scatter across per-machine maps, built
// once per fault by planFault and installable on any Machine of the same
// circuit in O(1). Plans are immutable after planFault returns and may be
// shared by any number of machines (and goroutines) concurrently.
type faultPlan struct {
	removedDev []int32     // device indices forced off (stuck-open), ascending
	deadPI     []int       // PI nets severed from their pads
	forced     []forcedNet // nets pinned to a level (severed trunks)

	// extraOf lists bridges per attachment key: a CCC id (merged partners
	// are solved together), or -1-net for bridges touching nets outside
	// any CCC (primary inputs). A plan holds at most two keys, so it's a
	// scanned slice rather than a map — extraFor sits on solveCCC's group-
	// discovery hot path, where a map lookup per group member is measurable.
	// hasExtraPI short-circuits the per-changed-net lookup for the
	// overwhelming majority of faults with no such bridge endpoint.
	extraOf    []extraBridges
	hasExtraPI bool
	// end is the bridge endpoint outside any CCC that the bridge's seed
	// group reads by value (a primary input), or -1: rails are constant.
	end int32
	// seedCCCs are the CCCs hosting the fault hardware; they are re-solved
	// on every vector.
	seedCCCs []int
}

// seedGroup is what relaxCCC reads when it starts at a seed CCC besides
// the memo key nets of the CCCs it solves: those CCCs, ids[:n], in its
// discovery order, and the bridge endpoint outside any CCC it reads by
// value, end (-1: none).
type seedGroup struct {
	ids [2]int
	n   int
	end int
}

// group returns the seed group of seedCCCs[si]. A plan holds at most one
// bridge, so the group is the seed and, for a bridge between two CCCs,
// the seed at the bridge's other end.
func (p *faultPlan) group(si int) seedGroup {
	g := seedGroup{n: 1, end: -1}
	g.ids[0] = p.seedCCCs[si]
	if len(p.extraOf) > 0 {
		if len(p.seedCCCs) == 2 {
			g.ids[1], g.n = p.seedCCCs[1-si], 2
		}
		g.end = int(p.end)
	}
	return g
}

// isDeadPI reports whether pi is severed from its pad (≤ 1 entry in
// practice, so a linear scan beats any map).
func (p *faultPlan) isDeadPI(pi int) bool {
	for _, d := range p.deadPI {
		if d == pi {
			return true
		}
	}
	return false
}

// isForced reports whether net is pinned to a stuck level.
func (p *faultPlan) isForced(net int) bool {
	for _, f := range p.forced {
		if f.net == net {
			return true
		}
	}
	return false
}

// seedIndex returns the position of CCC id in seedCCCs, or -1 when id
// hosts no part of the fault (a handful of entries at most, so a scan
// beats any map).
func (p *faultPlan) seedIndex(id int) int {
	for i, s := range p.seedCCCs {
		if s == id {
			return i
		}
	}
	return -1
}

// isRemoved reports whether device di is forced off. removedDev is short
// (the devices of one pin or one net) and sorted, so the scan stops at the
// first larger index.
func (p *faultPlan) isRemoved(di int) bool {
	for _, r := range p.removedDev {
		if int(r) >= di {
			return int(r) == di
		}
	}
	return false
}

// cccEdge is one conducting connection inside the node group being solved:
// a transistor channel, or a bridge edge.
type cccEdge struct {
	u, v int // local node indices; -1 marks a source endpoint
	g    float64
	cond conduction
	srcV Val // value delivered when u == -1
}

// solveScratch is the per-Machine arena behind solveCCC and settle: every
// buffer is grown on first use and reused for the life of the machine, so
// the settle loop allocates nothing in steady state (pinned by
// TestSettleSteadyStateZeroAllocs).
type solveScratch struct {
	groupIDs []int
	inGroup  []bool  // len == NumCCCs; reset via groupIDs after each solve
	localIdx []int32 // len == NumNets, -1 = absent; reset via nets
	nets     []int
	extra    [][2]int
	edges    []cccEdge
	d0, d1   []float64
	m0, m1   []float64
	changed  []int // settle's reusable changed-net buffer
	// snapVal and snapQueue hold the state drainTo's cycle search compares
	// against: the values and the pending queue at the last snapshot.
	snapVal   []Val
	snapQueue []int
	// touched accumulates every net an Apply/ApplyFromGood call may have
	// left different from its starting state (seeded, pinned, or changed
	// by a solve; duplicates allowed). The campaign's clean check compares
	// only these nets instead of scanning the whole circuit.
	touched []int
}

// Machine is one simulated circuit instance (good or faulty). Faulty
// machines share the circuit structure and carry an installed fault plan;
// install is O(1) and val is a plain slice the campaign swaps per fault, so
// one machine steps many faults (the campaign loop's per-worker machine),
// each fault owning only its node values.
type Machine struct {
	c   *transistor.Circuit
	val []Val

	// Fault configuration: nil plan = fault-free. The plan is read-only;
	// bridgeG is the defect conductance (BridgeG unless resistive).
	plan    *faultPlan
	bridgeG float64

	// FIFO event queue over CCC ids: push appends, settle pops via qhead
	// and resets both once drained, so the backing array is reused forever
	// instead of creeping forward and reallocating.
	queue   []int
	qhead   int
	inQueue []bool

	// track makes settle record changed nets into scr.touched — on only
	// for applyFromGood, whose caller may run the touched-set clean check.
	// Plain Apply leaves it off: an oscillating machine would otherwise
	// accumulate every changed net of a budget-length settle for nothing.
	track bool

	// memo is the campaign's shared CCC table, seeds the installed fault's
	// seed-group table and classes the campaign's class table, read-only
	// while the machine steps (all nil on plain machines, which always
	// relax); fresh stages the class-table entries this machine's
	// relaxations produced until the campaign takes them. tableSolves,
	// seedSolves, classSolves and relaxSolves count the solves each path
	// took, replaySolves the pops a walk copied from the good machine's
	// log, fastForwards the settles that skipped whole periods and
	// handOvers the walks that reached the cycle search; the campaign loop
	// drains them into its metrics.
	memo                                              *cccMemo
	seeds                                             *seedMemo
	classes                                           *seedTable
	fresh                                             seedTable
	tableSolves, seedSolves, classSolves, relaxSolves int64
	replaySolves, fastForwards, handOvers             int64

	scr solveScratch
	wk  walkState
}

// NewMachine returns a fault-free machine over c with all nodes at X.
func NewMachine(c *transistor.Circuit) *Machine {
	m := &Machine{c: c, val: make([]Val, c.NumNets), bridgeG: BridgeG}
	for i := range m.val {
		m.val[i] = VX
	}
	m.val[layout.NetGND] = V0
	m.val[layout.NetVDD] = V1
	return m
}

// Val returns the current value of net n.
func (m *Machine) Val(n int) Val { return m.val[n] }

// install points the machine at a fault plan and that fault's seed memo
// (nil: seed solves relax). The machine's node state is untouched: callers
// either start from the all-X reset state (a fresh machine), swap in the
// fault's own values, or overwrite the state via ApplyFromGood (the clean
// fast path, whose full-state copy makes the result independent of
// whatever fault the machine hosted before).
func (m *Machine) install(p *faultPlan, bridgeG float64, seeds *seedMemo) {
	m.plan = p
	m.seeds = seeds
	if bridgeG > 0 {
		m.bridgeG = bridgeG
	} else {
		m.bridgeG = BridgeG
	}
}

// extraOfKey returns the bridges attached to the given extraOf key (a CCC
// id, or -1-net for endpoints outside any CCC).
func (m *Machine) extraOfKey(key int) [][2]int {
	if m.plan == nil {
		return nil
	}
	return m.plan.extraFor(key)
}

// extraFor scans the plan's (≤ 2-entry) extraOf list for key.
func (p *faultPlan) extraFor(key int) [][2]int {
	for i := range p.extraOf {
		if p.extraOf[i].key == key {
			return p.extraOf[i].brs
		}
	}
	return nil
}

// solveCCC evaluates the CCC group containing id (plus bridge-merged
// partners) against the machine's current values and appends the nets whose
// value changed to changed (a scratch buffer owned by settle). On a machine
// carrying a campaign memo, a plan-free CCC is served from the shared table
// and a seed CCC from the installed fault's seed memo; every other solve
// runs the relaxation.
func (m *Machine) solveCCC(id int, changed []int) []int {
	si := -1
	if m.plan != nil {
		si = m.plan.seedIndex(id)
	}
	return m.solveAt(si, id, changed)
}

// solveAt is solveCCC for CCC id whose position in the plan's seedCCCs is
// si (-1: not a seed).
func (m *Machine) solveAt(si, id int, changed []int) []int {
	if m.memo != nil {
		if si < 0 {
			if t := &m.memo.cccs[id]; t.in != nil {
				m.tableSolves++
				return m.solveTable(t, id, changed)
			}
		} else if m.seeds != nil {
			return m.solveSeed(si, id, changed)
		}
	}
	m.relaxSolves++
	return m.relaxCCC(id, changed)
}

// relaxCCC is solveCCC by max-conductance relaxation, the reference every
// memo entry is filled from. All working storage comes from the machine's
// scratch arena.
func (m *Machine) relaxCCC(id int, changed []int) []int {
	c := m.c
	s := &m.scr
	// Gather the node group: the CCC itself plus CCCs reachable through
	// bridges (transitively). Kept as an ordered slice so evaluation is
	// deterministic.
	groupIDs := s.groupIDs[:0]
	groupIDs = append(groupIDs, id)
	s.inGroup[id] = true
	extra := s.extra[:0]
	for i := 0; i < len(groupIDs); i++ {
		for _, br := range m.extraOfKey(groupIDs[i]) {
			extra = append(extra, br)
			for _, n := range br {
				oc := m.cccOfNet(n)
				if oc >= 0 && !s.inGroup[oc] {
					s.inGroup[oc] = true
					groupIDs = append(groupIDs, oc)
				}
			}
		}
	}

	// Local node index over the group's nets.
	nets := s.nets[:0]
	for _, g := range groupIDs {
		for _, n := range c.CCCs[g] {
			if s.localIdx[n] < 0 {
				s.localIdx[n] = int32(len(nets))
				nets = append(nets, n)
			}
		}
	}
	// Bridged endpoints outside any CCC (rails, PIs, netless nets) act as
	// sources, handled below.

	edges := s.edges[:0]
	for _, g := range groupIDs {
		for _, di := range c.DevsOf[g] {
			if m.plan != nil && m.plan.isRemoved(di) {
				continue
			}
			d := &c.Devices[di]
			cond := devConduction(d, m.val[d.Gate])
			if cond == condOff {
				continue
			}
			st, dt := d.Source, d.Drain
			si, ti := s.localIdx[st], s.localIdx[dt]
			switch {
			case si >= 0 && ti >= 0:
				edges = append(edges, cccEdge{int(si), int(ti), d.Conductance, cond, VX})
			case si >= 0:
				// dt is a rail (or external strongly driven net).
				edges = append(edges, cccEdge{-1, int(si), d.Conductance, cond, m.val[dt]})
			case ti >= 0:
				edges = append(edges, cccEdge{-1, int(ti), d.Conductance, cond, m.val[st]})
			}
		}
	}
	for _, br := range extra {
		a, b := br[0], br[1]
		ai, bi := s.localIdx[a], s.localIdx[b]
		switch {
		case ai >= 0 && bi >= 0:
			edges = append(edges, cccEdge{int(ai), int(bi), m.bridgeG, condOn, VX})
		case ai >= 0:
			edges = append(edges, cccEdge{-1, int(ai), m.bridgeG, condOn, m.val[b]})
		case bi >= 0:
			edges = append(edges, cccEdge{-1, int(bi), m.bridgeG, condOn, m.val[a]})
		}
	}

	// Max-conductance relaxation, four fields per node: def/may × value 0/1.
	n := len(nets)
	d0 := resetFloats(s.d0, n)
	d1 := resetFloats(s.d1, n)
	m0 := resetFloats(s.m0, n)
	m1 := resetFloats(s.m1, n)
	relaxAll(d0, d1, m0, m1, edges, n)

	const cmp = 1 + 1e-9
	for i, net := range nets {
		if m.plan != nil && m.plan.isForced(net) {
			continue
		}
		prev := m.val[net]
		var nv Val
		switch {
		case m0[i] < tinyG && m1[i] < tinyG:
			nv = prev // floating: charge storage
		case m0[i] < tinyG:
			if d1[i] > tinyG {
				nv = V1
			} else if prev == V1 {
				nv = V1 // may float or pull up — both give 1
			} else {
				nv = VX
			}
		case m1[i] < tinyG:
			if d0[i] > tinyG {
				nv = V0
			} else if prev == V0 {
				nv = V0
			} else {
				nv = VX
			}
		case d1[i] > m0[i]*cmp:
			nv = V1
		case d0[i] > m1[i]*cmp:
			nv = V0
		default:
			nv = VX
		}
		if nv != prev {
			m.val[net] = nv
			changed = append(changed, net)
		}
	}

	// Reset the arena's membership marks via the lists just built, and hand
	// the (possibly regrown) buffers back for the next solve.
	for _, net := range nets {
		s.localIdx[net] = -1
	}
	for _, g := range groupIDs {
		s.inGroup[g] = false
	}
	s.groupIDs, s.nets, s.extra, s.edges = groupIDs, nets, extra, edges
	s.d0, s.d1, s.m0, s.m1 = d0, d1, m0, m1
	return changed
}

// resetFloats returns buf grown to n elements, zeroed.
func resetFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// relaxAll runs the four max-conductance relaxations (def/may × value 0/1)
// fused into one pass over the edge list. A max-relaxation's fixpoint is
// order-independent, so fusing the fields — and seeding X-valued sources up
// front instead of in a second pass — reaches the same fixpoints as four
// separate relaxations while loading each edge once per iteration instead
// of four times, and iterating max(per-field rounds) instead of their sum.
func relaxAll(d0, d1, m0, m1 []float64, edges []cccEdge, n int) {
	// Seed from sources. Definite fields only accept definitely-conducting
	// edges from non-X sources; "may" fields accept any conduction, and an
	// X-valued source may deliver either value.
	for i := range edges {
		e := &edges[i]
		if e.u != -1 {
			continue
		}
		cand := series(RailG, e.g)
		switch e.srcV {
		case V0:
			if cand > m0[e.v] {
				m0[e.v] = cand
			}
			if e.cond == condOn && cand > d0[e.v] {
				d0[e.v] = cand
			}
		case V1:
			if cand > m1[e.v] {
				m1[e.v] = cand
			}
			if e.cond == condOn && cand > d1[e.v] {
				d1[e.v] = cand
			}
		default:
			if cand > m0[e.v] {
				m0[e.v] = cand
			}
			if cand > m1[e.v] {
				m1[e.v] = cand
			}
		}
	}
	for iter := 0; iter < n; iter++ {
		changedAny := false
		for i := range edges {
			e := &edges[i]
			if e.u == -1 {
				continue
			}
			u, v, w := e.u, e.v, e.g
			changedAny = relaxStep(m0, u, v, w) || changedAny
			changedAny = relaxStep(m1, u, v, w) || changedAny
			if e.cond == condOn {
				changedAny = relaxStep(d0, u, v, w) || changedAny
				changedAny = relaxStep(d1, u, v, w) || changedAny
			}
		}
		if !changedAny {
			break
		}
	}
}

// relaxStep propagates one field across one channel edge, both directions.
func relaxStep(g []float64, u, v int, w float64) bool {
	changed := false
	if cand := series(g[u], w); cand > g[v]*(1+1e-12) && cand > tinyG {
		g[v] = cand
		changed = true
	}
	if cand := series(g[v], w); cand > g[u]*(1+1e-12) && cand > tinyG {
		g[u] = cand
		changed = true
	}
	return changed
}

func (m *Machine) cccOfNet(n int) int {
	if n < 0 || n >= len(m.c.CCCOf) {
		return -1
	}
	return m.c.CCCOf[n]
}

// Apply drives the primary inputs with vec and relaxes the whole machine to
// a fixpoint (bounded). It returns false if the bound was hit (an
// oscillation, possible only with feedback-creating bridges).
func (m *Machine) Apply(vec Vector) bool {
	m.schedule(vec)
	return m.settle()
}

// schedule is Apply up to the settle: it drives the primary inputs and
// queues every CCC the vector may change.
func (m *Machine) schedule(vec Vector) {
	if len(vec) != len(m.c.PIs) {
		panic(fmt.Sprintf("switchsim: vector has %d bits, circuit has %d PIs", len(vec), len(m.c.PIs)))
	}
	m.ensureScratch()
	m.track = false
	dead := m.plan != nil && len(m.plan.deadPI) > 0
	for i, pi := range m.c.PIs {
		v := vec[i]
		if dead && m.plan.isDeadPI(pi) {
			v = VX // severed from its pad: floats
		}
		if m.val[pi] != v {
			m.val[pi] = v
			m.pushReaders(pi)
		}
	}
	m.applyForced()
	// Always re-seed the fault hardware's CCCs, and every CCC on the first
	// vector (all-X start).
	if m.plan != nil {
		for _, id := range m.plan.seedCCCs {
			m.push(id)
		}
	}
	if m.allX() {
		for id := range m.c.CCCs {
			m.push(id)
		}
	}
}

// applyForced pins forced nets (severed trunks) to their stuck level.
func (m *Machine) applyForced() {
	if m.plan == nil {
		return
	}
	for _, f := range m.plan.forced {
		if m.val[f.net] != f.v {
			m.val[f.net] = f.v
			if m.track {
				m.scr.touched = append(m.scr.touched, f.net)
			}
			m.pushReaders(f.net)
		}
	}
}

// ApplyFromGood advances a currently-clean faulty machine: its pre-vector
// state is known to equal the good machine's pre-vector state, so only the
// fault hardware's own CCCs need re-solving, with effects propagated from
// there. goodPost is the good machine's state after the vector; goodPrev is
// its state before. Nodes outside the seed CCCs evolve exactly like the
// good machine and take goodPost directly; seed-CCC nodes are reset to
// goodPrev first so that charge retention (floating nodes keeping their
// previous value) is computed against the correct history.
//
// Known deviation (DESIGN §5): a seed net whose solve leaves it at its
// goodPrev value, where goodPost differs, changes nothing and pushes no
// event, so its readers keep the values the good machine computed from
// goodPost. Fixing it moves Θ and needs a re-recorded golden table.
//
// Because the full state is copied in, the outcome is independent of
// whatever the machine held before — which is what makes the campaign's
// per-worker machine bitwise-identical to dedicated per-fault machines.
func (m *Machine) ApplyFromGood(goodPost, goodPrev []Val) bool {
	return m.applyFromGood(goodPost, goodPrev, false)
}

// applyFromGood is ApplyFromGood with the copy made skippable: with
// stateIsGood set, the caller asserts m.val already equals goodPost
// elementwise (the campaign loop tracks this for each worker's home vector
// — after a clean fault stays clean it holds exactly the good state),
// so the O(NumNets) copy is elided and the apply touches only fault-local
// nets. The outcome is identical either way.
func (m *Machine) applyFromGood(goodPost, goodPrev []Val, stateIsGood bool) bool {
	m.scheduleFromGood(goodPost, goodPrev, stateIsGood)
	return m.settle()
}

// scheduleFromGood is applyFromGood up to the settle: it loads the good
// state and queues the fault hardware's CCCs.
func (m *Machine) scheduleFromGood(goodPost, goodPrev []Val, stateIsGood bool) {
	if len(goodPost) != len(m.val) || len(goodPrev) != len(m.val) {
		// A good state sized for a different circuit would otherwise be
		// silently truncated by copy below; fail loudly instead. (The
		// campaign's good machine is built on the same circuit, so this
		// guards direct misuse only.)
		panic(fmt.Sprintf("switchsim: ApplyFromGood: good state spans %d/%d nets, machine %s has %d",
			len(goodPost), len(goodPrev), m.c.Name, len(m.val)))
	}
	if !stateIsGood {
		copy(m.val, goodPost)
	}
	m.ensureScratch()
	m.track = true
	m.scr.touched = m.scr.touched[:0]
	if m.plan != nil {
		for _, id := range m.plan.seedCCCs {
			for _, net := range m.c.CCCs[id] {
				m.val[net] = goodPrev[net]
			}
			m.scr.touched = append(m.scr.touched, m.c.CCCs[id]...)
		}
		for _, pi := range m.plan.deadPI {
			if m.val[pi] != VX {
				m.val[pi] = VX
				m.scr.touched = append(m.scr.touched, pi)
				m.pushReaders(pi)
			}
		}
		m.applyForced()
		for _, id := range m.plan.seedCCCs {
			m.push(id)
		}
	}
}

// cleanAgainst reports whether the machine's state equals good. It is
// valid only right after an Apply/ApplyFromGood whose *starting* state
// already equaled good (elementwise): every net the call may have left
// different is in the touched scratch, so only those are compared.
func (m *Machine) cleanAgainst(good []Val) bool {
	for _, n := range m.scr.touched {
		if m.val[n] != good[n] {
			return false
		}
	}
	return true
}

// ensureScratch sizes the queue bookkeeping and the solver arena's
// membership marks on first use.
func (m *Machine) ensureScratch() {
	if m.inQueue == nil {
		m.inQueue = make([]bool, len(m.c.CCCs))
	}
	if m.scr.inGroup == nil {
		m.scr.inGroup = make([]bool, len(m.c.CCCs))
	}
	if m.scr.localIdx == nil {
		m.scr.localIdx = make([]int32, m.c.NumNets)
		for i := range m.scr.localIdx {
			m.scr.localIdx[i] = -1
		}
	}
}

func (m *Machine) push(id int) {
	if id >= 0 && !m.inQueue[id] {
		m.inQueue[id] = true
		if len(m.queue) == cap(m.queue) && m.qhead > len(m.queue)/2 {
			// Reclaim the popped prefix instead of growing: live entries
			// are deduplicated by inQueue (≤ NumCCCs), so compaction keeps
			// the array bounded even through a budget-length oscillating
			// settle, where appends would otherwise grow it per pop.
			n := copy(m.queue, m.queue[m.qhead:])
			m.queue = m.queue[:n]
			m.qhead = 0
		}
		m.queue = append(m.queue, id)
	}
}

func (m *Machine) pushReaders(net int) {
	for _, r := range m.c.Readers[net] {
		m.push(r)
	}
	// Bridges can attach channel groups to nets outside any CCC (PIs).
	if m.plan != nil && m.plan.hasExtraPI {
		for _, br := range m.plan.extraFor(-1 - net) {
			for _, bn := range br {
				m.push(m.cccOfNet(bn))
			}
		}
	}
}

// settleBudget is how many solves a settle may spend: 8·NumCCCs + 64
// bounds bridge-induced oscillation.
func (m *Machine) settleBudget() int { return 8*len(m.c.CCCs) + 64 }

// settle drains the event queue to a fixpoint within settleBudget solves;
// on running out it drops what is still queued and returns false.
func (m *Machine) settle() bool { return m.settleFrom(0) }

// settleFrom is settle for a settle that has spent solves already (a walk
// handing over): the budget left and the start of the cycle search are
// those of a settle stepped from its start.
func (m *Machine) settleFrom(spent int) bool {
	budget := m.settleBudget()
	if m.drainTo(budget-spent, budget-2*len(m.c.CCCs)) {
		return true
	}
	m.queue = m.queue[:0]
	m.qhead = 0
	clear(m.inQueue)
	return false
}

// drainTo pops and solves queued CCCs until the queue is empty (true) or
// budget solves are spent (false, the queue left as it stands).
//
// The machine's next state is a function of its values and its pending
// queue alone, and there are finitely many, so a settle that never drains
// is eventually periodic. Once the budget left is down to watch — a
// settle passes 2·NumCCCs solves there, which converging settles rarely
// do — drainTo runs Brent's cycle search on that exact state: a snapshot
// retaken whenever the solves since the last one reach a power of two,
// and compared, queue length first, before every solve. The first repeat
// gives the period, and the remaining budget drops by whole periods: the
// solves it skips would lead back to the state they start from, so the
// settle ends where stepping would.
func (m *Machine) drainTo(budget, watch int) bool {
	power, lam := 0, 0 // Brent: snapshot spacing, solves since it
	scratch := m.scr.changed
	for m.qhead < len(m.queue) {
		if budget <= watch {
			switch {
			case power == 0:
				m.snapshot()
				power = 1
			case m.atSnapshot():
				budget %= lam
				watch = -1
				m.fastForwards++
			case lam == power:
				m.snapshot()
				power *= 2
				lam = 0
			}
			lam++
		}
		if budget == 0 {
			m.scr.changed = scratch
			return false
		}
		budget--
		id := m.queue[m.qhead]
		m.qhead++
		m.inQueue[id] = false
		scratch = m.solveCCC(id, scratch[:0])
		if m.track {
			m.scr.touched = append(m.scr.touched, scratch...)
		}
		for _, net := range scratch {
			m.pushReaders(net)
		}
	}
	m.queue = m.queue[:0]
	m.qhead = 0
	m.scr.changed = scratch
	return true
}

// snapshot records the machine's values and pending queue for drainTo's
// cycle search.
func (m *Machine) snapshot() {
	m.scr.snapVal = append(m.scr.snapVal[:0], m.val...)
	m.scr.snapQueue = append(m.scr.snapQueue[:0], m.queue[m.qhead:]...)
}

// atSnapshot reports whether the machine is back in the snapshot's state.
func (m *Machine) atSnapshot() bool {
	q := m.queue[m.qhead:]
	return len(q) == len(m.scr.snapQueue) && slices.Equal(q, m.scr.snapQueue) && slices.Equal(m.val, m.scr.snapVal)
}

func (m *Machine) allX() bool {
	for i, v := range m.val {
		if i == layout.NetGND || i == layout.NetVDD {
			continue
		}
		if v != VX {
			return false
		}
	}
	return true
}

// Outputs returns the current PO values in netlist order.
func (m *Machine) Outputs() []Val {
	out := make([]Val, len(m.c.POs))
	for i, po := range m.c.POs {
		out[i] = m.val[po]
	}
	return out
}

// Run applies the vectors in order to a fresh fault-free machine and
// returns the PO values after each vector; out[k] is nil when the machine
// failed to settle on vector k, and it steps on from where the budget
// left it. It is the good-circuit switch-level simulation used to
// cross-validate against gate-level logic simulation, and the fault-free
// reference of the diagnosis replay.
func Run(c *transistor.Circuit, vectors []Vector) [][]Val {
	m := NewMachine(c)
	out := make([][]Val, len(vectors))
	for i, vec := range vectors {
		if m.Apply(vec) {
			out[i] = m.Outputs()
		}
	}
	return out
}
