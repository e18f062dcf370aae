package switchsim

import (
	"slices"

	"defectsim/internal/transistor"
)

// eventLog is the fault-free machine's settle of one vector, pop by pop:
// the queue entries in push order (entry e, 1-based, is CCC push[e-1],
// and a FIFO pops in push order, so pop e pops entry e), the entries each
// pop pushed (pop 0 is the schedule) and the nets each pop changed, with
// their new values. SimulateFaults records it as its good machine steps
// each vector, before the workers step it, and diverged faults walk the
// log (walk) instead of settling the whole circuit; it is only read while
// they do.
type eventLog struct {
	ok     bool    // the settle is logged in full and may be walked
	pre    []Val   // the good state after the schedule
	push   []int32 // entry e's CCC is push[e-1]
	parent []int32 // the pop that pushed entry e is parent[e-1]
	pushed []int32 // pop t pushed entries pushed[t]+1 .. pushed[t+1]
	wrote  []int32 // pop t ≥ 1 set wnet[i] to wval[i], wrote[t-1] ≤ i < wrote[t]
	wnet   []int32
	wval   []Val
	wpush  []int32 // the entries write i's readers were pushed as

	// Per CCC, its entries in order, occ[ooff[x]:ooff[x+1]] (holds), and
	// its gate nets, fixed by the circuit, gates[goff[x]:goff[x+1]].
	ooff, occ   []int32
	goff, gates []int32

	at []int32 // record's scratch for the counting sort
}

// record applies vec to good, a plain machine carrying the campaign's CCC
// memo, by Apply's settle, logging it, and reports whether the settle
// converged within its budget. The log is usable (ok) when it did. A
// schedule that queues every CCC (an all-X state) settles plainly and
// leaves the log unusable, and the vector's diverged steps take the plain
// path; so does a settle out of budget, which also ends the campaign.
func (lg *eventLog) record(good *Machine, vec Vector) bool {
	g, c := good, good.c
	g.ensureScratch()
	if lg.ooff == nil {
		lg.init(c)
	}
	lg.ok = false
	lg.push, lg.parent, lg.pushed = lg.push[:0], lg.parent[:0], append(lg.pushed[:0], 0)
	lg.wrote, lg.wnet, lg.wval, lg.wpush = append(lg.wrote[:0], 0), lg.wnet[:0], lg.wval[:0], lg.wpush[:0]

	for i, pi := range c.PIs {
		if g.val[pi] != vec[i] {
			g.val[pi] = vec[i]
			lg.pushReaders(g, pi, 0)
		}
	}
	if g.allX() {
		// Apply's schedule: the readers queued so far, then every CCC.
		for _, id := range lg.push {
			g.queue = append(g.queue, int(id))
		}
		for id := range c.CCCs {
			g.push(id)
		}
		return g.settle()
	}
	lg.pushed = append(lg.pushed, int32(len(lg.push)))
	lg.pre = append(lg.pre[:0], g.val...)

	budget := g.settleBudget()
	changed := g.scr.changed
	defer func() { g.scr.changed = changed }()
	for t := 0; t < len(lg.push); t++ {
		if t == budget {
			for _, id := range lg.push[t:] {
				g.inQueue[id] = false
			}
			return false
		}
		id := lg.push[t]
		g.inQueue[id] = false
		changed = g.solveCCC(int(id), changed[:0])
		for _, n := range changed {
			lg.wnet = append(lg.wnet, int32(n))
			lg.wval = append(lg.wval, g.val[n])
		}
		lg.wrote = append(lg.wrote, int32(len(lg.wnet)))
		for _, n := range changed {
			e := len(lg.push)
			lg.pushReaders(g, n, t+1)
			lg.wpush = append(lg.wpush, int32(len(lg.push)-e))
		}
		lg.pushed = append(lg.pushed, int32(len(lg.push)))
	}
	lg.ok = true

	// The per-CCC entry lists, by a counting sort, which keeps log order.
	clear(lg.ooff)
	for _, x := range lg.push {
		lg.ooff[x+1]++
	}
	for x := 1; x < len(lg.ooff); x++ {
		lg.ooff[x] += lg.ooff[x-1]
	}
	lg.occ = grow(lg.occ, len(lg.push))
	lg.at = append(lg.at[:0], lg.ooff...)
	for e, x := range lg.push {
		lg.occ[lg.at[x]] = int32(e + 1)
		lg.at[x]++
	}
	return true
}

// init sizes the log's per-CCC entry index for c and lists each CCC's
// gate nets, the inverse of c.Readers.
func (lg *eventLog) init(c *transistor.Circuit) {
	lg.ooff = make([]int32, len(c.CCCs)+1)
	lg.goff = make([]int32, len(c.CCCs)+1)
	for _, rs := range c.Readers {
		for _, r := range rs {
			lg.goff[r+1]++
		}
	}
	for x := 1; x < len(lg.goff); x++ {
		lg.goff[x] += lg.goff[x-1]
	}
	lg.gates = make([]int32, lg.goff[len(c.CCCs)])
	at := slices.Clone(lg.goff)
	for n, rs := range c.Readers {
		for _, r := range rs {
			lg.gates[at[r]] = int32(n)
			at[r]++
		}
	}
}

// grow returns buf resized to n elements, reallocated only when too small.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// pushReaders is the good machine's pushReaders during pop t, logging
// each push.
func (lg *eventLog) pushReaders(g *Machine, net, t int) {
	for _, r := range g.c.Readers[net] {
		if !g.inQueue[r] {
			g.inQueue[r] = true
			lg.push = append(lg.push, int32(r))
			lg.parent = append(lg.parent, int32(t))
		}
	}
}

// holds reports whether the good machine's queue holds CCC x after log
// pop t.
func (lg *eventLog) holds(x, t int) bool {
	for _, e := range lg.occ[lg.ooff[x]:lg.ooff[x+1]] {
		if int(e) > t {
			return int(lg.parent[e-1]) <= t
		}
	}
	return false
}

// scheduled returns CCC x's index among the schedule's pushes, or -1.
func (lg *eventLog) scheduled(x int) int {
	if o := lg.ooff[x]; o < lg.ooff[x+1] && lg.parent[lg.occ[o]-1] == 0 {
		return int(lg.occ[o]) - 1
	}
	return -1
}

// Queue sides of a CCC during a walk (walkState.qs).
const (
	qAdded   = 1 // the fault's queue holds it as an entry the good queue lacks
	qLacking = 2 // the good queue holds it as an entry the fault's queue lacks
)

// added is an entry the fault queued and the good machine did not; pos
// good entries precede it in push order.
type added struct{ x, pos int32 }

// walkState is a machine's scratch for walk, sized once and reused, so a
// walk allocates nothing in steady state.
//
// The fault's queue is the good machine's, less the entries in lack and
// plus those in add. good holds the good machine's values at the walk's
// position in the log (after the pops the good machine has made so far)
// and the machine's values are the fault's exact values there; diff marks
// the nets where the two differ. aff counts, per CCC, the differing nets
// it reads (its own nets and its gate nets), plus one for each seed, so a
// pop with aff 0 is a pure function of values the good machine's pop saw.
// hot counts, per net, the readers queued on one side only or on both
// sides as different entries (qs ≠ 0): a push attempt ends differently in
// the two machines only on those. stop adds to aff, per CCC, the hot
// readers of its own nets, so a pop with stop 0 is passed over without a
// look at its pushes.
type walkState struct {
	good   []Val   // per net
	diff   []bool  // per net
	dnets  []int32 // nets diff was set on this step (duplicates allowed)
	aff    []int32 // per CCC
	stop   []int32 // per CCC
	qs     []uint8 // per CCC: qAdded | qLacking
	hot    []int32 // per net
	add    []added // in push order
	lack   []int32 // log entries, ascending
	ah, lh int     // heads of add and lack

	// solved, when set (tests), is called before each pop the walk
	// solves, with the pop's 1-based position in the settle.
	solved func(pop, id int)
}

func (w *walkState) ensure(c *transistor.Circuit) {
	if w.diff == nil {
		w.good = make([]Val, c.NumNets)
		w.diff = make([]bool, c.NumNets)
		w.hot = make([]int32, c.NumNets)
		w.aff = make([]int32, len(c.CCCs))
		w.stop = make([]int32, len(c.CCCs))
		w.qs = make([]uint8, len(c.CCCs))
	}
}

// walk is Apply for a diverged fault on the vector lg logs (lg.ok): the
// same pops in the same order, with the same results, the same verdict
// and the same values, but a pop the fault shares with the good machine
// whose CCC is not a seed and reads no differing net is passed over: it
// would make the good pop's writes and pushes, which are copied instead.
//
// The schedule's pushes are matched in order against the good schedule's.
// After that, a pop attempts the good pop's pushes exactly when it changed
// the same nets, and an attempt ends differently in the two machines only
// on a CCC queued on one side alone, or on both as different entries
// (qs); so while none is, the good pop's entries are the fault's. A good
// entry the fault's queue lacks is passed over, its writes joining the
// difference. A walk whose pops reach 2·N, where the cycle search starts,
// hands its queue over to the plain settle loop, drainTo.
func (m *Machine) walk(vec Vector, lg *eventLog) bool {
	c, w := m.c, &m.wk
	m.ensureScratch()
	w.ensure(c)
	// The fault's schedule, then the difference against the good state
	// after the good schedule, eight nets at a time. The fault's pushes
	// are matched in order against the good ones: a good entry out of the
	// match is lacking, a fault entry out of it is added.
	m.schedule(vec)
	copy(w.good, lg.pre)
	n := 0
	for ; n+8 <= len(m.val); n += 8 {
		if word(m.val, n) != word(w.good, n) {
			for i := n; i < n+8; i++ {
				if m.val[i] != w.good[i] {
					w.setDiff(c, i)
				}
			}
		}
	}
	for ; n < len(m.val); n++ {
		if m.val[n] != w.good[n] {
			w.setDiff(c, n)
		}
	}
	j, n0 := 0, int(lg.pushed[1])
	for _, x := range m.queue {
		m.inQueue[x] = false
		i := j
		if j == n0 || int(lg.push[j]) != x {
			i = lg.scheduled(x)
		}
		if i >= j {
			for ; j < i; j++ {
				m.lackEntry(lg, j+1)
			}
			j = i + 1
		} else {
			m.addEntry(lg, x, j)
		}
	}
	for ; j < n0; j++ {
		m.lackEntry(lg, j+1)
	}
	m.queue = m.queue[:0]
	for _, s := range m.plan.seedCCCs {
		w.aff[s]++
		w.stop[s]++
	}

	hand, T := 2*len(c.CCCs), len(lg.push)
	t, pops := 0, 0 // log pops passed; the fault's pops
	changed := m.scr.changed
	defer func() { m.scr.changed = changed }()
	for {
		// Copy the shared pops before the next lacking entry, the next
		// added entry's turn and the hand-over whose CCCs read no
		// differing net and feed no one-sided reader.
		lim := min(T, t+hand-pops)
		if w.lh < len(w.lack) {
			lim = min(lim, int(w.lack[w.lh])-1)
		}
		if w.ah < len(w.add) {
			lim = min(lim, int(w.add[w.ah].pos))
		}
		from := t
		for t < lim && w.stop[lg.push[t]] == 0 {
			t++
		}
		pops += t - from
		m.replaySolves += int64(t - from)
		m.replay(lg, lg.wrote[from], lg.wrote[t])

		if w.ah < len(w.add) && int(w.add[w.ah].pos) <= t {
			if pops == hand {
				return m.handOver(lg, t, pops)
			}
			pops++
			x := int(w.add[w.ah].x)
			w.ah++
			m.mark(lg, x, qAdded, false)
			changed = m.walkSolve(lg, x, 0, pops, changed)
			m.pushFault(lg, t, changed)
			continue
		}
		if t == T {
			break
		}
		e := t + 1
		if w.lh < len(w.lack) && int(w.lack[w.lh]) == e {
			w.lh++
			m.passLacking(lg, e)
			t = e
			continue
		}
		if pops == hand {
			return m.handOver(lg, t, pops)
		}
		pops++
		x := int(lg.push[e-1])
		if w.aff[x] == 0 {
			t = e
			m.replaySolves++
			m.replay(lg, lg.wrote[e-1], lg.wrote[e])
			m.pushShared(lg, e)
			continue
		}
		changed = m.walkSolve(lg, x, e, pops, changed)
		t = e
		if sameNets(changed, lg.wnet[lg.wrote[e-1]:lg.wrote[e]]) {
			m.pushShared(lg, e)
			continue
		}
		for i := lg.pushed[e]; i < lg.pushed[e+1]; i++ {
			m.lackEntry(lg, int(i)+1)
		}
		m.pushFault(lg, e, changed)
	}
	m.walkReset(lg)
	return true
}

// handOver ends a walk after pops pops at log pop t: the queue is brought
// to the plain settle's state there and drainTo finishes the settle, its
// cycle search armed.
func (m *Machine) handOver(lg *eventLog, t, pops int) bool {
	w := &m.wk
	ai, li := w.ah, w.lh
	for e := t + 1; e <= int(lg.pushed[t+1]); e++ {
		for ; ai < len(w.add) && int(w.add[ai].pos) < e; ai++ {
			m.push(int(w.add[ai].x))
		}
		if li < len(w.lack) && int(w.lack[li]) == e {
			li++
			continue
		}
		m.push(int(lg.push[e-1]))
	}
	for ; ai < len(w.add); ai++ {
		m.push(int(w.add[ai].x))
	}
	m.walkReset(lg)
	m.handOvers++
	return m.settleFrom(pops)
}

// replay copies the logged writes i ≤ k < j, made by pops the fault shares
// and does not solve, into the fault's values and the good ones: those
// pops' CCCs read no differing net, so they write none.
func (m *Machine) replay(lg *eventLog, i, j int32) {
	good := m.wk.good
	for k := i; k < j; k++ {
		n, v := lg.wnet[k], lg.wval[k]
		m.val[n], good[n] = v, v
	}
}

// walkSolve solves the fault's pop of CCC x at the walk's position, log
// entry e (e > 0: the good machine makes the pop too) or an added entry
// (e = 0). The nets either machine's pop changed are then placed in or
// out of the difference; no other net's status can move.
func (m *Machine) walkSolve(lg *eventLog, x, e, pop int, changed []int) []int {
	if m.wk.solved != nil {
		m.wk.solved(pop, x)
	}
	changed = m.solveCCC(x, changed[:0])
	if e > 0 {
		m.goodPop(lg, e)
	}
	for _, n := range changed {
		m.place(n)
	}
	return changed
}

// goodPop makes log pop e's writes in the good values and places their
// nets in or out of the difference.
func (m *Machine) goodPop(lg *eventLog, e int) {
	for i := lg.wrote[e-1]; i < lg.wrote[e]; i++ {
		n := lg.wnet[i]
		m.wk.good[n] = lg.wval[i]
		m.place(int(n))
	}
}

// place puts net n in or out of the difference.
func (m *Machine) place(n int) {
	w := &m.wk
	if d := m.val[n] != w.good[n]; d != w.diff[n] {
		if d {
			w.setDiff(m.c, n)
		} else {
			w.clearDiff(m.c, n)
		}
	}
}

// passLacking moves the walk past log pop e, an entry the fault's queue
// lacks: the good machine's writes join the difference, the fault keeping
// the values they overwrite, and the entries the pop pushed are lacking
// too.
func (m *Machine) passLacking(lg *eventLog, e int) {
	m.mark(lg, int(lg.push[e-1]), qLacking, false)
	m.goodPop(lg, e)
	for i := lg.pushed[e]; i < lg.pushed[e+1]; i++ {
		m.lackEntry(lg, int(i)+1)
	}
}

// pushShared makes the push attempts of the fault's pop of log entry e
// when the pop changed the nets the good machine's did, so it attempts
// the same pushes: the good pop's entries are the fault's, except where
// an attempt meets a CCC queued on one side only, or on both as
// different entries. Attempts on the readers of a cold net end alike.
func (m *Machine) pushShared(lg *eventLog, e int) {
	w := &m.wk
	i, hi := int(lg.pushed[e]), int(lg.pushed[e+1])
	for k := lg.wrote[e-1]; k < lg.wrote[e]; k++ {
		n := lg.wnet[k]
		if w.hot[n] == 0 {
			i += int(lg.wpush[k])
			continue
		}
		for _, r := range m.c.Readers[n] {
			switch {
			case i < hi && int(lg.push[i]) == r:
				// The good machine queues r: the fault does too unless it
				// holds r already.
				i++
				if w.qs[r]&qAdded != 0 {
					m.lackEntry(lg, i)
				}
			case w.qs[r] == qLacking:
				// The good machine holds r on an entry the fault lacks.
				m.addEntry(lg, r, i)
			}
		}
	}
}

// pushFault makes the push attempts of a fault pop the log does not
// share, at log pop t: every entry it queues is one the good queue lacks.
// Solves change only CCC nets, and no bridge is keyed to a CCC net from
// outside, so the attempts are those of pushReaders.
func (m *Machine) pushFault(lg *eventLog, t int, changed []int) {
	w := &m.wk
	pos := int(lg.pushed[t+1])
	for _, n := range changed {
		for _, r := range m.c.Readers[n] {
			if s := w.qs[r]; s&qAdded == 0 && (s&qLacking != 0 || !lg.holds(r, t)) {
				m.addEntry(lg, r, pos)
			}
		}
	}
}

// addEntry queues x on the fault's side alone, after pos good entries.
func (m *Machine) addEntry(lg *eventLog, x, pos int) {
	m.wk.add = append(m.wk.add, added{int32(x), int32(pos)})
	m.mark(lg, x, qAdded, true)
}

// lackEntry marks log entry e as one the fault's queue lacks.
func (m *Machine) lackEntry(lg *eventLog, e int) {
	m.wk.lack = append(m.wk.lack, int32(e))
	m.mark(lg, int(lg.push[e-1]), qLacking, true)
}

// mark sets (on) or clears one queue side of CCC x, keeping hot and stop
// up to date.
func (m *Machine) mark(lg *eventLog, x int, side uint8, on bool) {
	w := &m.wk
	s := w.qs[x]
	if on {
		w.qs[x] = s | side
	} else {
		w.qs[x] = s &^ side
	}
	d := int32(0)
	switch {
	case s == 0 && w.qs[x] != 0:
		d = 1
	case s != 0 && w.qs[x] == 0:
		d = -1
	default:
		return
	}
	for _, n := range lg.gates[lg.goff[x]:lg.goff[x+1]] {
		w.hot[n] += d
		if o := m.c.CCCOf[n]; o >= 0 {
			w.stop[o] += d
		}
	}
}

// setDiff marks net n as differing from the good machine.
func (w *walkState) setDiff(c *transistor.Circuit, n int) {
	w.diff[n] = true
	w.dnets = append(w.dnets, int32(n))
	w.count(c, n, 1)
}

// clearDiff marks net n as matching the good machine again.
func (w *walkState) clearDiff(c *transistor.Circuit, n int) {
	w.diff[n] = false
	w.count(c, n, -1)
}

// count adds d to aff and stop of every CCC that reads net n.
func (w *walkState) count(c *transistor.Circuit, n int, d int32) {
	for _, r := range c.Readers[n] {
		w.aff[r] += d
		w.stop[r] += d
	}
	if o := c.CCCOf[n]; o >= 0 {
		w.aff[o] += d
		w.stop[o] += d
	}
}

// walkReset drops the walk's bookkeeping: the difference, aff and the
// queue sides.
func (m *Machine) walkReset(lg *eventLog) {
	w := &m.wk
	for _, a := range w.add[w.ah:] {
		m.mark(lg, int(a.x), qAdded, false)
	}
	for _, e := range w.lack[w.lh:] {
		m.mark(lg, int(lg.push[e-1]), qLacking, false)
	}
	for _, n := range w.dnets {
		w.diff[n] = false
	}
	clear(w.aff)
	clear(w.stop)
	w.dnets, w.add, w.lack = w.dnets[:0], w.add[:0], w.lack[:0]
	w.ah, w.lh = 0, 0
}

// sameNets reports whether a solve changed exactly the nets a log pop
// did, in the same order.
func sameNets(changed []int, logged []int32) bool {
	if len(changed) != len(logged) {
		return false
	}
	for i, n := range changed {
		if int32(n) != logged[i] {
			return false
		}
	}
	return true
}
