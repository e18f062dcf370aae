package switchsim

import (
	"math/rand"
	"slices"
	"testing"

	"defectsim/internal/layout"
	"defectsim/internal/netlist"
	"defectsim/internal/transistor"
)

// goodLogs records the event log of every vector good settles on a
// machine carrying memo, as the campaign's good machine does before its
// workers step the vector, and fails unless each logged settle lands on
// good's next state.
func goodLogs(t testing.TB, c *transistor.Circuit, memo *cccMemo, good *goodRun, vecs []Vector) []*eventLog {
	t.Helper()
	m := NewMachine(c)
	m.memo = memo
	logs := make([]*eventLog, len(good.states)-1)
	for k := range logs {
		copy(m.val, good.states[k])
		logs[k] = new(eventLog)
		if !logs[k].record(m, vecs[k]) || !slices.Equal(m.val, good.states[k+1]) {
			t.Fatalf("%s vector %d: the logged settle misses the plain machine's state", c.Name, k)
		}
	}
	return logs
}

// solveCounts are a machine's solve and settle counters.
type solveCounts struct{ table, seed, class, relax, replay, forward, hand int64 }

func countsOf(m *Machine) solveCounts {
	return solveCounts{m.tableSolves, m.seedSolves, m.classSolves, m.relaxSolves, m.replaySolves, m.fastForwards, m.handOvers}
}

func (a solveCounts) minus(b solveCounts) solveCounts {
	return solveCounts{a.table - b.table, a.seed - b.seed, a.class - b.class, a.relax - b.relax,
		a.replay - b.replay, a.forward - b.forward, a.hand - b.hand}
}

// readVals returns the values of the nets the solve of CCC x reads: the
// memo key nets of the CCCs it solves (every library CCC has a key), then
// the bridge endpoint outside any CCC that a seed group reads.
func readVals(m *Machine, memo *cccMemo, x int) string {
	var b []byte
	ids, end := []int{x}, -1
	if si := m.plan.seedIndex(x); si >= 0 {
		g := m.plan.group(si)
		ids, end = g.ids[:g.n], g.end
	}
	for _, id := range ids {
		for _, n := range memo.cccs[id].in {
			b = append(b, byte(m.val[n]))
		}
	}
	if end >= 0 {
		b = append(b, byte(m.val[end]))
	}
	return string(b)
}

// solvedPop is one pop a walk solved: its position in the settle, its CCC
// and the values the solve read.
type solvedPop struct {
	pop, id int
	reads   string
}

// checkWalkStep runs one diverged step of the fault installed on wm and
// pm (carrying equal seed memos and the same class table) from pm's
// state, by walk on wm and by Apply on pm, and fails unless the verdict,
// the values and the solve counts agree: the walk solves and copies
// together as many pops as Apply solves, along the same seed, class and
// relaxation paths. ref, a plain machine with the same plan, is stepped
// one relaxation at a time to check that each pop the walk solved is the
// pop Apply makes at that position, from the same inputs. It reports
// whether the step settled and whether the walk handed over.
func checkWalkStep(t testing.TB, label string, wm, pm, ref *Machine, vec Vector, lg *eventLog) (ok, handed bool) {
	t.Helper()
	copy(wm.val, pm.val)
	copy(ref.val, pm.val)
	*wm.seeds = *pm.seeds
	var trail []solvedPop
	wm.wk.solved = func(pop, id int) { trail = append(trail, solvedPop{pop, id, readVals(wm, wm.memo, id)}) }
	w0, p0 := countsOf(wm), countsOf(pm)
	okW := wm.walk(vec, lg)
	okP := pm.Apply(vec)
	wm.wk.solved = nil
	dw, dp := countsOf(wm).minus(w0), countsOf(pm).minus(p0)
	if okW != okP || !slices.Equal(wm.val, pm.val) {
		t.Fatalf("%s: walk settled %v, Apply %v; values equal: %v", label, okW, okP, slices.Equal(wm.val, pm.val))
	}
	if dw.seed != dp.seed || dw.class != dp.class || dw.relax != dp.relax || dw.forward != dp.forward ||
		dw.table+dw.replay != dp.table || dp.replay != 0 {
		t.Fatalf("%s: walk counts %+v, Apply counts %+v", label, dw, dp)
	}
	// Plain stepping: the walk's solves are pops of the plain settle.
	ref.schedule(vec)
	var changed []int
	pop := 0
	for _, s := range trail {
		for ref.qhead < len(ref.queue) && pop < s.pop-1 {
			pop++
			changed = ref.stepPop(changed)
		}
		if ref.qhead == len(ref.queue) || ref.queue[ref.qhead] != s.id || readVals(ref, wm.memo, s.id) != s.reads {
			t.Fatalf("%s: the walk solved CCC %d as pop %d, reading %v; Apply pops %v there (queue empty: %v)",
				label, s.id, s.pop, []byte(s.reads), ref.queue[min(ref.qhead, len(ref.queue)-1)], ref.qhead == len(ref.queue))
		}
	}
	ref.queue, ref.qhead = ref.queue[:0], 0
	clear(ref.inQueue)
	return okP, dw.hand > 0
}

// stepPop pops and relaxes one CCC of a plain machine's queue.
func (m *Machine) stepPop(changed []int) []int {
	id := m.queue[m.qhead]
	m.qhead++
	m.inQueue[id] = false
	changed = m.relaxCCC(id, changed[:0])
	for _, n := range changed {
		m.pushReaders(n)
	}
	return changed
}

// TestDivergedWalkMatchesApply is the differential oracle for the
// event-log walk: along every simulable fault's campaign trajectory on
// the oracle circuits (the clean fast path while its state equals the
// good machine's, full steps after), at the hard and a weak bridge
// conductance, every diverged step is run both by walking the vector's
// log and by the plain Apply, from copies of one state, with equal seed
// memos and the campaign's class table. The two must end with the same
// values and verdict after the same number of pops along the same solve
// paths, and every pop the walk solves must be the pop Apply makes at
// that position, from the same inputs.
func TestDivergedWalkMatchesApply(t *testing.T) {
	for _, s := range oracleSetups(t) {
		logs := goodLogs(t, s.c, s.memo, s.good, s.vecs)
		for _, g := range []float64{BridgeG, 1.5} {
			shapes := newSeedClasses(s.c, s.memo, nil)
			classes := &seedTable{}
			var steps, handed int
			var replay, solved int64
			for _, plan := range s.plans {
				class := shapes.add(plan, nil)
				machine := func() *Machine {
					m := NewMachine(s.c)
					m.memo, m.classes = s.memo, classes
					m.install(plan, g, &seedMemo{class: class})
					m.ensureScratch()
					return m
				}
				wm, pm, ref := machine(), machine(), NewMachine(s.c)
				ref.install(plan, g, nil)
				ref.ensureScratch()
				clean, strikes := true, 0
				for k, vec := range s.vecs {
					if s.good.unsettledAt == k+1 {
						break
					}
					prev, post := s.good.states[k], s.good.states[k+1]
					var ok bool
					if clean {
						ok = pm.applyFromGood(post, prev, false)
					} else {
						if !logs[k].ok {
							t.Fatalf("%s vector %d: the good machine's log is unusable", s.name, k)
						}
						var h bool
						w0 := countsOf(wm)
						ok, h = checkWalkStep(t, s.name, wm, pm, ref, vec, logs[k])
						d := countsOf(wm).minus(w0)
						steps++
						replay += d.replay
						solved += d.table + d.seed + d.class + d.relax
						if h {
							handed++
						}
					}
					if !ok {
						clean = false
						if strikes++; strikes >= oscStrikeLimit {
							break
						}
						continue
					}
					if detects(s.c, post, pm.val) {
						break
					}
					clean = equalVals(pm.val, post)
				}
				classes.take(&pm.fresh)
			}
			if steps == 0 || replay == 0 {
				t.Fatalf("%s g=%g: %d diverged steps, %d pops copied from the log", s.name, g, steps, replay)
			}
			t.Logf("%s g=%g: %d diverged steps, %.1f%% handed over; %d pops copied, %d solved (%.1f%%)",
				s.name, g, steps, 100*float64(handed)/float64(steps), replay, solved, 100*float64(solved)/float64(solved+replay))
		}
	}
}

// FuzzDivergedWalk checks the walk on fuzzer-chosen states: a generated
// circuit, one of its simulable faults, a vector of a random sequence and
// the good machine's state before it with random nets redrawn (primary
// inputs and the fault's forced nets included), stepped by walking the
// vector's log and by the plain Apply, at the hard or a weak bridge
// conductance, and compared as in TestDivergedWalkMatchesApply.
func FuzzDivergedWalk(f *testing.F) {
	type setup struct {
		c     *transistor.Circuit
		memo  *cccMemo
		plans []*faultPlan
		vecs  []Vector
		good  *goodRun
		logs  []*eventLog
	}
	var setups []setup
	for _, nl := range []*netlist.Netlist{
		netlist.C17(), netlist.RippleAdder(3), netlist.MuxTree(2), netlist.Decoder(2), wideStages(),
		netlist.RandomCircuit("random", 7, 8, 3, 24),
	} {
		list, c := buildCampaign(f, nl)
		s := setup{c: c, memo: newCCCMemo(c), plans: oracleFaults(c, list), vecs: randomVectors(len(nl.PIs), 8, 3)}
		s.good = runGood(c, s.vecs)
		s.logs = goodLogs(f, c, s.memo, s.good, s.vecs)
		setups = append(setups, s)
	}
	f.Add(uint8(0), uint16(0), uint8(1), uint8(3), int64(1), false)
	f.Add(uint8(1), uint16(40), uint8(4), uint8(20), int64(2), true)
	f.Add(uint8(5), uint16(300), uint8(6), uint8(90), int64(3), false)
	f.Fuzz(func(t *testing.T, ci uint8, fi uint16, k, redraw uint8, seed int64, weak bool) {
		s := setups[int(ci)%len(setups)]
		plan := s.plans[int(fi)%len(s.plans)]
		kv := 1 + int(k)%(len(s.logs)-1)
		lg := s.logs[kv]
		if !lg.ok {
			t.Skip("the good machine's log is unusable")
		}
		g := BridgeG
		if weak {
			g = 1.5
		}
		machine := func(memo *cccMemo) *Machine {
			m := NewMachine(s.c)
			m.memo = memo
			var seeds *seedMemo
			if memo != nil {
				seeds = new(seedMemo)
			}
			m.install(plan, g, seeds)
			m.ensureScratch()
			return m
		}
		wm, pm, ref := machine(s.memo), machine(s.memo), machine(nil)
		rng := rand.New(rand.NewSource(seed))
		copy(pm.val, s.good.states[kv])
		for n := range pm.val {
			if n != layout.NetGND && n != layout.NetVDD && rng.Intn(256) < int(redraw) {
				pm.val[n] = Val(rng.Intn(3))
			}
		}
		checkWalkStep(t, "fuzz", wm, pm, ref, s.vecs[kv], lg)
	})
}
