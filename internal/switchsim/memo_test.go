package switchsim

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"defectsim/internal/fault"
	"defectsim/internal/layout"
	"defectsim/internal/netlist"
	"defectsim/internal/obs"
	"defectsim/internal/transistor"
)

// wideStages builds a netlist of 4-input NAND/NOR/AND/OR gates: their
// NAND4/NOR4 stages are the widest CCCs the cell library makes (four gate
// nets, the output and three series-stack nodes: 8 key nets). No
// generator emits 4-input gates; only .bench input can.
func wideStages() *netlist.Netlist {
	nl := netlist.New("wide4")
	a, b, c := nl.AddPI("a"), nl.AddPI("b"), nl.AddPI("c")
	d, e, f := nl.AddPI("d"), nl.AddPI("e"), nl.AddPI("f")
	n1 := nl.AddGate(netlist.Nand, "n1", a, b, c, d)
	n2 := nl.AddGate(netlist.Nor, "n2", b, c, d, e)
	n3 := nl.AddGate(netlist.And, "n3", n1, n2, e, f)
	n4 := nl.AddGate(netlist.Or, "n4", a, n1, n3, f)
	n5 := nl.AddGate(netlist.Nand, "n5", n3, n4, c)
	y := nl.AddGate(netlist.Nor, "y", n5, n2, a, d)
	for _, po := range []int{n3, n4, n5, y} {
		nl.MarkPO(po)
	}
	return nl
}

// wideStagesRewired is wideStages' gate mix on other nets and in another
// order, so the seed classes of the widest CCCs have seeds in two
// circuits.
func wideStagesRewired() *netlist.Netlist {
	nl := netlist.New("wide4r")
	a, b, c := nl.AddPI("a"), nl.AddPI("b"), nl.AddPI("c")
	d, e := nl.AddPI("d"), nl.AddPI("e")
	n1 := nl.AddGate(netlist.Nor, "n1", a, c, e, b)
	n2 := nl.AddGate(netlist.Nand, "n2", d, a, b, e)
	n3 := nl.AddGate(netlist.Or, "n3", n2, c, n1, d)
	n4 := nl.AddGate(netlist.And, "n4", n3, e, a, n1)
	y := nl.AddGate(netlist.Nand, "y", n4, n2, n3, b)
	z := nl.AddGate(netlist.Nor, "z", n1, n4, c)
	for _, po := range []int{n3, n4, y, z} {
		nl.MarkPO(po)
	}
	return nl
}

// TestMemoTableMatchesRelaxation is the exhaustive oracle for the CCC
// memo: for every CCC of every circuit and every 0/1/X assignment of its
// key nets, the replayed entry's new values and changed-net order equal
// the relaxation's on a plain machine in that state. Entries are filled
// with every non-key net at X and replayed with the non-key nets
// randomized, so a net the relaxation reads but the key leaves out would
// show as a mismatch.
func TestMemoTableMatchesRelaxation(t *testing.T) {
	circuits := []*netlist.Netlist{
		netlist.C17(),
		netlist.C432Class(1994),
		netlist.RippleAdder(4),
		netlist.MuxTree(2),
		netlist.ParityTree(8),
		netlist.Comparator(3),
		netlist.Decoder(3),
		wideStages(),
	}
	rng := rand.New(rand.NewSource(1))
	for _, nl := range circuits {
		_, c := circuitFor(t, nl)
		memo := newCCCMemo(c)
		fill, ref := NewMachine(c), NewMachine(c)
		fill.memo = memo
		fill.ensureScratch()
		ref.ensureScratch()
		widest, entries := 0, 0
		var got, want []int
		for id := range c.CCCs {
			tb := &memo.cccs[id]
			if tb.in == nil {
				t.Fatalf("%s: CCC %d (%d nets) has no table", nl.Name, id, len(c.CCCs[id]))
			}
			widest = max(widest, len(tb.in))
			entries += len(tb.tab)
			set := func(m *Machine, idx int) {
				for _, n := range tb.in {
					m.val[n] = Val(idx % 3)
					idx /= 3
				}
			}
			for idx := range tb.tab {
				set(fill, idx)
				fill.solveCCC(id, nil)
				if tb.tab[idx].Load() == 0 {
					t.Fatalf("%s: CCC %d entry %d not filled", nl.Name, id, idx)
				}
			}
			for n := range c.NumNets {
				if n != layout.NetGND && n != layout.NetVDD {
					v := Val(rng.Intn(3))
					fill.val[n], ref.val[n] = v, v
				}
			}
			before := fill.tableSolves
			for idx := range tb.tab {
				set(fill, idx)
				set(ref, idx)
				got = fill.solveCCC(id, got[:0])
				want = ref.solveCCC(id, want[:0])
				if !slices.Equal(got, want) {
					t.Fatalf("%s: CCC %d entry %d: table changed %v, relaxation changed %v", nl.Name, id, idx, got, want)
				}
				for _, n := range c.CCCs[id] {
					if fill.val[n] != ref.val[n] {
						t.Fatalf("%s: CCC %d entry %d: net %d is %v from the table, %v from the relaxation",
							nl.Name, id, idx, n, fill.val[n], ref.val[n])
					}
				}
			}
			if fill.tableSolves-before != int64(len(tb.tab)) {
				t.Fatalf("%s: CCC %d: %d of %d replays took the table", nl.Name, id, fill.tableSolves-before, len(tb.tab))
			}
		}
		if nl.Name == "wide4" && widest != memoMaxNets {
			t.Fatalf("wide4: widest CCC key spans %d nets, want %d", widest, memoMaxNets)
		}
		t.Logf("%s: %d CCCs, %d entries, widest key %d nets", nl.Name, len(c.CCCs), entries, widest)
	}
}

// TestCCCSolveCountsWorkerInvariant pins swsim_ccc_solves,
// swsim_settle_fastforwards_total and swsim_walk_handovers_total:
// "table" counts the solves eligible for the shared table (not its hits),
// "replay" the pops a diverged fault's walk copied from the good
// machine's event log instead, "seed" the seed solves a fault's own seed
// memo served, "class" those the class table served and "relax" every
// real relaxation. A seed memo is private to its fault, the class table
// changes only between vectors and the event log is written before the
// workers step a vector, so every count is the same for any worker
// count, and a campaign walking every usable log serves most solves
// from the tables and the log. The walk leaves every pop in place, so
// the campaign with every diverged step on the plain Apply makes the
// same seed, class and relaxation solves and fast-forwards, and its
// table solves are the walk's table and replay pops together.
func TestCCCSolveCountsWorkerInvariant(t *testing.T) {
	nl := wideStages()
	list, c := buildCampaign(t, nl)
	vecs := randomVectors(len(nl.PIs), 32, 5)
	counts := func(workers, walkFrom int) solveCounts {
		reg := obs.NewRegistry()
		if _, err := simulateFaults(context.Background(), c, list, vecs, workers, BridgeG, reg, nil, walkFrom); err != nil {
			t.Fatal(err)
		}
		v := reg.CounterVec("swsim_ccc_solves", "path")
		return solveCounts{v.With("table").Value(), v.With("seed").Value(), v.With("class").Value(), v.With("relax").Value(),
			v.With("replay").Value(), reg.Counter("swsim_settle_fastforwards_total").Value(),
			reg.Counter("swsim_walk_handovers_total").Value()}
	}
	want := counts(1, 0)
	if want.seed == 0 || want.class == 0 || want.relax == 0 || want.replay == 0 || want.table+want.replay <= want.relax {
		t.Fatalf("swsim_ccc_solves: %+v; want seed, class, relax and replay > 0 and table + replay > relax", want)
	}
	for _, w := range []int{4, 0} {
		if got := counts(w, 0); got != want {
			t.Fatalf("workers=%d: counts %+v, want %+v", w, got, want)
		}
	}
	plain := counts(1, math.MaxInt)
	if plain.seed != want.seed || plain.class != want.class || plain.relax != want.relax || plain.forward != want.forward ||
		plain.table != want.table+want.replay || plain.replay != 0 || plain.hand != 0 {
		t.Fatalf("every diverged step on the plain path: counts %+v; the walk's %+v", plain, want)
	}
	t.Logf("table %d, replay %d, seed %d, class %d, relax %d solves; %d settles fast-forwarded, %d walks handed over",
		want.table, want.replay, want.seed, want.class, want.relax, want.forward, want.hand)
}

// walkHooks are what walkFault calls on its way: settle before each
// settle, solve and solved around each seed-CCC solve (the machine in the
// state before, then after it), and stuck when a settle runs out of
// budget, the queue still holding what is pending. Any may be nil.
type walkHooks struct {
	settle       func()
	solve        func(si, id int)
	solved       func(si, id int, changed []int)
	stuck        func()
	stuckSettles int // settles that ran out of budget
}

// walkFault steps the fault installed on the plain machine m along its
// campaign trajectory over vecs: the clean fast path while its state
// equals the good machine's, full applies once it diverges, until it is
// detected or strikes out. Every settle is stepped plainly: one
// relaxation per popped CCC, no cycle search, within settle's budget.
func walkFault(m *Machine, good *goodRun, vecs []Vector, h *walkHooks) {
	m.ensureScratch()
	clean, strikes := true, 0
	for k, vec := range vecs {
		if good.unsettledAt == k+1 {
			return
		}
		goodPrev, goodPost := good.states[k], good.states[k+1]
		if clean {
			m.scheduleFromGood(goodPost, goodPrev, false)
		} else {
			m.schedule(vec)
		}
		if !h.step(m) {
			clean = false
			if strikes++; strikes >= oscStrikeLimit {
				return
			}
			continue
		}
		if detects(m.c, goodPost, m.val) {
			return
		}
		clean = equalVals(m.val, goodPost)
	}
}

// step is one plainly stepped settle of walkFault.
func (h *walkHooks) step(m *Machine) bool {
	if h.settle != nil {
		h.settle()
	}
	budget := 8*len(m.c.CCCs) + 64
	var changed []int
	for m.qhead < len(m.queue) {
		if budget == 0 {
			h.stuckSettles++
			if h.stuck != nil {
				h.stuck()
			}
			m.queue, m.qhead = m.queue[:0], 0
			clear(m.inQueue)
			return false
		}
		budget--
		id := m.queue[m.qhead]
		m.qhead++
		m.inQueue[id] = false
		si := m.plan.seedIndex(id)
		if si >= 0 && h.solve != nil {
			h.solve(si, id)
		}
		changed = m.relaxCCC(id, changed[:0])
		if si >= 0 && h.solved != nil {
			h.solved(si, id, changed)
		}
		for _, net := range changed {
			m.pushReaders(net)
		}
	}
	m.queue, m.qhead = m.queue[:0], 0
	return true
}

// oracleFaults lists the plans of c's simulable faults.
func oracleFaults(c *transistor.Circuit, list *fault.List) []*faultPlan {
	var plans []*faultPlan
	for _, f := range list.Faults {
		if p, v := planFault(c, f); v == VerdictSimulate {
			plans = append(plans, p)
		}
	}
	return plans
}

// oracleSetup is one oracle circuit's campaign inputs: its fault plans,
// vectors, good machine's trajectory and CCC memo.
type oracleSetup struct {
	name  string
	c     *transistor.Circuit
	plans []*faultPlan
	vecs  []Vector
	good  *goodRun
	memo  *cccMemo
}

// oracleSetups builds the oracle circuits' campaigns over at most 24
// random vectors; under -race it leaves out the random circuit, whose
// thousands of faults relax every solve of the plain walk.
func oracleSetups(t *testing.T) []oracleSetup {
	var out []oracleSetup
	for _, oc := range oracleCircuits() {
		if raceEnabled && oc.nl.Name == "random" {
			continue
		}
		out = append(out, newOracleSetup(t, oc.nl, min(oc.vectors, 24)))
	}
	return out
}

// newOracleSetup builds nl's campaign over n random vectors.
func newOracleSetup(t *testing.T, nl *netlist.Netlist, n int) oracleSetup {
	list, c := buildCampaign(t, nl)
	vecs := randomVectors(len(nl.PIs), n, 11)
	return oracleSetup{nl.Name, c, oracleFaults(c, list), vecs, runGood(c, vecs), newCCCMemo(c)}
}

// seedOracle checks every seed-group solve of a walk against the seed
// memo and class table path of a campaign machine.
type seedOracle struct {
	t         *testing.T
	ref, memo *Machine
	got       []int
	hits      int // seed solves served from the fault's memo, filled in another state
	classHits int // seed solves served from the class table
	checks    int
}

// solve runs the memo path from the plain machine's current state,
// twice when the first solve filled a new entry, so the result checked is
// always a replay.
func (o *seedOracle) solve(si, id int) {
	for try := 0; try < 2; try++ {
		copy(o.memo.val, o.ref.val)
		seed, class, relax := o.memo.seedSolves, o.memo.classSolves, o.memo.relaxSolves
		o.got = o.memo.solveCCC(id, o.got[:0])
		switch {
		case o.memo.seedSolves > seed || o.memo.classSolves > class:
			o.checks++
			if o.memo.classSolves > class {
				o.classHits++
			} else if try == 0 {
				o.hits++
			}
			return
		case o.memo.relaxSolves == relax:
			o.t.Fatalf("seed CCC %d: solve took neither a table nor the relaxation", id)
		}
	}
	o.t.Fatalf("seed CCC %d: a freshly filled key missed on replay", id)
}

// solved compares the replay with the relaxation that just ran.
func (o *seedOracle) solved(si, id int, changed []int) {
	if !slices.Equal(o.got, changed) || !slices.Equal(o.memo.val, o.ref.val) {
		o.t.Fatalf("%s: seed CCC %d: memo changed %v, relaxation changed %v (states equal: %v)",
			o.ref.c.Name, id, o.got, changed, slices.Equal(o.memo.val, o.ref.val))
	}
}

// TestSeedMemoMatchesRelaxation is the oracle for the per-fault seed memo
// and the class table: for every simulable fault of the oracle circuits,
// every seed-group solve on the fault's campaign trajectory (the clean
// fast path until it diverges, full applies after) is replayed from a
// campaign machine's seed memo or class table — filled first when the key
// is new — and must equal relaxCCC on a plain machine in the same state,
// in new values and changed-net order, at the hard and a weak bridge
// conductance. The class table takes each fault's relaxations once its
// walk ends, so a class hit replays an entry another fault filled; memo
// entries filled in one state and replayed in another check that the key
// holds every net the relaxation reads.
func TestSeedMemoMatchesRelaxation(t *testing.T) {
	if raceEnabled {
		t.Skip("one goroutine, nothing to race; the plain tier runs it (~40 s under -race)")
	}
	for _, s := range oracleSetups(t) {
		for _, g := range []float64{BridgeG, 1.5} {
			shapes := newSeedClasses(s.c, s.memo, nil)
			classes := &seedTable{}
			hits, classHits, checks := 0, 0, 0
			for _, plan := range s.plans {
				o := &seedOracle{t: t, ref: NewMachine(s.c), memo: NewMachine(s.c)}
				o.ref.install(plan, g, nil)
				o.memo.memo = s.memo
				o.memo.classes = classes
				o.memo.install(plan, g, &seedMemo{class: shapes.add(plan, nil)})
				o.memo.ensureScratch()
				walkFault(o.ref, s.good, s.vecs, &walkHooks{solve: o.solve, solved: o.solved})
				classes.take(&o.memo.fresh)
				hits += o.hits
				classHits += o.classHits
				checks += o.checks
			}
			if hits == 0 || classHits == 0 {
				t.Fatalf("%s g=%g: %d memo replays of entries filled in another state, %d class replays; want both > 0",
					s.name, g, hits, classHits)
			}
			t.Logf("%s g=%g: %d seed replays checked, %d from the fault's memo filled in another state, %d from the class table",
				s.name, g, checks, hits, classHits)
		}
	}
}

// classKey and classEntry are a class-table entry of the class oracles:
// the result a seed relaxation left under (class, key), and the circuit
// and fault that filled it.
type (
	classKey struct {
		cls int32
		key uint64
	}
	classEntry struct {
		circuit, plan int
		res           uint64
	}
)

// classWalk walks every simulable fault of circuit s along its campaign
// trajectory at bridge conductance g, numbering seed classes in ids.
// Every seed relaxation that reaches a (class, key) another fault filled
// in table — of this circuit (index circuit) or another — first replays
// that entry onto the fault's own nets, and the replay must equal
// relaxCCC on the plain machine in that state, in new values and
// changed-net order. With fill set, the first relaxation to reach a
// (class, key) fills it. classWalk returns the replays it checked, those
// of them on the widest CCCs (memoMaxNets key nets) and the seeds it
// found per class.
func classWalk(t *testing.T, s oracleSetup, g float64, ids *classIDs, table map[classKey]classEntry, fill bool, circuit int) (checks, widest int, members map[int32]int) {
	shapes := newSeedClasses(s.c, s.memo, ids)
	members = map[int32]int{}
	for pi, plan := range s.plans {
		ref, rep := NewMachine(s.c), NewMachine(s.c)
		ref.memo, rep.memo = s.memo, s.memo
		ref.install(plan, g, nil)
		rep.install(plan, g, nil)
		class := shapes.add(plan, nil)
		for _, cls := range class {
			if cls >= 0 {
				members[cls]++
			}
		}
		var (
			ck           classKey
			have, replay bool
			got          []int
		)
		h := &walkHooks{
			solve: func(si, id int) {
				key, ok := ref.seedKey(ref.groupOf(id))
				ck, have = classKey{class[si], key}, ok && class[si] >= 0
				replay = false
				if !have {
					return
				}
				if e, ok := table[ck]; ok && (e.circuit != circuit || e.plan != pi) {
					copy(rep.val, ref.val)
					got = rep.replaySeed(rep.groupOf(id), e.res, got[:0])
					replay = true
				}
			},
			solved: func(si, id int, changed []int) {
				if !have {
					return
				}
				if _, ok := table[ck]; !ok && fill {
					table[ck] = classEntry{circuit, pi, ref.seedResult(ref.groupOf(id), ck.key)}
				}
				if !replay {
					return
				}
				checks++
				if len(s.memo.cccs[id].in) == memoMaxNets {
					widest++
				}
				if !slices.Equal(got, changed) || !slices.Equal(rep.val, ref.val) {
					t.Fatalf("%s g=%g: seed CCC %d (class %d): class entry changed %v, relaxation changed %v (states equal: %v)",
						s.name, g, id, ck.cls, got, changed, slices.Equal(rep.val, ref.val))
				}
			},
		}
		walkFault(ref, s.good, s.vecs, h)
	}
	return checks, widest, members
}

// TestSeedClassMatchesRelaxation is the cross-fault oracle for seed
// classes: along every simulable fault's campaign trajectory, each seed
// relaxation is stored under its (class, key) the first time any fault
// reaches it, and every other fault of the class that reaches a state
// with that key replays the stored result onto its own nets. The replay
// must equal relaxCCC on the plain machine in that state, in new values
// and changed-net order, at the hard and a weak bridge conductance.
func TestSeedClassMatchesRelaxation(t *testing.T) {
	for _, s := range oracleSetups(t) {
		for _, g := range []float64{BridgeG, 1.5} {
			table := map[classKey]classEntry{}
			checks, _, members := classWalk(t, s, g, nil, table, true, 0)
			shared := 0
			for _, n := range members {
				if n > 1 {
					shared++
				}
			}
			if checks == 0 {
				t.Fatalf("%s g=%g: no fault replayed another fault's class entry", s.name, g)
			}
			t.Logf("%s g=%g: %d classes (%d with several seeds), %d entries, %d cross-fault replays checked",
				s.name, g, len(members), shared, len(table), checks)
		}
	}
}

// TestSeedClassAcrossCircuits is the oracle that makes a seed class
// circuit-independent, as a Memo shared by several designs needs: the
// class table is filled from every simulable fault of one circuit at
// BridgeG, and each entry is replayed on the faults of the same class in
// another circuit, numbered by the same classIDs, against relaxCCC on a
// plain machine there. The two wide circuits replay entries of the
// widest CCCs.
func TestSeedClassAcrossCircuits(t *testing.T) {
	for _, pair := range []struct {
		from, to func() *netlist.Netlist
		vectors  int
		large    bool
	}{
		{netlist.C17, func() *netlist.Netlist { return netlist.RippleAdder(4) }, 24, false},
		{func() *netlist.Netlist { return netlist.Comparator(4) }, func() *netlist.Netlist { return netlist.MuxTree(3) }, 24, false},
		{wideStages, wideStagesRewired, 24, false},
		{func() *netlist.Netlist { return netlist.C432Class(1994) }, func() *netlist.Netlist { return netlist.C432Class(3) }, 8, true},
	} {
		from, to := pair.from(), pair.to()
		t.Run(from.Name+"->"+to.Name, func(t *testing.T) {
			if raceEnabled && pair.large {
				t.Skip("one goroutine, nothing to race; the plain tier runs it")
			}
			ids, table := &classIDs{}, map[classKey]classEntry{}
			classWalk(t, newOracleSetup(t, from, pair.vectors), BridgeG, ids, table, true, 0)
			checks, widest, members := classWalk(t, newOracleSetup(t, to, pair.vectors), BridgeG, ids, table, false, 1)
			if checks == 0 {
				t.Fatalf("no fault of %s replayed an entry %s filled", to.Name, from.Name)
			}
			if from.Name == "wide4" && widest == 0 {
				t.Fatalf("no fault of %s replayed an entry of the widest CCCs", to.Name)
			}
			t.Logf("%d entries from %s; %d classes in %s, %d in both circuits together; %d cross-circuit replays checked, %d on the widest CCCs",
				len(table), from.Name, len(members), to.Name, ids.len(), checks, widest)
		})
	}
}

// FuzzSeedGroupMemo checks the seed memo on fuzzer-chosen states: a
// generated circuit, one of its simulable faults, one of that fault's
// seed CCCs and a random assignment of every net. The entry filled in that
// state is replayed in a second state that keeps the key but re-draws
// every net the key leaves out, and must equal relaxCCC there on a plain
// machine, bit for bit, at the hard or a weak bridge conductance.
func FuzzSeedGroupMemo(f *testing.F) {
	type setup struct {
		c     *transistor.Circuit
		memo  *cccMemo
		plans []*faultPlan
	}
	var setups []setup
	for _, nl := range []*netlist.Netlist{
		netlist.C17(), netlist.RippleAdder(3), netlist.MuxTree(2), netlist.Decoder(2), wideStages(),
		netlist.RandomCircuit("random", 7, 8, 3, 24),
	} {
		list, c := buildCampaign(f, nl)
		s := setup{c: c, memo: newCCCMemo(c)}
		for _, flt := range list.Faults {
			if p, v := planFault(c, flt); v == VerdictSimulate && len(p.seedCCCs) > 0 {
				s.plans = append(s.plans, p)
			}
		}
		setups = append(setups, s)
	}
	f.Add(uint8(0), uint16(0), uint8(0), int64(1), false)
	f.Add(uint8(1), uint16(40), uint8(1), int64(2), true)
	f.Add(uint8(5), uint16(300), uint8(0), int64(3), false)
	f.Fuzz(func(t *testing.T, ci uint8, fi uint16, si uint8, seed int64, weak bool) {
		s := setups[int(ci)%len(setups)]
		plan := s.plans[int(fi)%len(s.plans)]
		id := plan.seedCCCs[int(si)%len(plan.seedCCCs)]
		g := BridgeG
		if weak {
			g = 1.5
		}
		rng := rand.New(rand.NewSource(seed))
		m, ref := NewMachine(s.c), NewMachine(s.c)
		m.memo = s.memo
		m.install(plan, g, new(seedMemo))
		ref.install(plan, g, nil)
		m.ensureScratch()
		ref.ensureScratch()
		draw := func(n int) bool { return n != layout.NetGND && n != layout.NetVDD }
		for n := range m.val {
			if draw(n) {
				m.val[n] = Val(rng.Intn(3))
			}
		}
		key, ok := m.seedKey(m.groupOf(id))
		if !ok {
			t.Skip("seed group too wide for a key")
		}
		pre := slices.Clone(m.val)
		m.solveCCC(id, nil)
		copy(m.val, pre)
		for n := range m.val {
			if !draw(n) {
				continue
			}
			old := m.val[n]
			m.val[n] = Val(rng.Intn(3))
			if k, _ := m.seedKey(m.groupOf(id)); k != key {
				m.val[n] = old
			}
		}
		copy(ref.val, m.val)
		hits := m.seedSolves
		got := m.solveCCC(id, nil)
		want := ref.relaxCCC(id, nil)
		if m.seedSolves != hits+1 {
			t.Fatalf("CCC %d: replay in a state with the same key missed the seed memo", id)
		}
		if !slices.Equal(got, want) || !slices.Equal(m.val, ref.val) {
			t.Fatalf("CCC %d: memo changed %v, relaxation changed %v (states equal: %v)",
				id, got, want, slices.Equal(m.val, ref.val))
		}
	})
}

// TestSeedShapeSeparatesRelaxationInputs pins the two class components
// no generated circuit varies apart from the others — which nets a plan
// forces (only trunk opens force a net, and they also remove every device
// on it) and device conductance (equal for every device of a type and
// stack position in the library) — so the class oracles above cannot see
// them go missing. relaxCCC reads both, so the class must change with
// either.
func TestSeedShapeSeparatesRelaxationInputs(t *testing.T) {
	list, c := buildCampaign(t, netlist.C17())
	memo := newCCCMemo(c)
	shape := func(c *transistor.Circuit, p *faultPlan, si int) string {
		m := NewMachine(c)
		m.memo = memo
		m.install(p, BridgeG, nil)
		sig, ok := m.seedShape(p.seedCCCs[si], nil)
		if !ok {
			t.Fatal("seed group without a key")
		}
		return string(sig)
	}
	for _, plan := range oracleFaults(c, list) {
		if len(plan.forced) == 0 {
			continue
		}
		si := plan.seedIndex(c.CCCOf[plan.forced[0].net])
		if si < 0 {
			continue
		}
		unforced := *plan
		unforced.forced = nil
		resized := *c
		resized.Devices = slices.Clone(c.Devices)
		for _, di := range c.DevsOf[plan.seedCCCs[si]] {
			if !plan.isRemoved(di) {
				resized.Devices[di].Conductance *= 2
				break
			}
		}
		base := shape(c, plan, si)
		if shape(c, &unforced, si) == base {
			t.Error("dropping the forced net leaves the seed class unchanged")
		}
		if shape(&resized, plan, si) == base {
			t.Error("resizing a device leaves the seed class unchanged")
		}
		return
	}
	t.Fatal("no fault forces a net inside its seed group")
}

// TestSeedGroupMatchesRelaxationOrder pins faultPlan.group against the
// group relaxCCC discovers: from the seed, every CCC its plan's bridges
// reach, transitively, in discovery order, and the bridge endpoints
// outside any CCC, rails excluded, which the seed key packs after them.
func TestSeedGroupMatchesRelaxationOrder(t *testing.T) {
	for _, nl := range []*netlist.Netlist{netlist.C17(), netlist.RippleAdder(4), netlist.MuxTree(3), wideStages(),
		netlist.RandomCircuit("random", 1994, 24, 6, 100)} {
		list, c := buildCampaign(t, nl)
		bridged := 0
		for _, plan := range oracleFaults(c, list) {
			for si, id := range plan.seedCCCs {
				cccs, ends := []int{id}, []int{}
				for i := 0; i < len(cccs); i++ {
					for _, br := range plan.extraFor(cccs[i]) {
						for _, n := range br {
							if oc := c.CCCOf[n]; oc >= 0 && !slices.Contains(cccs, oc) {
								cccs = append(cccs, oc)
							}
						}
					}
				}
				for _, g := range cccs {
					for _, br := range plan.extraFor(g) {
						for _, n := range br {
							if c.CCCOf[n] < 0 && n != layout.NetGND && n != layout.NetVDD {
								ends = append(ends, n)
							}
						}
					}
				}
				g := plan.group(si)
				gotEnds := []int{}
				if g.end >= 0 {
					gotEnds = append(gotEnds, g.end)
				}
				if !slices.Equal(g.ids[:g.n], cccs) || !slices.Equal(gotEnds, ends) {
					t.Fatalf("%s: seed %d: group %v ends %v, relaxation discovers %v ends %v",
						nl.Name, id, g.ids[:g.n], gotEnds, cccs, ends)
				}
				if len(cccs) > 1 || len(ends) > 0 {
					bridged++
				}
			}
		}
		if bridged == 0 {
			t.Fatalf("%s: no seed group reaches past its seed", nl.Name)
		}
	}
}

// setSeedKey writes key's values onto the nets seedKey packs for group,
// in seedKey's order.
func setSeedKey(m *Machine, group seedGroup, key uint64) {
	shift := 0
	set := func(n int) {
		m.val[n] = Val(key>>shift) & 3
		shift += 2
	}
	for _, g := range group.ids[:group.n] {
		for _, n := range m.memo.cccs[g].in {
			set(int(n))
		}
	}
	if group.end >= 0 {
		set(group.end)
	}
}

// FuzzSeedClass checks class sharing on fuzzer-chosen states: a seed
// class numbered once over several circuits and two of its seeds — any
// two, or with cross set two in different circuits when the class has
// seeds in more than one — each in a random state, the two carrying one
// key on their own nets. The first relaxes and its entry goes to a class
// table; the second must be served from that entry and equal relaxCCC
// there on a plain machine, bit for bit, at the hard or a weak bridge
// conductance. The two wide circuits give the widest CCCs' classes seeds
// in two circuits.
func FuzzSeedClass(f *testing.F) {
	type member struct {
		c       *transistor.Circuit
		memo    *cccMemo
		circuit int
		plan    *faultPlan
		class   []int32
		si      int
	}
	ids := &classIDs{}
	var byClass [][]member
	for ci, nl := range []*netlist.Netlist{
		netlist.C17(), netlist.RippleAdder(3), netlist.MuxTree(2), netlist.Decoder(2), wideStages(),
		wideStagesRewired(), netlist.RandomCircuit("random", 7, 8, 3, 24),
	} {
		list, c := buildCampaign(f, nl)
		memo := newCCCMemo(c)
		shapes := newSeedClasses(c, memo, ids)
		for _, plan := range oracleFaults(c, list) {
			class := shapes.add(plan, nil)
			for si, cls := range class {
				if cls < 0 {
					continue
				}
				for int(cls) >= len(byClass) {
					byClass = append(byClass, nil)
				}
				byClass[cls] = append(byClass[cls], member{c, memo, ci, plan, class, si})
			}
		}
	}
	var classes [][]member // classes with at least two seeds
	wideAcross := false
	for _, ms := range byClass {
		if len(ms) < 2 {
			continue
		}
		classes = append(classes, ms)
		m := ms[0]
		wideAcross = wideAcross || len(m.memo.cccs[m.plan.seedCCCs[m.si]].in) == memoMaxNets &&
			slices.ContainsFunc(ms, func(o member) bool { return o.circuit != m.circuit })
	}
	if !wideAcross {
		f.Fatal("no class of the widest CCCs has seeds in two circuits")
	}
	f.Add(uint16(0), uint16(0), uint16(1), int64(1), false, true)
	f.Add(uint16(7), uint16(3), uint16(40), int64(2), true, false)
	f.Add(uint16(30), uint16(1), uint16(2), int64(3), false, true)
	f.Fuzz(func(t *testing.T, k, a, b uint16, seed int64, weak, cross bool) {
		ms := classes[int(k)%len(classes)]
		ai := int(a) % len(ms)
		ma := ms[ai]
		var same, other []member
		for i, m := range ms {
			switch {
			case i == ai:
			case m.circuit == ma.circuit:
				same = append(same, m)
			default:
				other = append(other, m)
			}
		}
		draw := append(same, other...)
		if cross && len(other) > 0 {
			draw = other
		}
		mb := draw[int(b)%len(draw)]
		g := BridgeG
		if weak {
			g = 1.5
		}
		rng := rand.New(rand.NewSource(seed))
		table := &seedTable{}
		machine := func(mm member) *Machine {
			m := NewMachine(mm.c)
			m.memo, m.classes = mm.memo, table
			m.install(mm.plan, g, &seedMemo{class: mm.class})
			m.ensureScratch()
			for n := range m.val {
				if n != layout.NetGND && n != layout.NetVDD {
					m.val[n] = Val(rng.Intn(3))
				}
			}
			return m
		}
		fill, m := machine(ma), machine(mb)
		idA, idB := ma.plan.seedCCCs[ma.si], mb.plan.seedCCCs[mb.si]
		key, _ := fill.seedKey(fill.groupOf(idA))
		setSeedKey(m, m.groupOf(idB), key)
		if k, _ := m.seedKey(m.groupOf(idB)); k != key {
			// The second seed reads one net where the first reads two:
			// give the first the second's values.
			setSeedKey(fill, fill.groupOf(idA), k)
			if ka, _ := fill.seedKey(fill.groupOf(idA)); ka != k {
				t.Skip("the seeds read different nets twice")
			}
			key = k
		}
		fill.solveCCC(idA, nil)
		if fill.relaxSolves != 1 || fill.fresh.n != 1 {
			t.Fatalf("first solve of a class key: %d relaxations, %d staged entries; want 1 and 1", fill.relaxSolves, fill.fresh.n)
		}
		table.take(&fill.fresh)

		ref := NewMachine(mb.c)
		ref.install(mb.plan, g, nil)
		ref.ensureScratch()
		copy(ref.val, m.val)
		got := m.solveCCC(idB, nil)
		want := ref.relaxCCC(idB, nil)
		if m.classSolves != 1 {
			t.Fatalf("CCC %d: replay of a class key missed the class table", idB)
		}
		if !slices.Equal(got, want) || !slices.Equal(m.val, ref.val) {
			t.Fatalf("CCC %d: class entry changed %v, relaxation changed %v (states equal: %v)",
				idB, got, want, slices.Equal(m.val, ref.val))
		}
	})
}
