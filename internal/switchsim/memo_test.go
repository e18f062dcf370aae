package switchsim

import (
	"context"
	"math/rand"
	"slices"
	"testing"

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

// TestCCCSolveCountsWorkerInvariant pins swsim_ccc_solves: "table"
// counts the solves eligible for the shared table (not its hits), "seed"
// the seed solves a fault's own seed memo served and "relax" every real
// relaxation. A seed memo is private to its fault, so all three counts
// are the same for any worker count and with a captured or a given trace,
// and a campaign serves most solves from the tables.
func TestCCCSolveCountsWorkerInvariant(t *testing.T) {
	nl := wideStages()
	list, c := buildCampaign(t, nl)
	vecs := randomVectors(len(nl.PIs), 32, 5)
	trace, err := CaptureGoodTraceCtx(context.Background(), c, vecs, nil)
	if err != nil {
		t.Fatal(err)
	}
	counts := func(workers int, traced bool) [3]int64 {
		reg := obs.NewRegistry()
		tr := trace
		if !traced {
			tr = nil
		}
		if _, _, err := SimulateFaults(context.Background(), c, list, vecs, workers, BridgeG, reg, tr); err != nil {
			t.Fatal(err)
		}
		v := reg.CounterVec("swsim_ccc_solves", "path")
		return [3]int64{v.With("table").Value(), v.With("seed").Value(), v.With("relax").Value()}
	}
	want := counts(1, false)
	if table, seed, relax := want[0], want[1], want[2]; seed == 0 || relax == 0 || table <= relax {
		t.Fatalf("swsim_ccc_solves: table %d, seed %d, relax %d; want all > 0 and table > relax", table, seed, relax)
	}
	for _, w := range []int{4, 0} {
		for _, traced := range []bool{false, true} {
			if got := counts(w, traced); got != want {
				t.Fatalf("workers=%d traced=%v: table/seed/relax %v, want %v", w, traced, got, want)
			}
		}
	}
}

// seedOracle walks one fault's campaign trajectory on a plain machine and
// checks every seed-group solve against the seed-memo path of a campaign
// machine.
type seedOracle struct {
	t         *testing.T
	ref, memo *Machine
	got       []int
	hits      int // seed solves served from an entry filled in another state
	checks    int
}

// settle is Machine.settle on the plain machine, checking each seed solve.
func (o *seedOracle) settle() bool {
	m := o.ref
	budget := 8*len(m.c.CCCs) + 64
	var changed []int
	for m.qhead < len(m.queue) {
		if budget == 0 {
			m.queue, m.qhead = m.queue[:0], 0
			clear(m.inQueue)
			return false
		}
		budget--
		id := m.queue[m.qhead]
		m.qhead++
		m.inQueue[id] = false
		si := m.plan.seedIndex(id)
		if si >= 0 {
			o.solveMemo(si, id)
		}
		changed = m.relaxCCC(id, changed[:0])
		if si >= 0 {
			if !slices.Equal(o.got, changed) || !slices.Equal(o.memo.val, m.val) {
				o.t.Fatalf("%s: seed CCC %d: memo changed %v, relaxation changed %v (states equal: %v)",
					m.c.Name, id, o.got, changed, slices.Equal(o.memo.val, m.val))
			}
		}
		for _, net := range changed {
			m.pushReaders(net)
		}
	}
	m.queue, m.qhead = m.queue[:0], 0
	return true
}

// solveMemo runs the memo path from the plain machine's current state,
// twice when the first solve filled a new entry, so the result checked is
// always a replay.
func (o *seedOracle) solveMemo(si, id int) {
	for try := 0; try < 2; try++ {
		copy(o.memo.val, o.ref.val)
		seed, relax := o.memo.seedSolves, o.memo.relaxSolves
		o.got = o.memo.solveCCC(id, o.got[:0])
		switch {
		case o.memo.seedSolves > seed:
			o.checks++
			if try == 0 {
				o.hits++
			}
			return
		case o.memo.relaxSolves == relax:
			o.t.Fatalf("seed CCC %d: solve took neither the seed memo nor the relaxation", id)
		}
	}
	o.t.Fatalf("seed CCC %d: a freshly filled key missed on replay", id)
}

// TestSeedMemoMatchesRelaxation is the oracle for the per-fault seed
// memo: for every simulable fault of the oracle circuits, every seed-group
// solve on the fault's campaign trajectory (the clean fast path until it
// diverges, full applies after) is replayed from a campaign machine's seed
// memo — filled first when the key is new — and must equal relaxCCC on a
// plain machine in the same state, in new values and changed-net order,
// at the hard and a weak bridge conductance. Entries filled in one state
// and replayed in another check that the key holds every net the
// relaxation reads.
func TestSeedMemoMatchesRelaxation(t *testing.T) {
	if raceEnabled {
		t.Skip("one goroutine, nothing to race; the plain tier runs it (~40 s under -race)")
	}
	for _, oc := range oracleCircuits() {
		nl := oc.nl
		list, c := buildCampaign(t, nl)
		vecs := randomVectors(len(nl.PIs), min(oc.vectors, 24), 11)
		trace, err := CaptureGoodTraceCtx(context.Background(), c, vecs, nil)
		if err != nil {
			t.Fatal(err)
		}
		memo := newCCCMemo(c)
		for _, g := range []float64{BridgeG, 1.5} {
			hits, checks := 0, 0
			for _, f := range list.Faults {
				plan, v := planFault(c, f)
				if v != VerdictSimulate {
					continue
				}
				o := &seedOracle{t: t, ref: NewMachine(c), memo: NewMachine(c)}
				o.ref.install(plan, g, nil)
				o.ref.ensureScratch()
				o.memo.memo = memo
				o.memo.install(plan, g, new(seedMemo))
				o.memo.ensureScratch()
				clean, strikes := true, 0
				for k, vec := range vecs {
					if trace.UnsettledAt == k+1 {
						break
					}
					goodPrev, goodPost := trace.States[k], trace.States[k+1]
					if clean {
						o.ref.scheduleFromGood(goodPost, goodPrev, false)
					} else {
						o.ref.schedule(vec)
					}
					if !o.settle() {
						clean = false
						if strikes++; strikes >= oscStrikeLimit {
							break
						}
						continue
					}
					if detects(c, goodPost, o.ref.val) {
						break
					}
					clean = equalVals(o.ref.val, goodPost)
				}
				hits += o.hits
				checks += o.checks
			}
			if hits == 0 {
				t.Fatalf("%s g=%g: no seed solve replayed an entry filled in another state", nl.Name, g)
			}
			t.Logf("%s g=%g: %d seed replays checked, %d from entries filled in another state", nl.Name, g, checks, hits)
		}
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
		key, ok := m.seedKey(m.seedGroup(id))
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
			if k, _ := m.seedKey(m.seedGroup(id)); k != key {
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
