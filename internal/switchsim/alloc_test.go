package switchsim

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"defectsim/internal/fault"
	"defectsim/internal/faultinject"
	"defectsim/internal/netlist"
	"defectsim/internal/transistor"
)

// TestSettleSteadyStateZeroAllocs pins the scratch-arena contract behind
// the BENCH alloc gate: once a machine has seen its circuit's CCCs, the
// entire apply→settle path (event queue, group discovery, conductance
// relaxation or memo replay) runs out of reused buffers — zero heap
// allocations per vector in steady state, with or without a campaign's
// CCC memo.
func TestSettleSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation profile differs under -race")
	}
	nl := netlist.RippleAdder(4)
	_, c := circuitFor(t, nl)
	for _, memo := range []*cccMemo{nil, newCCCMemo(c)} {
		m := NewMachine(c)
		m.memo = memo
		vecs := randomVectors(len(nl.PIs), 8, 3)
		for _, v := range vecs {
			if !m.Apply(v) {
				t.Fatal("good machine failed to settle during warmup")
			}
		}
		// Alternate two differing vectors so every run propagates real
		// events instead of hitting the nothing-changed early-out.
		a, b := vecs[0], vecs[1]
		allocs := testing.AllocsPerRun(200, func() {
			m.Apply(a)
			m.Apply(b)
		})
		if allocs != 0 {
			t.Fatalf("steady-state Apply (memo %v) allocates %v per op, want 0", memo != nil, allocs)
		}
	}
}

// TestSwappedFaultValuesZeroAllocs pins the campaign's diverged-fault
// path: a warmed worker machine stepping one fault after another, each
// fault's own value vector and seed memo swapped in, by the plain Apply
// and by walking each vector's event log, and handing its staged
// class-table entries over after each round, allocates nothing — a fault
// owns its values, the worker owns everything the step needs, and the
// staging table and the walk's scratch are reused.
func TestSwappedFaultValuesZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation profile differs under -race")
	}
	nl := netlist.RippleAdder(4)
	list, c := buildCampaign(t, nl)
	vecs := randomVectors(len(nl.PIs), 8, 3)
	good := runGood(c, vecs)
	memo := newCCCMemo(c)
	shapes := newSeedClasses(c, memo, nil)
	// The first three simulable faults, and the first three whose settles
	// oscillate, so the cycle search's snapshots are stepped too.
	var lives []*live
	oscillating := 0
	for i, f := range list.Faults {
		p, v := planFault(c, f)
		if v != VerdictSimulate {
			continue
		}
		m := NewMachine(c)
		m.install(p, BridgeG, nil)
		osc := false
		for _, v := range vecs {
			osc = !m.Apply(v) || osc
		}
		if len(lives) < 3 || osc && oscillating < 3 {
			lv := &live{idx: i, plan: p, val: append([]Val(nil), good.states[4]...)}
			lv.seeds.class = shapes.add(p, nil)
			lives = append(lives, lv)
			if osc {
				oscillating++
			}
		}
		if len(lives) == 6 {
			break
		}
	}
	logs := goodLogs(t, c, memo, good, vecs)
	w := &worker{m: NewMachine(c)}
	w.m.memo, w.m.classes = memo, &seedTable{}
	w.home = w.m.val
	step := func() {
		for _, lv := range lives {
			for _, v := range vecs {
				w.advance(lv, BridgeG, v, nil, nil, &eventLog{})
			}
			for k, v := range vecs {
				w.advance(lv, BridgeG, v, good.states[k], good.states[k+1], logs[k])
			}
		}
		w.m.classes.take(&w.m.fresh)
	}
	step()
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("stepping %d swapped-in fault vectors allocates %v per round, want 0", len(lives), allocs)
	}
	if w.m.seedSolves == 0 || w.m.classSolves == 0 || w.m.fastForwards == 0 || w.m.replaySolves == 0 || w.m.handOvers == 0 {
		t.Fatalf("%d seed solves from a fault's seed memo, %d from the class table, %d settles fast-forwarded, "+
			"%d pops copied from a log, %d walks handed over; want all > 0",
			w.m.seedSolves, w.m.classSolves, w.m.fastForwards, w.m.replaySolves, w.m.handOvers)
	}
}

// TestPooledFaultMachineResetZeroAllocs pins the other half of the
// contract: re-targeting one machine at a different fault (install a new
// plan, re-seed from the good state, settle) is allocation-free — the
// reset each worker machine in SimulateFaults performs once per clean
// fault per vector, carrying the campaign's CCC memo and the fault's seed
// memo.
func TestPooledFaultMachineResetZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation profile differs under -race")
	}
	nl := netlist.RippleAdder(4)
	list, c := buildCampaign(t, nl)
	var plans []*faultPlan
	for _, f := range list.Faults {
		if p, v := planFault(c, f); v == VerdictSimulate {
			plans = append(plans, p)
		}
		if len(plans) == 4 {
			break
		}
	}
	if len(plans) < 2 {
		t.Fatalf("only %d simulable faults extracted", len(plans))
	}

	good := NewMachine(c)
	vecs := randomVectors(len(nl.PIs), 2, 9)
	goodPrev := append([]Val(nil), good.val...)
	if !good.Apply(vecs[0]) {
		t.Fatal("good machine failed to settle")
	}

	for _, memo := range []*cccMemo{nil, newCCCMemo(c)} {
		m := NewMachine(c)
		m.memo = memo
		var seeds *seedMemo
		if memo != nil {
			seeds = new(seedMemo)
		}
		warm := func() {
			for _, p := range plans {
				m.install(p, BridgeG, seeds)
				m.ApplyFromGood(good.val, goodPrev)
			}
		}
		warm()
		if allocs := testing.AllocsPerRun(200, warm); allocs != 0 {
			t.Fatalf("pooled install+ApplyFromGood (memo %v) allocates %v per cycle over %d plans, want 0",
				memo != nil, allocs, len(plans))
		}
	}
}

// freshMachineCampaign is the reference the machine-pooling optimization
// and the CCC memo are pinned against: a serial campaign giving every
// simulated fault its own dedicated plain machine (no memo: every solve
// relaxes) from vector one — the pre-pooling engine, reimplemented
// plainly, with bridge conductance bridgeG. stopAt > 0 ends the campaign
// after that many vectors the way a cancellation does: remaining live
// faults become undecided.
func freshMachineCampaign(c *transistor.Circuit, list *fault.List, vectors []Vector, bridgeG float64, stopAt int) *Result {
	res := &Result{
		DetectedAt: make([]int, len(list.Faults)),
		IDDQAt:     make([]int, len(list.Faults)),
		Undecided:  make([]bool, len(list.Faults)),
	}
	type ref struct {
		idx     int
		m       *Machine
		clean   bool
		strikes int
	}
	var lives []*ref
	for i, f := range list.Faults {
		plan, v := planFault(c, f)
		switch v {
		case VerdictDetected:
			res.DetectedAt[i] = 1
			if f.Kind == fault.KindBridge {
				res.IDDQAt[i] = 1
			}
		case VerdictSimulate:
			m := NewMachine(c)
			m.install(plan, bridgeG, nil)
			lives = append(lives, &ref{idx: i, m: m, clean: true})
		}
	}
	good := NewMachine(c)
	goodPrev := make([]Val, len(good.val))
	k := 0
	for ; k < len(vectors); k++ {
		if stopAt > 0 && k == stopAt {
			break
		}
		vec := vectors[k]
		copy(goodPrev, good.val)
		if !good.Apply(vec) {
			res.GoodUnsettledAt = k + 1
			break
		}
		for i, f := range list.Faults {
			if f.Kind != fault.KindBridge || res.IDDQAt[i] != 0 {
				continue
			}
			va, vb := good.val[f.NetA], good.val[f.NetB]
			if va != VX && vb != VX && va != vb {
				res.IDDQAt[i] = k + 1
			}
		}
		keep := lives[:0]
		for _, lv := range lives {
			var ok bool
			if lv.clean {
				ok = lv.m.ApplyFromGood(good.val, goodPrev)
			} else {
				ok = lv.m.Apply(vec)
			}
			if !ok {
				res.Oscillations++
				lv.strikes++
				lv.clean = false
				if lv.strikes >= oscStrikeLimit {
					res.Undecided[lv.idx] = true
				} else {
					keep = append(keep, lv)
				}
				continue
			}
			detected := false
			for _, po := range c.POs {
				gv, fv := good.val[po], lv.m.val[po]
				if gv != VX && fv != VX && gv != fv {
					detected = true
					break
				}
			}
			if detected {
				res.DetectedAt[lv.idx] = k + 1
				continue
			}
			lv.clean = equalVals(lv.m.val, good.val)
			keep = append(keep, lv)
		}
		lives = keep
	}
	if k < len(vectors) {
		for _, lv := range lives {
			res.Undecided[lv.idx] = true
		}
	}
	res.VectorsApplied = k
	return res
}

// oracleCircuit is one circuit the campaign's fresh-machine oracles run
// on, with the number of random vectors they apply.
type oracleCircuit struct {
	nl      *netlist.Netlist
	vectors int
}

// oracleCircuits cover every stage width the library builds (wideStages'
// NAND4/NOR4, the XOR ladders of ParityTree), the mux and decoder
// generators, and a random 100-gate circuit. The random circuit's
// ~5 800 faults get fewer vectors: its fresh-machine reference relaxes
// every solve, which dominates the race tier.
func oracleCircuits() []oracleCircuit {
	var out []oracleCircuit
	for _, nl := range []*netlist.Netlist{
		netlist.C17(), netlist.RippleAdder(4), netlist.Comparator(3), netlist.ParityTree(8), wideStages(),
		netlist.MuxTree(3), netlist.Decoder(3),
	} {
		out = append(out, oracleCircuit{nl, 48})
	}
	return append(out, oracleCircuit{netlist.RandomCircuit("random", 1994, 24, 6, 100), 12})
}

// TestPooledReuseBitwiseIdenticalToFreshMachines is the property test the
// per-worker machines, the CCC memo and the seed memos must never break:
// for any worker count, and at a hard and a weak bridge conductance, the
// campaign's Result is bitwise identical to the fresh-machine relaxation
// reference. Run under -race by
// the tier-2 pass, it also exercises concurrent installs on the worker
// machines and concurrent memo fills.
func TestPooledReuseBitwiseIdenticalToFreshMachines(t *testing.T) {
	for _, oc := range oracleCircuits() {
		nl := oc.nl
		list, c := buildCampaign(t, nl)
		vecs := randomVectors(len(nl.PIs), oc.vectors, 7)
		want := freshMachineCampaign(c, list, vecs, BridgeG, 0)
		for _, w := range []int{1, 4, runtime.NumCPU()} {
			res, err := SimulateFaults(context.Background(), c, list, vecs, w, BridgeG, nil, nil)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", nl.Name, w, err)
			}
			sameResult(t, nl.Name, want, res)
		}
		// A resistive bridge changes only how its seed CCCs relax; the
		// memo serves every other CCC at any conductance.
		const weak = 1.5
		want = freshMachineCampaign(c, list, vecs, weak, 0)
		res, err := SimulateFaults(context.Background(), c, list, vecs, 0, weak, nil, nil)
		if err != nil {
			t.Fatalf("%s resistive: %v", nl.Name, err)
		}
		sameResult(t, nl.Name+" resistive", want, res)
	}
}

// TestPooledReuseCancelMatchesFreshMachines extends the property to
// mid-run cancellation: the partial result a cancelled pooled campaign
// returns equals the reference stopped at the same vector.
func TestPooledReuseCancelMatchesFreshMachines(t *testing.T) {
	nl := netlist.RippleAdder(4)
	list, c := buildCampaign(t, nl)
	vecs := randomVectors(len(nl.PIs), 64, 5)
	const stopAfter = 6
	want := freshMachineCampaign(c, list, vecs, BridgeG, stopAfter)

	for _, w := range []int{1, 4, runtime.NumCPU()} {
		ctx, cancel := context.WithCancel(context.Background())
		n := 0
		restore := faultinject.Set(faultinject.HookSwitchSimVector, func(context.Context) error {
			n++
			if n > stopAfter {
				cancel()
			}
			return nil
		})
		res, err := SimulateFaults(ctx, c, list, vecs, w, BridgeG, nil, nil)
		restore()
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", w, err)
		}
		sameResult(t, "cancelled", want, res)
	}
}
