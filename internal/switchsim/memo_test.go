package switchsim

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"defectsim/internal/layout"
	"defectsim/internal/netlist"
	"defectsim/internal/obs"
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

// TestCCCSolveCountsWorkerInvariant pins swsim_ccc_solves: it counts
// which path each fault-machine solve was eligible for, not table hits,
// so the counts are the same for any worker count and traced or not, and
// a campaign serves most solves from the table.
func TestCCCSolveCountsWorkerInvariant(t *testing.T) {
	nl := wideStages()
	list, c := buildCampaign(t, nl)
	vecs := randomVectors(len(nl.PIs), 32, 5)
	trace, err := CaptureGoodTraceCtx(context.Background(), c, vecs, nil)
	if err != nil {
		t.Fatal(err)
	}
	counts := func(workers int, traced bool) (table, relax int64) {
		reg := obs.NewRegistry()
		if traced {
			_, err = SimulateFaultsTrace(context.Background(), c, list, vecs, workers, BridgeG, reg, trace)
		} else {
			_, err = SimulateFaultsCtx(context.Background(), c, list, vecs, workers, BridgeG, reg)
		}
		if err != nil {
			t.Fatal(err)
		}
		v := reg.CounterVec("swsim_ccc_solves", "path")
		return v.With("table").Value(), v.With("relax").Value()
	}
	table, relax := counts(1, false)
	if relax == 0 || table <= relax {
		t.Fatalf("swsim_ccc_solves: table %d, relax %d; want both > 0 and table > relax", table, relax)
	}
	for _, w := range []int{4, 0} {
		for _, traced := range []bool{false, true} {
			if gt, gr := counts(w, traced); gt != table || gr != relax {
				t.Fatalf("workers=%d traced=%v: table %d relax %d, want %d %d", w, traced, gt, gr, table, relax)
			}
		}
	}
}
