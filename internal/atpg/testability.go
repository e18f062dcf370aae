package atpg

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"defectsim/internal/fault"
	"defectsim/internal/gatesim"
	"defectsim/internal/netlist"
)

// Testability holds the full SCOAP combinational measures of a netlist:
// 0/1-controllabilities (cost of setting a net) and observability (cost of
// propagating a net's value to a primary output). The paper cites exactly
// this line of work (Agrawal & Mercer, "Testability Measures — what do
// they tell us?") as the machinery behind detection probabilities.
type Testability struct {
	CC0, CC1 []int // controllabilities per net
	CO       []int // observabilities per net (stem values)
}

// ComputeTestability returns the SCOAP measures of nl.
func ComputeTestability(nl *netlist.Netlist) (*Testability, error) {
	g, err := NewGenerator(nl)
	if err != nil {
		return nil, err
	}
	t := &Testability{
		CC0: append([]int(nil), g.cc0...),
		CC1: append([]int(nil), g.cc1...),
		CO:  make([]int, nl.NumNets()),
	}
	const inf = 1 << 28
	for n := range t.CO {
		t.CO[n] = inf
	}
	for _, po := range nl.POs {
		t.CO[po] = 0
	}
	order, _, err := nl.Levelize()
	if err != nil {
		return nil, err
	}
	// Backward pass: observability of a gate input = observability of the
	// output + the cost of holding every other input at a non-controlling
	// value (+1 for the gate itself). XOR inputs need the cheaper of the
	// two settings of each sibling. Stems take the cheapest branch.
	for i := len(order) - 1; i >= 0; i-- {
		gi := order[i]
		gt := &nl.Gates[gi]
		coOut := t.CO[gt.Out]
		if coOut >= inf {
			continue
		}
		for _, in := range gt.Inputs {
			cost := coOut + 1
			for _, other := range gt.Inputs {
				if other == in {
					continue
				}
				switch gt.Type {
				case netlist.And, netlist.Nand:
					cost += t.CC1[other]
				case netlist.Or, netlist.Nor:
					cost += t.CC0[other]
				case netlist.Xor, netlist.Xnor:
					if t.CC0[other] < t.CC1[other] {
						cost += t.CC0[other]
					} else {
						cost += t.CC1[other]
					}
				}
			}
			if cost < t.CO[in] {
				t.CO[in] = cost
			}
		}
	}
	return t, nil
}

// HardestNets returns the n nets with the largest combined testability
// cost min(CC0,CC1)+CO — the likely random-pattern-resistant spots.
func (t *Testability) HardestNets(n int) []int {
	type sc struct {
		net, cost int
	}
	var all []sc
	for net := range t.CO {
		cc := t.CC0[net]
		if t.CC1[net] < cc {
			cc = t.CC1[net]
		}
		all = append(all, sc{net, cc + t.CO[net]})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].cost != all[b].cost {
			return all[a].cost > all[b].cost
		}
		return all[a].net < all[b].net
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].net
	}
	return out
}

// Render prints a short testability report.
func (t *Testability) Render(nl *netlist.Netlist, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SCOAP testability (%d nets); hardest %d:\n", nl.NumNets(), n)
	for _, net := range t.HardestNets(n) {
		fmt.Fprintf(&b, "  %-12s CC0=%-4d CC1=%-4d CO=%d\n",
			nl.NetNames[net], t.CC0[net], t.CC1[net], t.CO[net])
	}
	return b.String()
}

// Compact performs reverse-order static compaction of a test set: patterns
// are fault-simulated newest-first with dropping, and only the patterns
// that detect a fault not covered by any later-kept pattern survive. The
// result preserves the original relative order and the exact fault
// coverage of the input set. It is CompactN with n = 1.
func Compact(nl *netlist.Netlist, faults []fault.StuckAt, patterns []gatesim.Pattern) ([]gatesim.Pattern, error) {
	return CompactN(nl, faults, patterns, 1)
}

// CompactN is multiplicity-aware static compaction: each fault must keep
// min(n, original count) distinct detecting vectors, so a vector carrying
// sole k-th-detection credit (k ≤ n) for any fault is never dropped.
// Patterns are scanned newest-first; a pattern survives iff it detects at
// least one fault still short of its quota, and every surviving pattern
// credits all quota-short faults it detects. For every fault f the
// compacted set therefore satisfies
//
//	min(n, DetectCounts_compacted(f)) = min(n, DetectCounts_original(f))
//
// — a fault with ≥ n original detections keeps at least n of them, and a
// fault with fewer keeps all of them. CompactN(nl, faults, patterns, 1)
// is exactly the classical Compact.
func CompactN(nl *netlist.Netlist, faults []fault.StuckAt, patterns []gatesim.Pattern, n int) ([]gatesim.Pattern, error) {
	if n < 1 {
		return nil, fmt.Errorf("atpg: CompactN requires n >= 1, got %d", n)
	}
	ts := &TestSet{
		N:            n,
		DetectCounts: make([]int, len(faults)),
		DetectedAt:   make([]int, len(faults)),
		Untestable:   make([]bool, len(faults)),
		Aborted:      make([]bool, len(faults)),
	}
	kept := make([]bool, len(patterns))
	for k := len(patterns) - 1; k >= 0; k-- {
		hit, err := ts.credit(context.Background(), nl, faults, patterns[k], k+1, 0, nil)
		if err != nil {
			return nil, err
		}
		kept[k] = hit
	}
	var out []gatesim.Pattern
	for k, p := range patterns {
		if kept[k] {
			out = append(out, p)
		}
	}
	return out, nil
}
