// Package fault defines the fault universes of the pipeline:
//
//   - single line stuck-at faults at gate level (stems and fanout
//     branches), with classical equivalence collapsing — the abstract model
//     whose coverage is the paper's T;
//   - realistic, layout-extracted faults (bridges and opens) carrying
//     occurrence weights w = A·D — the model behind the paper's Θ.
package fault

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"defectsim/internal/netlist"
)

// StuckAt is a single line stuck-at fault. Branch selects the line: -1 is
// the stem (the net as driven), otherwise the index of the reading gate
// (the fanout branch into that gate). Value is the stuck value (0 or 1).
type StuckAt struct {
	Net    int
	Branch int
	Value  uint8
}

func (f StuckAt) String() string {
	if f.Branch < 0 {
		return fmt.Sprintf("net%d/sa%d", f.Net, f.Value)
	}
	return fmt.Sprintf("net%d->g%d/sa%d", f.Net, f.Branch, f.Value)
}

// StuckAtUniverse builds the collapsed single stuck-at fault list of nl.
//
// The uncollapsed universe is: two stem faults per net plus two branch
// faults per fanout branch of every net with fanout > 1. Equivalence
// collapsing removes:
//
//   - branch faults on fanout-free nets (equivalent to the stem),
//   - the controlling-value input fault of AND/NAND/OR/NOR gates, which is
//     equivalent to the corresponding output stem fault,
//   - both input faults of BUF/NOT gates (equivalent to output faults).
//
// XOR/XNOR inputs do not collapse. The returned list is deterministic.
func StuckAtUniverse(nl *netlist.Netlist) []StuckAt {
	fanouts := nl.Fanouts()
	var out []StuckAt
	// Stems.
	for net := 0; net < nl.NumNets(); net++ {
		out = append(out, StuckAt{net, -1, 0}, StuckAt{net, -1, 1})
	}
	// Branches on fanout nets, minus collapsed ones.
	for net := 0; net < nl.NumNets(); net++ {
		fo := fanouts[net]
		for _, gi := range fo {
			g := &nl.Gates[gi]
			for v := uint8(0); v <= 1; v++ {
				if collapsesIntoOutput(g.Type, v) {
					continue // ≡ stem fault of g.Out, already listed
				}
				if len(fo) == 1 {
					continue // fanout-free: branch ≡ stem of this net
				}
				out = append(out, StuckAt{net, gi, v})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Net != b.Net {
			return a.Net < b.Net
		}
		if a.Branch != b.Branch {
			return a.Branch < b.Branch
		}
		return a.Value < b.Value
	})
	return out
}

// collapsesIntoOutput reports whether an input stuck-at-v fault of a gate of
// type t is equivalent to one of the gate's output faults.
func collapsesIntoOutput(t netlist.GateType, v uint8) bool {
	switch t {
	case netlist.Buf, netlist.Not:
		return true
	case netlist.And, netlist.Nand:
		return v == 0
	case netlist.Or, netlist.Nor:
		return v == 1
	}
	return false
}

// Kind classifies a realistic (layout-extracted) fault.
type Kind uint8

// Realistic fault kinds.
const (
	// KindBridge shorts two layout nets (extra-material defect).
	KindBridge Kind = iota
	// KindOpenInput disconnects one receiving gate input from its net: the
	// input's poly/pad/stub branch is severed, leaving the transistor gates
	// of that input floating.
	KindOpenInput
	// KindOpenDriver severs the net's trunk, disconnecting every receiver
	// from the driver: the whole net floats.
	KindOpenDriver
)

func (k Kind) String() string {
	switch k {
	case KindBridge:
		return "bridge"
	case KindOpenInput:
		return "open-input"
	case KindOpenDriver:
		return "open-driver"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Realistic is one layout-extracted fault with its occurrence weight
// w = Σ A·D over the contributing defect classes (paper eq. 4:
// w = −ln(1−p)).
type Realistic struct {
	Kind Kind
	// NetA/NetB are layout net indices. Bridges use both (NetA < NetB);
	// opens use NetA only.
	NetA, NetB int
	// Inst/Node locate a KindOpenInput fault: the receiving instance and
	// its cell-local input node.
	Inst, Node int
	Weight     float64
}

// Prob returns the fault's occurrence probability p = 1 − e^{−w}.
func (f Realistic) Prob() float64 { return 1 - math.Exp(-f.Weight) }

func (f Realistic) String() string {
	switch f.Kind {
	case KindBridge:
		return fmt.Sprintf("bridge(%d,%d) w=%.3g", f.NetA, f.NetB, f.Weight)
	case KindOpenInput:
		return fmt.Sprintf("open-input(net %d, inst %d node %d) w=%.3g", f.NetA, f.Inst, f.Node, f.Weight)
	default:
		return fmt.Sprintf("open-driver(net %d) w=%.3g", f.NetA, f.Weight)
	}
}

// List is a weighted realistic fault list.
type List struct {
	Faults []Realistic
}

// TotalWeight returns Σ w_j.
func (l *List) TotalWeight() float64 {
	var s float64
	for _, f := range l.Faults {
		s += f.Weight
	}
	return s
}

// Yield returns the Poisson yield e^{−Σw} (paper eq. 5).
func (l *List) Yield() float64 { return math.Exp(-l.TotalWeight()) }

// ScaleToYield multiplies every weight by a common factor so that Yield()
// becomes y. The paper scales the c432 fault list to Y = 0.75 ("scaling the
// yield value can be interpreted as if the circuit has a different size but
// maintains the same testability features").
func (l *List) ScaleToYield(y float64) {
	if y <= 0 || y >= 1 {
		panic("fault: target yield must be in (0,1)")
	}
	total := l.TotalWeight()
	if total == 0 {
		panic("fault: cannot scale an empty/weightless fault list")
	}
	f := -math.Log(y) / total
	for i := range l.Faults {
		l.Faults[i].Weight *= f
	}
}

// WeightedCoverage returns Θ = Σ_detected w / Σ w (paper eq. 6) for the
// given detection flags (detected[i] corresponds to Faults[i]).
func (l *List) WeightedCoverage(detected []bool) float64 {
	var det, total float64
	for i, f := range l.Faults {
		total += f.Weight
		if detected[i] {
			det += f.Weight
		}
	}
	if total == 0 {
		return 0
	}
	return det / total
}

// UnweightedCoverage returns Γ = #detected / #faults — the same fault set
// with all weights collapsed to equal likelihood (paper fig. 6).
func (l *List) UnweightedCoverage(detected []bool) float64 {
	if len(l.Faults) == 0 {
		return 0
	}
	n := 0
	for _, d := range detected {
		if d {
			n++
		}
	}
	return float64(n) / float64(len(l.Faults))
}

// SortByWeight orders faults by descending weight (most likely first),
// breaking ties by String() and then by input order. Only faults that tie
// are formatted, once each.
func (l *List) SortByWeight() {
	type ranked struct {
		w   float64
		i   int32
		key string
	}
	fs := l.Faults
	rs := make([]ranked, len(fs))
	for i, f := range fs {
		rs[i] = ranked{w: f.Weight, i: int32(i)}
	}
	slices.SortFunc(rs, func(a, b ranked) int { return cmp.Or(cmp.Compare(b.w, a.w), cmp.Compare(a.i, b.i)) })
	for lo := 0; lo < len(rs); {
		hi := lo + 1
		for hi < len(rs) && rs[hi].w == rs[lo].w {
			hi++
		}
		if hi-lo > 1 {
			for k := lo; k < hi; k++ {
				rs[k].key = fs[rs[k].i].String()
			}
			slices.SortFunc(rs[lo:hi], func(a, b ranked) int {
				return cmp.Or(strings.Compare(a.key, b.key), cmp.Compare(a.i, b.i))
			})
		}
		lo = hi
	}
	sorted := make([]Realistic, len(fs))
	for k, r := range rs {
		sorted[k] = fs[r.i]
	}
	copy(fs, sorted)
}

// CountByKind returns the number of faults of each kind.
func (l *List) CountByKind() map[Kind]int {
	m := make(map[Kind]int)
	for _, f := range l.Faults {
		m[f.Kind]++
	}
	return m
}
