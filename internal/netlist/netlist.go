// Package netlist models gate-level combinational netlists: the input
// representation for stuck-at fault simulation, ATPG and standard-cell
// layout generation.
//
// A Netlist is a DAG of single-output gates over a set of nets. Nets are
// dense integer indices; primary inputs are nets driven by no gate. The
// package provides an ISCAS-style .bench reader/writer, the c17 benchmark,
// deterministic synthetic benchmark generators (including a c432-class
// circuit matching the profile of the ISCAS-85 c432 used in the paper), and
// structural utilities (levelization, fanout computation, validation).
package netlist

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// GateType enumerates the supported combinational gate functions.
type GateType uint8

// Supported gate functions. Buf and Not are single-input; the others accept
// two or more inputs.
const (
	Buf GateType = iota
	Not
	And
	Nand
	Or
	Nor
	Xor
	Xnor
	numGateTypes
)

var gateNames = [numGateTypes]string{"BUF", "NOT", "AND", "NAND", "OR", "NOR", "XOR", "XNOR"}

// String returns the .bench-style upper-case gate name.
func (g GateType) String() string {
	if int(g) < len(gateNames) {
		return gateNames[g]
	}
	return fmt.Sprintf("GATE(%d)", uint8(g))
}

// ParseGateType converts a .bench gate keyword (case-insensitive) to a
// GateType.
func ParseGateType(s string) (GateType, error) {
	switch strings.ToUpper(s) {
	case "BUF", "BUFF":
		return Buf, nil
	case "NOT", "INV":
		return Not, nil
	case "AND":
		return And, nil
	case "NAND":
		return Nand, nil
	case "OR":
		return Or, nil
	case "NOR":
		return Nor, nil
	case "XOR":
		return Xor, nil
	case "XNOR":
		return Xnor, nil
	}
	return 0, fmt.Errorf("netlist: unknown gate type %q", s)
}

// Inverting reports whether the gate output is the complement of the
// corresponding non-inverting function (NOT/NAND/NOR/XNOR). CMOS static
// gates are naturally inverting; the cell library uses this to pick
// single-stage versus two-stage realizations.
func (g GateType) Inverting() bool {
	switch g {
	case Not, Nand, Nor, Xnor:
		return true
	}
	return false
}

// Eval computes the gate function over the given input bits, each bit
// position evaluated independently (parallel-pattern semantics over a
// 64-bit word).
func (g GateType) Eval(in []uint64) uint64 {
	switch g {
	case Buf:
		return in[0]
	case Not:
		return ^in[0]
	case And, Nand:
		v := in[0]
		for _, x := range in[1:] {
			v &= x
		}
		if g == Nand {
			v = ^v
		}
		return v
	case Or, Nor:
		v := in[0]
		for _, x := range in[1:] {
			v |= x
		}
		if g == Nor {
			v = ^v
		}
		return v
	case Xor, Xnor:
		v := in[0]
		for _, x := range in[1:] {
			v ^= x
		}
		if g == Xnor {
			v = ^v
		}
		return v
	}
	panic("netlist: bad gate type")
}

// Gate is a single-output logic gate. Inputs and Out are net indices.
type Gate struct {
	Type   GateType
	Inputs []int
	Out    int
}

// Netlist is a combinational gate-level circuit.
type Netlist struct {
	Name     string
	NetNames []string // per-net symbolic name
	Gates    []Gate
	PIs      []int // primary input nets, in declaration order
	POs      []int // primary output nets, in declaration order

	// driver maps net -> gate index driving it, -1 for PIs. Driver builds
	// it lazily and AddNet/AddGateTo drop it; it is atomic because
	// concurrent runs on one finished netlist may race to build it.
	driver atomic.Pointer[[]int]
}

// New returns an empty netlist with the given name.
func New(name string) *Netlist { return &Netlist{Name: name} }

// NumNets returns the number of nets.
func (n *Netlist) NumNets() int { return len(n.NetNames) }

// AddNet creates a new net with the given name and returns its index.
func (n *Netlist) AddNet(name string) int {
	n.NetNames = append(n.NetNames, name)
	n.driver.Store(nil)
	return len(n.NetNames) - 1
}

// AddPI creates a new primary-input net.
func (n *Netlist) AddPI(name string) int {
	id := n.AddNet(name)
	n.PIs = append(n.PIs, id)
	return id
}

// MarkPO declares net id as a primary output.
func (n *Netlist) MarkPO(id int) { n.POs = append(n.POs, id) }

// AddGate appends a gate of type t driving a fresh net with the given name,
// returning the output net index.
func (n *Netlist) AddGate(t GateType, name string, inputs ...int) int {
	out := n.AddNet(name)
	n.Gates = append(n.Gates, Gate{Type: t, Inputs: append([]int(nil), inputs...), Out: out})
	return out
}

// AddGateTo appends a gate of type t driving the existing net out.
func (n *Netlist) AddGateTo(t GateType, out int, inputs ...int) {
	n.Gates = append(n.Gates, Gate{Type: t, Inputs: append([]int(nil), inputs...), Out: out})
	n.driver.Store(nil)
}

// Driver returns the index of the gate driving net id, or -1 when id is a
// primary input (or undriven).
func (n *Netlist) Driver(id int) int {
	d := n.driver.Load()
	if d == nil {
		m := make([]int, n.NumNets())
		for i := range m {
			m[i] = -1
		}
		for gi, g := range n.Gates {
			m[g.Out] = gi
		}
		d = &m
		n.driver.Store(d)
	}
	return (*d)[id]
}

// Fanouts returns, for every net, the indices of gates that read it.
func (n *Netlist) Fanouts() [][]int {
	fo := make([][]int, n.NumNets())
	for gi, g := range n.Gates {
		for _, in := range g.Inputs {
			fo[in] = append(fo[in], gi)
		}
	}
	return fo
}

// Levelize returns the gates in topological order (every gate after all
// gates driving its inputs) and the logic level of every net (PIs at 0).
// It fails if the netlist contains a combinational cycle or an undriven
// non-PI net.
func (n *Netlist) Levelize() (order []int, level []int, err error) {
	if err := n.Validate(); err != nil {
		return nil, nil, err
	}
	level = make([]int, n.NumNets())
	done := make([]bool, n.NumNets())
	for _, pi := range n.PIs {
		done[pi] = true
	}
	order = make([]int, 0, len(n.Gates))
	pending := len(n.Gates)
	scheduled := make([]bool, len(n.Gates))
	for pending > 0 {
		progress := false
		for gi, g := range n.Gates {
			if scheduled[gi] {
				continue
			}
			ready, lvl := true, 0
			for _, in := range g.Inputs {
				if !done[in] {
					ready = false
					break
				}
				if level[in] > lvl {
					lvl = level[in]
				}
			}
			if !ready {
				continue
			}
			scheduled[gi] = true
			done[g.Out] = true
			level[g.Out] = lvl + 1
			order = append(order, gi)
			pending--
			progress = true
		}
		if !progress {
			return nil, nil, fmt.Errorf("netlist %s: combinational cycle detected", n.Name)
		}
	}
	return order, level, nil
}

// Depth returns the maximum logic level over all nets (0 for an empty or
// gate-free netlist).
func (n *Netlist) Depth() int {
	_, level, err := n.Levelize()
	if err != nil {
		return 0
	}
	d := 0
	for _, l := range level {
		if l > d {
			d = l
		}
	}
	return d
}

// Validate checks structural sanity: every net has exactly one driver or is
// a PI, gate inputs are in range and non-empty, single-input gate types have
// exactly one input, and POs reference existing nets.
func (n *Netlist) Validate() error {
	drivers := make([]int, n.NumNets())
	for _, pi := range n.PIs {
		if pi < 0 || pi >= n.NumNets() {
			return fmt.Errorf("netlist %s: PI net %d out of range", n.Name, pi)
		}
		drivers[pi]++
	}
	for gi, g := range n.Gates {
		if g.Out < 0 || g.Out >= n.NumNets() {
			return fmt.Errorf("netlist %s: gate %d output out of range", n.Name, gi)
		}
		drivers[g.Out]++
		if len(g.Inputs) == 0 {
			return fmt.Errorf("netlist %s: gate %d has no inputs", n.Name, gi)
		}
		if (g.Type == Buf || g.Type == Not) && len(g.Inputs) != 1 {
			return fmt.Errorf("netlist %s: gate %d: %v takes one input, has %d",
				n.Name, gi, g.Type, len(g.Inputs))
		}
		if g.Type != Buf && g.Type != Not && len(g.Inputs) < 2 {
			return fmt.Errorf("netlist %s: gate %d: %v needs ≥2 inputs", n.Name, gi, g.Type)
		}
		for _, in := range g.Inputs {
			if in < 0 || in >= n.NumNets() {
				return fmt.Errorf("netlist %s: gate %d input net %d out of range", n.Name, gi, in)
			}
			if in == g.Out {
				return fmt.Errorf("netlist %s: gate %d feeds itself", n.Name, gi)
			}
		}
	}
	for id, d := range drivers {
		if d == 0 {
			return fmt.Errorf("netlist %s: net %d (%s) undriven", n.Name, id, n.NetNames[id])
		}
		if d > 1 {
			return fmt.Errorf("netlist %s: net %d (%s) multiply driven", n.Name, id, n.NetNames[id])
		}
	}
	for _, po := range n.POs {
		if po < 0 || po >= n.NumNets() {
			return fmt.Errorf("netlist %s: PO net %d out of range", n.Name, po)
		}
	}
	return nil
}

// Eval computes all net values for the given PI assignment using 64-way
// parallel-pattern semantics: pis[i] holds 64 independent pattern bits for
// the i-th primary input. The returned slice is indexed by net.
func (n *Netlist) Eval(pis []uint64) ([]uint64, error) {
	if len(pis) != len(n.PIs) {
		return nil, fmt.Errorf("netlist %s: Eval got %d PI words, want %d", n.Name, len(pis), len(n.PIs))
	}
	order, _, err := n.Levelize()
	if err != nil {
		return nil, err
	}
	vals := make([]uint64, n.NumNets())
	for i, pi := range n.PIs {
		vals[pi] = pis[i]
	}
	in := make([]uint64, 0, 4)
	for _, gi := range order {
		g := &n.Gates[gi]
		in = in[:0]
		for _, x := range g.Inputs {
			in = append(in, vals[x])
		}
		vals[g.Out] = g.Type.Eval(in)
	}
	return vals, nil
}

// Stats summarizes the structural profile of a netlist.
type Stats struct {
	Name      string
	PIs, POs  int
	Gates     int
	ByType    map[GateType]int
	Nets      int
	Depth     int
	MaxFanin  int
	MaxFanout int
}

// ComputeStats returns the structural profile of n.
func (n *Netlist) ComputeStats() Stats {
	s := Stats{
		Name: n.Name, PIs: len(n.PIs), POs: len(n.POs),
		Gates: len(n.Gates), Nets: n.NumNets(),
		ByType: make(map[GateType]int), Depth: n.Depth(),
	}
	for _, g := range n.Gates {
		s.ByType[g.Type]++
		if len(g.Inputs) > s.MaxFanin {
			s.MaxFanin = len(g.Inputs)
		}
	}
	for _, fo := range n.Fanouts() {
		if len(fo) > s.MaxFanout {
			s.MaxFanout = len(fo)
		}
	}
	return s
}

// String renders the stats as a single line.
func (s Stats) String() string {
	types := make([]string, 0, len(s.ByType))
	for t := GateType(0); t < numGateTypes; t++ {
		if c := s.ByType[t]; c > 0 {
			types = append(types, fmt.Sprintf("%s:%d", t, c))
		}
	}
	return fmt.Sprintf("%s: %d PI, %d PO, %d gates (%s), depth %d, maxFanout %d",
		s.Name, s.PIs, s.POs, s.Gates, strings.Join(types, " "), s.Depth, s.MaxFanout)
}

// NetByName returns the index of the net with the given name.
func (n *Netlist) NetByName(name string) (int, bool) {
	for i, nm := range n.NetNames {
		if nm == name {
			return i, true
		}
	}
	return -1, false
}
