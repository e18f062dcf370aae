// Package cell provides a scalable-λ CMOS standard-cell library: for every
// gate type of the netlist package it supplies a Cell carrying both a
// transistor-level description and generated rectilinear mask geometry.
//
// Cells are built from primitive complementary *stages* — INV, NAND-k and
// NOR-k — the only structures static CMOS realizes in a single stage.
// Non-inverting and XOR-class gates become multi-stage cells:
//
//	BUF  = INV·INV          AND-k = NAND-k·INV    OR-k = NOR-k·INV
//	XOR2 = NAND2 ladder (4 stages)    XNOR2 = NOR2 ladder (4 stages)
//
// Stage geometry follows a fixed template (dimensions in λ):
//
//	y 0..5    GND rail (metal1, full cell width)
//	y 8..14   n-diffusion strip
//	y 14..17  n-side signal pads (metal1)
//	y 19..22  gate-input pads (metal1 over poly contact)
//	y 25..28  p-side signal pads (metal1)
//	y 30..38  p-diffusion strip (inside n-well)
//	y 41..46  VDD rail (metal1, full cell width)
//
// Poly gate stripes run vertically (y 6..40) at 8λ pitch. Series devices
// share diffusion with contacts only at the strip ends; parallel devices get
// alternating rail/output contacts in every slot. Intra-cell stage-to-stage
// nets are exposed as pins and closed by the global router (see package
// layout), exactly like ordinary signal nets.
package cell

import (
	"fmt"

	"defectsim/internal/geom"
	"defectsim/internal/netlist"
)

// Template dimensions in λ. Exported so layout and tests agree on geometry.
const (
	CellHeight  = 46 // total cell height including both rails
	RailH       = 5  // power-rail height (GND at bottom, VDD at top)
	NDiffY0     = 8  // n-diffusion strip
	NDiffY1     = 14
	PDiffY0     = 30 // p-diffusion strip
	PDiffY1     = 38
	PolyY0      = 6 // gate poly stripe vertical extent
	PolyY1      = 40
	PolyW       = 2  // poly stripe width
	PolyPitch   = 8  // gate stripe pitch
	ContactSize = 2  // contact/via cut edge
	NPadY0      = 14 // n-side output pad band (metal1)
	NPadY1      = 17
	InPadY0     = 19 // gate-input pad band (metal1)
	InPadY1     = 22
	PPadY0      = 25 // p-side output pad band (metal1)
	PPadY1      = 28
)

// MOSType distinguishes n-channel from p-channel devices.
type MOSType uint8

// Device polarities.
const (
	NMOS MOSType = iota
	PMOS
)

// String returns "nmos" or "pmos".
func (m MOSType) String() string {
	if m == NMOS {
		return "nmos"
	}
	return "pmos"
}

// Transistor is one MOS device of a cell, with terminals referring to
// cell-local node indices. Width is the drawn channel width in λ, used by
// the switch-level simulator as the drive-strength proxy.
type Transistor struct {
	Type          MOSType
	Gate          int // controlling node
	Source, Drain int // channel terminals (interchangeable)
	Width         int // channel width in λ
	Length        int // channel length in λ
}

// Reserved cell-local node indices. Additional nodes (inputs, internal
// stage nets, output) are allocated after these.
const (
	NodeGND = 0
	NodeVDD = 1
)

// Pin is a router connection point of a cell: an M1 pad belonging to a
// cell-local node.
type Pin struct {
	Node int
	Pad  geom.Rect // metal1 pad, cell-local coordinates
}

// Cell is a standard cell: its logical function, transistor netlist, mask
// geometry and router pins. Geometry shapes are tagged with cell-local node
// indices (in Shape.Net); instantiation remaps them to global nets.
type Cell struct {
	Name      string
	Type      netlist.GateType
	NumInputs int

	// Node bookkeeping: 0=GND, 1=VDD, 2..2+NumInputs-1 = inputs A,B,...,
	// then internal nodes, and Output last.
	NodeNames []string
	Inputs    []int // node indices of the logical inputs, in order
	Output    int   // node index of the logical output

	Transistors []Transistor
	Shapes      geom.ShapeSet
	Pins        []Pin
	Width       int // cell width in λ
}

// NumNodes returns the number of cell-local nodes.
func (c *Cell) NumNodes() int { return len(c.NodeNames) }

// stageKind enumerates the primitive complementary stages.
type stageKind uint8

const (
	stInv stageKind = iota
	stNand
	stNor
)

type stageSpec struct {
	kind   stageKind
	inputs []int // node indices feeding the stage's gates
	out    int   // node index the stage drives
}

// decompose returns the stage sequence realizing gate type t with the given
// fan-in, allocating internal node indices via newNode.
func decompose(t netlist.GateType, in []int, out int, newNode func(string) int) []stageSpec {
	switch t {
	case netlist.Not:
		return []stageSpec{{stInv, in, out}}
	case netlist.Buf:
		m := newNode("bufmid")
		return []stageSpec{{stInv, in, m}, {stInv, []int{m}, out}}
	case netlist.Nand:
		return []stageSpec{{stNand, in, out}}
	case netlist.Nor:
		return []stageSpec{{stNor, in, out}}
	case netlist.And:
		m := newNode("nandmid")
		return []stageSpec{{stNand, in, m}, {stInv, []int{m}, out}}
	case netlist.Or:
		m := newNode("normid")
		return []stageSpec{{stNor, in, m}, {stInv, []int{m}, out}}
	case netlist.Xor:
		// s1 = NAND(a,b); s2 = NAND(a,s1); s3 = NAND(b,s1); out = NAND(s2,s3).
		if len(in) != 2 {
			panic("cell: XOR cells are 2-input")
		}
		s1, s2, s3 := newNode("x1"), newNode("x2"), newNode("x3")
		return []stageSpec{
			{stNand, []int{in[0], in[1]}, s1},
			{stNand, []int{in[0], s1}, s2},
			{stNand, []int{in[1], s1}, s3},
			{stNand, []int{s2, s3}, out},
		}
	case netlist.Xnor:
		// Dual ladder in NOR realizes XNOR.
		if len(in) != 2 {
			panic("cell: XNOR cells are 2-input")
		}
		s1, s2, s3 := newNode("x1"), newNode("x2"), newNode("x3")
		return []stageSpec{
			{stNor, []int{in[0], in[1]}, s1},
			{stNor, []int{in[0], s1}, s2},
			{stNor, []int{in[1], s1}, s3},
			{stNor, []int{s2, s3}, out},
		}
	}
	panic(fmt.Sprintf("cell: no decomposition for %v", t))
}

// MaxFanin is the widest stage the library builds: a k-input stage has k
// gate inputs and owns its output plus k−1 series-stack nodes.
const MaxFanin = 4

// Build constructs the standard cell realizing gate type t with fanin
// inputs. Supported fan-ins: 1 for NOT/BUF, 2–MaxFanin for NAND/NOR/AND/OR,
// exactly 2 for XOR/XNOR.
func Build(t netlist.GateType, fanin int) (*Cell, error) {
	switch t {
	case netlist.Not, netlist.Buf:
		if fanin != 1 {
			return nil, fmt.Errorf("cell: %v takes 1 input, got %d", t, fanin)
		}
	case netlist.Xor, netlist.Xnor:
		if fanin != 2 {
			return nil, fmt.Errorf("cell: %v takes 2 inputs, got %d", t, fanin)
		}
	default:
		if fanin < 2 || fanin > MaxFanin {
			return nil, fmt.Errorf("cell: %v fan-in %d outside [2,%d]", t, fanin, MaxFanin)
		}
	}
	c := &Cell{
		Name:      fmt.Sprintf("%s%d", t, fanin),
		Type:      t,
		NumInputs: fanin,
		NodeNames: []string{"GND", "VDD"},
	}
	for i := 0; i < fanin; i++ {
		c.Inputs = append(c.Inputs, c.newNode(fmt.Sprintf("%c", 'A'+i)))
	}
	c.Output = c.newNode("Y")
	stages := decompose(t, c.Inputs, c.Output, c.newNode)

	x := 0
	for _, st := range stages {
		x = c.buildStage(st, x)
	}
	c.Width = x
	// Power rails across the full cell width.
	c.Shapes.AddNet(geom.LayerMetal1, geom.R(0, 0, c.Width, RailH), NodeGND)
	c.Shapes.AddNet(geom.LayerMetal1, geom.R(0, CellHeight-RailH, c.Width, CellHeight), NodeVDD)
	// N-well under the PMOS region.
	c.Shapes.AddNet(geom.LayerNWell, geom.R(0, PDiffY0-4, c.Width, CellHeight), -1)
	return c, nil
}

func (c *Cell) newNode(name string) int {
	c.NodeNames = append(c.NodeNames, name)
	return len(c.NodeNames) - 1
}

// buildStage emits the geometry and transistors of one complementary stage
// starting at cell-local x offset x0 and returns the x offset after it.
func (c *Cell) buildStage(st stageSpec, x0 int) int {
	k := len(st.inputs)
	w := PolyPitch*k + 6 // slot, k stripes at pitch 8, final slot

	// Gate poly stripes and input pads.
	stripeX := make([]int, k)
	for i := 0; i < k; i++ {
		sx := x0 + 6 + PolyPitch*i
		stripeX[i] = sx
		c.Shapes.AddNet(geom.LayerPoly, geom.R(sx, PolyY0, sx+PolyW, PolyY1), st.inputs[i])
		// Poly→metal1 contact and input pad in the middle band.
		c.Shapes.AddNet(geom.LayerContact,
			geom.R(sx, InPadY0+1, sx+ContactSize, InPadY0+1+ContactSize), st.inputs[i])
		pad := geom.R(sx-1, InPadY0, sx+PolyW+1, InPadY1)
		c.Shapes.AddNet(geom.LayerMetal1, pad, st.inputs[i])
		c.Pins = append(c.Pins, Pin{st.inputs[i], pad})
	}

	// Transistors: NMOS bottom, PMOS top. Series on one side, parallel on
	// the other, per stage kind.
	nSeries := st.kind == stNand // NAND: NMOS series, PMOS parallel
	pSeries := st.kind == stNor  // NOR: PMOS series, NMOS parallel
	if st.kind == stInv {
		nSeries, pSeries = true, true // single device: series == parallel
	}
	nNodes := c.chainNodes(k, nSeries, NodeGND, st.out)
	pNodes := c.chainNodes(k, pSeries, NodeVDD, st.out)
	for i := 0; i < k; i++ {
		c.Transistors = append(c.Transistors,
			Transistor{NMOS, st.inputs[i], nNodes[i], nNodes[i+1], NDiffY1 - NDiffY0, PolyW},
			Transistor{PMOS, st.inputs[i], pNodes[i], pNodes[i+1], PDiffY1 - PDiffY0, PolyW},
		)
	}
	c.emitDiffChain(x0, w, k, stripeX, nNodes, st.out, false)
	c.emitDiffChain(x0, w, k, stripeX, pNodes, st.out, true)
	return x0 + w
}

// chainNodes returns the k+1 source/drain node chain of a k-device stack.
// Series: rail, internal nodes, out. Parallel: alternating rail/out so every
// device sits between the rail and the output.
func (c *Cell) chainNodes(k int, series bool, rail, out int) []int {
	nodes := make([]int, k+1)
	if series {
		nodes[0] = rail
		for i := 1; i < k; i++ {
			nodes[i] = c.newNode(fmt.Sprintf("m%d", len(c.NodeNames)))
		}
		nodes[k] = out
		return nodes
	}
	for i := range nodes {
		if i%2 == 0 {
			nodes[i] = rail
		} else {
			nodes[i] = out
		}
	}
	return nodes
}

// emitDiffChain places the diffusion source/drain segments, the channel
// regions under the gate stripes, and the contacts/metal of one device
// chain. Slot segments are tagged with their chain node; channel regions
// are untagged (they belong to no single net). Rail nodes strap to the
// rail; the stage output gets a signal pad pin; internal series nodes stay
// contact-free (shared diffusion).
func (c *Cell) emitDiffChain(x0, w, k int, stripeX, nodes []int, out int, pmos bool) {
	layer := geom.LayerNDiff
	diffY0, diffY1 := NDiffY0, NDiffY1
	if pmos {
		layer = geom.LayerPDiff
		diffY0, diffY1 = PDiffY0, PDiffY1
	}
	cy := (diffY0 + diffY1) / 2
	for slot := 0; slot <= k; slot++ {
		node := nodes[slot]
		// Slot segment extents.
		segX0 := x0 + 1
		if slot > 0 {
			segX0 = stripeX[slot-1] + PolyW
		}
		segX1 := x0 + w - 1
		if slot < k {
			segX1 = stripeX[slot]
		}
		c.Shapes.AddNet(layer, geom.R(segX0, diffY0, segX1, diffY1), node)

		if node >= 2 && node != NodeGND && node != NodeVDD && node != out {
			continue // internal series diffusion: no contact
		}
		cx := segX0 + (segX1-segX0-ContactSize)/2
		c.Shapes.AddNet(geom.LayerContact, geom.R(cx, cy-1, cx+ContactSize, cy+1), node)
		switch {
		case node == NodeGND:
			c.Shapes.AddNet(geom.LayerMetal1, geom.R(cx-1, 0, cx+ContactSize+1, cy+1), node)
		case node == NodeVDD:
			c.Shapes.AddNet(geom.LayerMetal1, geom.R(cx-1, cy-1, cx+ContactSize+1, CellHeight), node)
		case !pmos:
			pad := geom.R(cx-1, NPadY0, cx+ContactSize+1, NPadY1)
			c.Shapes.AddNet(geom.LayerMetal1, geom.R(cx-1, cy-1, cx+ContactSize+1, NPadY1), node)
			c.Pins = append(c.Pins, Pin{node, pad})
		default:
			pad := geom.R(cx-1, PPadY0, cx+ContactSize+1, PPadY1)
			c.Shapes.AddNet(geom.LayerMetal1, geom.R(cx-1, PPadY0, cx+ContactSize+1, cy+1), node)
			c.Pins = append(c.Pins, Pin{node, pad})
		}
	}
	// Channel regions under the gate stripes (no net: they separate slots).
	for i := 0; i < k; i++ {
		c.Shapes.AddNet(layer, geom.R(stripeX[i], diffY0, stripeX[i]+PolyW, diffY1), -1)
	}
}
