// diagnosis: from tester datalog to physical defect. A known bridge defect
// is simulated at switch level on the c432-class design; its failure
// signature (which vectors failed at which outputs) is all a tester would
// record. The stuck-at dictionary then ranks surrogate candidates, and
// structural pruning narrows them to the failing outputs' fanin cones —
// pointing the failure analyst at the physically bridged nets.
package main

import (
	"fmt"
	"log"

	"defectsim/internal/diagnose"
	"defectsim/internal/experiments"
	"defectsim/internal/fault"
	"defectsim/internal/gatesim"
	"defectsim/internal/layout"
	"defectsim/internal/netlist"
	"defectsim/internal/switchsim"
)

func main() {
	cfg := experiments.DefaultConfig()
	p, err := experiments.Run(netlist.C432Class(1994), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(p.Summary())

	// Pick the heaviest voltage-detected bridge between netlist-visible
	// nets: the "defect" the fab shipped.
	var target fault.Realistic
	found := false
	for i, f := range p.Faults.Faults {
		if f.Kind != fault.KindBridge || p.SwitchRes.DetectedAt[i] == 0 {
			continue
		}
		a, b := p.Layout.Nets[f.NetA], p.Layout.Nets[f.NetB]
		if a.Kind == layout.KindSignal && b.Kind == layout.KindSignal {
			target, found = f, true
			break
		}
	}
	if !found {
		log.Fatal("no diagnosable bridge in the campaign")
	}
	nameA := p.Layout.Nets[target.NetA].Name
	nameB := p.Layout.Nets[target.NetB].Name
	fmt.Printf("\nground truth defect: bridge %s ↔ %s (w = %.2e)\n", nameA, nameB, target.Weight)

	// Replay the test set on the defective die and record the datalog.
	m, _ := switchsim.NewFaultMachine(p.Circuit, target)
	good := switchsim.NewMachine(p.Circuit)
	var datalog []gatesim.Fail
	for k, vec := range switchsim.Vectors(p.TestSet.Patterns) {
		good.Apply(vec)
		m.Apply(vec)
		var pm uint64
		for oi, po := range p.Circuit.POs {
			gv, fv := good.Val(po), m.Val(po)
			if gv != switchsim.VX && fv != switchsim.VX && gv != fv {
				pm |= 1 << uint(oi)
			}
		}
		if pm != 0 {
			datalog = append(datalog, gatesim.Fail{Vector: k, POMask: pm})
		}
	}
	fmt.Printf("tester datalog: %d failing vectors\n\n", len(datalog))

	// Diagnose against the stuck-at dictionary.
	dict, err := diagnose.Build(p.Netlist, p.StuckAt, p.TestSet.Patterns)
	if err != nil {
		log.Fatal(err)
	}
	cands := dict.DiagnoseStructural(datalog, 8)
	fmt.Println("top surrogate stuck-at candidates (structurally pruned):")
	bridged := map[int]bool{
		p.Layout.Nets[target.NetA].NetlistNet: true,
		p.Layout.Nets[target.NetB].NetlistNet: true,
	}
	hit := false
	for rank, c := range cands {
		mark := ""
		if bridged[c.Fault.Net] {
			mark = "   ← physically bridged net"
			hit = true
		}
		fmt.Printf("  %d. net %-10s %v%s\n", rank+1, p.Netlist.NetNames[c.Fault.Net], c, mark)
	}
	if hit {
		fmt.Println("\nThe defective nets surface in the top candidates: physical failure")
		fmt.Println("analysis can go straight to their adjacent routing — the loop from")
		fmt.Println("the paper's layout-extracted fault model back to silicon closes.")
	} else {
		fmt.Println("\n(no direct hit in the top candidates — inspect the implicated region)")
	}
}
