package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"defectsim/internal/fault"
	"defectsim/internal/switchsim"
	"defectsim/internal/textplot"
)

// ResistiveBridgeStudy (ABL-8) sweeps the bridge defect conductance from a
// hard short down to a weak resistive leak (the Renovell resistive-bridge
// model): as the bridge resistance rises, the defect stops overpowering
// the weaker driver, voltage detectability collapses — but the IDDQ screen
// keeps seeing the contention current. This quantifies a second mechanism
// (besides opens) behind Θmax < 1 and strengthens the paper's case for
// current testing.
type ResistiveBridgeStudy struct {
	// Conductances swept (normalized units; devices are 6–8).
	Gs []float64
	// ThetaVoltage[i] is the weighted bridge coverage by voltage testing
	// at Gs[i]; ThetaIDDQ[i] adds the current screen.
	ThetaVoltage []float64
	ThetaIDDQ    []float64
	// Simulated[i] is how many bridge faults actually ran a switch-level
	// campaign at Gs[i]; the remainder carried a verdict from a stronger
	// conductance (see the detected-fault-dropping note on
	// RunResistiveBridgeStudy).
	Simulated []int
}

// RunResistiveBridgeStudy re-simulates the pipeline's bridge faults under
// each bridge conductance. Opens are excluded (their behaviour does not
// depend on the bridge model), so the reported coverages are over bridge
// weight only.
//
// The sweep drops verdicts across conductance points instead of
// re-simulating every fault at every point: conductances are processed
// strongest-first, and a fault that voltage testing missed at conductance
// g is not re-simulated at any weaker g' < g — it carries the undetected
// verdict. This rests on the Renovell model's monotone-detectability
// premise (the same premise the study exists to illustrate): weakening the
// bridge only ever weakens the defect's side of every strength fight, so a
// bridge that cannot flip a node at g cannot flip one at g' < g. Since
// undetected faults are exactly the ones a campaign must carry through the
// entire vector set (detected faults already drop out at their detection
// vector), skipping them at the weak end — where almost nothing is
// voltage-detectable — removes most of the sweep's simulation work.
// Undecided faults (persistent oscillation, early stops) carry nothing and
// are conservatively re-simulated at every point. The IDDQ screen reads
// only fault-free node values, making it conductance-independent: it is
// computed once, on the first (full) campaign, and reused at every point.
// TestResistiveSweepDroppingMatchesExhaustive pins this sweep against the
// exhaustive one point by point. The campaigns poll ctx once per vector;
// a cancelled sweep returns the context's error.
func RunResistiveBridgeStudy(ctx context.Context, p *Pipeline, gs []float64) (*ResistiveBridgeStudy, error) {
	if len(gs) == 0 {
		gs = []float64{switchsim.BridgeG, 20, 5, 1.5, 0.3}
	}
	bridges := &fault.List{}
	for _, f := range p.Faults.Faults {
		if f.Kind == fault.KindBridge {
			bridges.Faults = append(bridges.Faults, f)
		}
	}
	vectors := p.Vectors()
	reg := p.Config.Obs.Metrics()
	st := &ResistiveBridgeStudy{
		Gs:           gs,
		ThetaVoltage: make([]float64, len(gs)),
		ThetaIDDQ:    make([]float64, len(gs)),
		Simulated:    make([]int, len(gs)),
	}

	// Verdict carrying makes the points order-dependent (strongest first),
	// so the sweep runs them sequentially and spends the pipeline's whole
	// worker budget inside each campaign instead of across points.
	order := make([]int, len(gs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return gs[order[a]] > gs[order[b]] })

	k := len(vectors)
	nb := len(bridges.Faults)
	candidate := make([]bool, nb) // simulate at the current point?
	for j := range candidate {
		candidate[j] = true
	}
	var iddqDet []bool // conductance-independent, from the first campaign
	pointDet := make([]bool, nb)
	combined := make([]bool, nb)
	sub := &fault.List{}
	var subIdx []int
	for _, oi := range order {
		sub.Faults = sub.Faults[:0]
		subIdx = subIdx[:0]
		for j, c := range candidate {
			if c {
				sub.Faults = append(sub.Faults, bridges.Faults[j])
				subIdx = append(subIdx, j)
			}
		}
		st.Simulated[oi] = len(sub.Faults)
		res, err := switchsim.SimulateFaults(ctx, p.Circuit, sub, vectors, p.Config.Workers, gs[oi], reg, nil)
		if err != nil {
			return nil, err
		}
		det := res.DetectedBy(k, false)
		clear(pointDet)
		for si, j := range subIdx {
			pointDet[j] = det[si]
			// Carry to the next weaker point: only faults this point
			// detected (or gave up on) are worth re-simulating there.
			candidate[j] = det[si] || res.Undecided[si]
		}
		if iddqDet == nil {
			iddqDet = make([]bool, nb)
			for si, j := range subIdx {
				iddqDet[j] = res.IDDQAt[si] > 0 && res.IDDQAt[si] <= k
			}
		}
		for j := range combined {
			combined[j] = pointDet[j] || iddqDet[j]
		}
		st.ThetaVoltage[oi] = bridges.WeightedCoverage(pointDet)
		st.ThetaIDDQ[oi] = bridges.WeightedCoverage(combined)
	}
	return st, nil
}

// Render prints the sweep.
func (st *ResistiveBridgeStudy) Render() string {
	var b strings.Builder
	b.WriteString("ABL-8  Resistive bridges: defect conductance vs detectability\n")
	tb := textplot.Table{Headers: []string{"bridge G", "Θ_bridge (voltage)", "Θ_bridge (+IDDQ)"}}
	for i, g := range st.Gs {
		name := fmt.Sprintf("%g", g)
		if g >= switchsim.BridgeG {
			name += " (hard short)"
		}
		tb.AddRow(name, fmt.Sprintf("%.4f", st.ThetaVoltage[i]), fmt.Sprintf("%.4f", st.ThetaIDDQ[i]))
	}
	b.WriteString(tb.Render())
	b.WriteString("(device drive conductances are 6–8; bridges below that stop flipping logic)\n")
	return b.String()
}
