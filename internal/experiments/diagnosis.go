package experiments

import (
	"context"
	"fmt"

	"defectsim/internal/diagnose"
	"defectsim/internal/fault"
	"defectsim/internal/gatesim"
	"defectsim/internal/layout"
	"defectsim/internal/switchsim"
)

// DiagnosisStudy (VAL-3) closes the loop from fallout to physical defect:
// for real (switch-level) bridge defects, the observed tester failures are
// matched against the single stuck-at dictionary, and a diagnosis counts
// as localized when a top-ranked surrogate stuck-at candidate sits on one
// of the two physically bridged nets. This is the modern "stuck-at
// surrogate" diagnosis flow evaluated on ground-truth defects the
// simulator knows exactly.
type DiagnosisStudy struct {
	Bridges     int // diagnosed bridge defects
	Localized   int // a bridged net appears in the top-K implicated nets
	TopK        int
	MeanRank    float64 // mean rank (1-based) of the first correct net
	Undiagnosed int     // bridges with no failing observation
}

// RunDiagnosisStudy diagnoses up to maxBridges detected signal-net bridges
// with a top-K implicated-net budget. ctx is polled once per bridge; a
// cancelled study returns the context's error.
func RunDiagnosisStudy(ctx context.Context, p *Pipeline, maxBridges, topK int) (*DiagnosisStudy, error) {
	dict, err := diagnose.Build(p.Netlist, p.StuckAt, p.TestSet.Patterns)
	if err != nil {
		return nil, err
	}
	vectors := p.Vectors()
	good := switchsim.Run(p.Circuit, vectors)

	st := &DiagnosisStudy{TopK: topK}
	var rankSum int
	for i, f := range p.Faults.Faults {
		if st.Bridges >= maxBridges {
			break
		}
		if f.Kind != fault.KindBridge || p.SwitchRes.DetectedAt[i] == 0 {
			continue
		}
		a, b := p.Layout.Nets[f.NetA], p.Layout.Nets[f.NetB]
		if a.Kind != layout.KindSignal || b.Kind != layout.KindSignal {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		obs := observeBridge(p, f, vectors, good)
		if len(obs) == 0 {
			st.Undiagnosed++
			continue
		}
		st.Bridges++
		cands := dict.Diagnose(obs, 0)
		nets := diagnose.ImplicatedNets(cands)
		if len(nets) > topK {
			nets = nets[:topK]
		}
		for rank, net := range nets {
			if net == a.NetlistNet || net == b.NetlistNet {
				st.Localized++
				rankSum += rank + 1
				break
			}
		}
	}
	if st.Localized > 0 {
		st.MeanRank = float64(rankSum) / float64(st.Localized)
	}
	return st, nil
}

// observeBridge replays the test set on the bridged machine and collects
// the definite primary-output mismatches against the fault-free outputs
// good (switchsim.Run) — what a tester's datalog holds. A vector the
// fault-free machine did not settle on is skipped, and the bridged
// machine does not step it.
func observeBridge(p *Pipeline, f fault.Realistic, vectors []switchsim.Vector, good [][]switchsim.Val) []gatesim.Fail {
	m, verdict := switchsim.NewFaultMachine(p.Circuit, f)
	if verdict != switchsim.VerdictSimulate {
		return nil
	}
	var obs []gatesim.Fail
	for k, vec := range vectors {
		if good[k] == nil || !m.Apply(vec) {
			continue
		}
		var pm uint64
		for oi, po := range p.Circuit.POs {
			gv, fv := good[k][oi], m.Val(po)
			if gv != switchsim.VX && fv != switchsim.VX && gv != fv {
				pm |= 1 << uint(oi)
			}
		}
		if pm != 0 {
			obs = append(obs, gatesim.Fail{Vector: k, POMask: pm})
		}
	}
	return obs
}

// Render prints the study.
func (st *DiagnosisStudy) Render() string {
	rate := 0.0
	if st.Bridges > 0 {
		rate = float64(st.Localized) / float64(st.Bridges)
	}
	return fmt.Sprintf(
		"VAL-3  Bridge diagnosis through stuck-at surrogates\n"+
			"  diagnosed bridges      : %d (+%d with no observable failures)\n"+
			"  localized in top-%d nets: %d (%.0f%%)\n"+
			"  mean rank of first hit : %.1f\n",
		st.Bridges, st.Undiagnosed, st.TopK, st.Localized, 100*rate, st.MeanRank)
}
