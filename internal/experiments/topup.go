package experiments

import (
	"context"
	"fmt"
	"sort"

	"defectsim/internal/atpg"
	"defectsim/internal/dlmodel"
	"defectsim/internal/fault"
	"defectsim/internal/gatesim"
	"defectsim/internal/layout"
	"defectsim/internal/switchsim"
)

// BridgeTopUp (ABL-5) is the constructive answer to Θmax < 1: target the
// bridges the stuck-at test set missed with constrained ATPG (aggressor
// pinned to the victim's stuck value), verify each candidate pattern
// against the switch-level bridge model, and measure how far the verified
// extra vectors push the realistic coverage ceiling.
type BridgeTopUp struct {
	Targeted     int // undetected netlist-visible bridges attacked
	Generated    int // candidate patterns from constrained ATPG, up to each target's first verified one
	Verified     int // patterns confirmed by switch-level simulation
	ExtraVectors int

	ThetaBefore, ThetaAfter       float64
	ResidualBefore, ResidualAfter float64
	NewlyDetected                 int
}

// RunBridgeTopUp attacks up to maxTargets of the heaviest undetected
// bridges and re-scores the whole campaign with the verified vectors
// appended. The context reaches every constrained search and the
// re-score campaign; when it ends the study stops and returns the
// context's error.
func RunBridgeTopUp(ctx context.Context, p *Pipeline, maxTargets int) (*BridgeTopUp, error) {
	t := &BridgeTopUp{}
	t.ThetaBefore = p.ThetaCurve(false).Final()
	t.ResidualBefore = dlmodel.Params{R: 1, ThetaMax: t.ThetaBefore}.ResidualDL(p.Yield)

	// Undetected bridges whose both nets are netlist-visible.
	type target struct {
		idx    int
		w      float64
		na, nb int // netlist net indices
	}
	var targets []target
	for i, f := range p.Faults.Faults {
		if f.Kind != fault.KindBridge || p.SwitchRes.DetectedAt[i] != 0 {
			continue
		}
		a, b := p.Layout.Nets[f.NetA], p.Layout.Nets[f.NetB]
		if a.Kind != layout.KindSignal || b.Kind != layout.KindSignal {
			continue
		}
		targets = append(targets, target{i, f.Weight, a.NetlistNet, b.NetlistNet})
	}
	sort.Slice(targets, func(i, j int) bool {
		if targets[i].w != targets[j].w {
			return targets[i].w > targets[j].w
		}
		return targets[i].idx < targets[j].idx
	})
	if len(targets) > maxTargets {
		targets = targets[:maxTargets]
	}
	t.Targeted = len(targets)

	gen, err := atpg.NewGenerator(p.Netlist)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var extra []switchsim.Vector
	for _, tg := range targets {
		// Candidates are solved one at a time and the first pattern the
		// switch-level model confirms ends the target: one verified vector
		// per bridge suffices.
		gen.BridgePatterns(ctx, tg.na, tg.nb, p.Config.BacktrackLimit)(func(pat gatesim.Pattern) bool {
			t.Generated++
			vec := switchsim.Vectors([]gatesim.Pattern{pat})[0]
			if !bridgeDetects(p, tg.idx, vec) {
				return true
			}
			t.Verified++
			if key := fmt.Sprint(vec); !seen[key] {
				seen[key] = true
				extra = append(extra, vec)
			}
			return false
		})
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	t.ExtraVectors = len(extra)
	if len(extra) == 0 {
		t.ThetaAfter = t.ThetaBefore
		t.ResidualAfter = t.ResidualBefore
		return t, nil
	}

	// Re-score the full campaign with the extra vectors appended.
	base := p.Vectors()
	vectors := make([]switchsim.Vector, 0, len(base)+len(extra))
	vectors = append(vectors, base...)
	vectors = append(vectors, extra...)
	res, err := switchsim.SimulateFaults(ctx, p.Circuit, p.Faults, vectors,
		p.Config.Workers, switchsim.BridgeG, p.Config.Obs.Metrics(), p.switchMemo())
	if err != nil {
		return nil, err
	}
	// IDDQ credit is deliberately disabled on both sides of the Θ delta:
	// ThetaBefore is the voltage-only ThetaCurve(false), so scoring the
	// appended set with iddq=false keeps the comparison apples-to-apples.
	// This is also the right accounting for the paper's eq. 6: the top-up
	// measures what extra *voltage* vectors buy, while the IDDQ screen is
	// conductance-based and vector-count-independent (any vector exposing
	// the contention current suffices) — its contribution is the separate
	// ABL-2 ablation, and folding it in here would double-count detections
	// that needed no new vectors at all.
	// TestBridgeTopUpVoltageOnlyAccounting locks this choice.
	det := res.DetectedBy(len(vectors), false)
	t.ThetaAfter = p.Faults.WeightedCoverage(det)
	t.ResidualAfter = dlmodel.Params{R: 1, ThetaMax: t.ThetaAfter}.ResidualDL(p.Yield)
	for i := range p.Faults.Faults {
		if det[i] && p.SwitchRes.DetectedAt[i] == 0 {
			t.NewlyDetected++
		}
	}
	return t, nil
}

// bridgeDetects reports whether vec, applied to fresh machines, detects
// fault idx of p at switch level with the true drive strengths: some PO
// is definite in both the good and the faulty machine and differs.
func bridgeDetects(p *Pipeline, idx int, vec switchsim.Vector) bool {
	m, verdict := switchsim.NewFaultMachine(p.Circuit, p.Faults.Faults[idx])
	if verdict != switchsim.VerdictSimulate {
		return false
	}
	good := switchsim.NewMachine(p.Circuit)
	if !good.Apply(vec) || !m.Apply(vec) {
		return false
	}
	for _, po := range p.Circuit.POs {
		gv, fv := good.Val(po), m.Val(po)
		if gv != switchsim.VX && fv != switchsim.VX && gv != fv {
			return true
		}
	}
	return false
}

// Render prints the top-up report.
func (t *BridgeTopUp) Render() string {
	return fmt.Sprintf(
		"ABL-5  Realistic-fault (bridge) test top-up\n"+
			"  targeted undetected bridges : %d\n"+
			"  ATPG candidate patterns     : %d (switch-verified: %d)\n"+
			"  extra vectors appended      : %d\n"+
			"  newly detected faults       : %d\n"+
			"  Θ ceiling                   : %.4f → %.4f\n"+
			"  residual defect level       : %.0f ppm → %.0f ppm\n",
		t.Targeted, t.Generated, t.Verified, t.ExtraVectors, t.NewlyDetected,
		t.ThetaBefore, t.ThetaAfter, 1e6*t.ResidualBefore, 1e6*t.ResidualAfter)
}
