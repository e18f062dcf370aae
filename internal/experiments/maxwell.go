package experiments

import (
	"context"
	"fmt"

	"defectsim/internal/atpg"
	"defectsim/internal/dlmodel"
	"defectsim/internal/switchsim"
)

// MaxwellAitkenStudy (ABL-7) reproduces the phenomenon of the paper's
// experimental reference [4] (Maxwell & Aitken, "The Effect of Different
// Test Sets on Quality Level Prediction: When is 80% Better than 90%?"):
// two test sets with *identical* stuck-at fault coverage can deliver
// different product quality, because the longer set catches more
// non-target (realistic) faults along the way. We compare the pipeline's
// full test set against its reverse-order static compaction — same
// collapsed stuck-at coverage by construction — and measure the realistic
// coverage Θ and the shipped defect level under each.
type MaxwellAitkenStudy struct {
	FullVectors, CompactVectors int
	StuckAtCoverage             float64
	ThetaFull, ThetaCompact     float64
	DLFull, DLCompact           float64
}

// RunMaxwellAitken compacts the pipeline's test set and re-runs the
// switch-level campaign on the compacted vectors, polling ctx once per
// vector; a cancelled study returns the context's error.
func RunMaxwellAitken(ctx context.Context, p *Pipeline) (*MaxwellAitkenStudy, error) {
	st := &MaxwellAitkenStudy{
		FullVectors:     len(p.TestSet.Patterns),
		StuckAtCoverage: p.TestSet.Coverage(true),
		ThetaFull:       p.ThetaCurve(false).Final(),
	}
	st.DLFull = dlmodel.Weighted(p.Yield, st.ThetaFull)

	compacted, err := atpg.Compact(p.Netlist, p.StuckAt, p.TestSet.Patterns)
	if err != nil {
		return nil, err
	}
	st.CompactVectors = len(compacted)

	vectors := switchsim.Vectors(compacted)
	res, err := switchsim.SimulateFaults(ctx, p.Circuit, p.Faults, vectors, 0, switchsim.BridgeG, nil, p.switchMemo())
	if err != nil {
		return nil, err
	}
	det := res.DetectedBy(len(vectors), false)
	st.ThetaCompact = p.Faults.WeightedCoverage(det)
	st.DLCompact = dlmodel.Weighted(p.Yield, st.ThetaCompact)
	return st, nil
}

// Render prints the study.
func (st *MaxwellAitkenStudy) Render() string {
	return fmt.Sprintf(
		"ABL-7  Same stuck-at coverage, different quality (Maxwell–Aitken, ref. [4])\n"+
			"  stuck-at coverage (both sets)  : %.4f\n"+
			"  full test set                  : %d vectors, Θ = %.4f, DL = %.0f ppm\n"+
			"  compacted (coverage-preserving): %d vectors, Θ = %.4f, DL = %.0f ppm\n"+
			"  the compacted set ships %.0f%% more defects at identical stuck-at\n"+
			"  coverage — fault coverage alone does not determine quality.\n",
		st.StuckAtCoverage,
		st.FullVectors, st.ThetaFull, 1e6*st.DLFull,
		st.CompactVectors, st.ThetaCompact, 1e6*st.DLCompact,
		100*(st.DLCompact/st.DLFull-1))
}
