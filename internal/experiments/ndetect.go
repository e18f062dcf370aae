package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"defectsim/internal/atpg"
	"defectsim/internal/dlmodel"
	"defectsim/internal/switchsim"
	"defectsim/internal/textplot"
)

// NDetectStudy (ABL-9) sweeps the detection multiplicity n: for each
// n ∈ {1..MaxN} it grows the pipeline's test set into an n-detect set
// (every testable stuck-at fault detected by ≥ n distinct vectors,
// Pomeranz & Reddy), re-scores the realistic fault list at switch level
// under the grown set, and projects the defect level through the paper's
// weighted model (eq. 11). The point of the sweep is the surrogate gap:
// stuck-at coverage T saturates at n = 1, but Θ(n) — and with it DL(n) —
// keeps improving as extra detections excite each fault site under new
// line conditions.
type NDetectStudy struct {
	// Ns lists the swept multiplicities, 1..MaxN.
	Ns []int
	// Vectors[i] is |T(n)| — the n-detect test-set size at n = Ns[i].
	// Monotone non-decreasing by construction: each level grows the
	// previous level's set.
	Vectors []int
	// Added[i] is how many vectors level Ns[i] appended to the previous
	// level (0 at n = 1, the pipeline's own set).
	Added []int
	// FullCoverage[i] is the fraction of testable stuck-at faults that
	// reached n detections under T(n).
	FullCoverage []float64
	// Saturated[i] counts testable faults the generator could not push to
	// n distinct detections.
	Saturated []int
	// Theta[i] is the weighted realistic (switch-level, voltage-test)
	// coverage Θ(n) of T(n) over the pipeline's fault list.
	Theta []float64
	// DL[i] is the projected defect level at Θ(n) (eq. 11 with the
	// pipeline's yield), as a fraction.
	DL []float64
	// Yield is the pipeline yield the DL projection used.
	Yield float64
}

// RunNDetectStudy sweeps n from 1 to maxN on a completed pipeline.
//
// Level 1 is the pipeline's own test set and switch-level campaign —
// no re-simulation. Each later level grows the previous level's set with
// atpg.BuildNDetectTestSet (so |T(n)| is monotone) and re-scores the
// realistic fault list with switchsim.SimulateFaults; a level that
// appends no vectors reuses the previous level's Θ outright. Θ is
// voltage-test coverage (no IDDQ credit), matching the pipeline's
// headline Θ and the top-up study's accounting.
func RunNDetectStudy(ctx context.Context, p *Pipeline, maxN int) (*NDetectStudy, error) {
	if maxN < 1 {
		return nil, fmt.Errorf("experiments: n-detect study needs maxN >= 1, got %d", maxN)
	}
	tr := p.Config.Obs
	reg := tr.Metrics()
	st := &NDetectStudy{Yield: p.Yield}

	record := func(n, vectors, added, saturated int, fullCov, theta float64) {
		st.Ns = append(st.Ns, n)
		st.Vectors = append(st.Vectors, vectors)
		st.Added = append(st.Added, added)
		st.Saturated = append(st.Saturated, saturated)
		st.FullCoverage = append(st.FullCoverage, fullCov)
		st.Theta = append(st.Theta, theta)
		dl := 0.0
		if p.Yield > 0 && p.Yield < 1 {
			dl = dlmodel.Weighted(p.Yield, theta)
		}
		st.DL = append(st.DL, dl)
	}

	// Level 1: the pipeline already built and scored exactly this set.
	baseVectors := p.Vectors()
	det1 := p.SwitchRes.DetectedBy(len(baseVectors), false)
	record(1, len(p.TestSet.Patterns), 0, 0, p.TestSet.Coverage(true), p.Faults.WeightedCoverage(det1))

	patterns := p.TestSet.Patterns
	theta := st.Theta[0]
	for n := 2; n <= maxN; n++ {
		sp := tr.StartSpan(fmt.Sprintf("ndetect-n%d", n))
		s, err := atpg.BuildNDetectTestSet(ctx, p.Netlist, p.StuckAt, patterns, p.TestSet.Untestable,
			n, p.Config.BacktrackLimit, p.Config.Workers, tr)
		if err != nil {
			sp.End()
			return nil, err
		}
		_, _, saturated := s.Counts()
		added := len(s.Patterns) - len(patterns)
		patterns = s.Patterns
		if added > 0 {
			// Re-score the realistic faults under the grown set.
			vectors := append(slices.Clip(baseVectors), switchsim.Vectors(patterns[len(baseVectors):])...)
			res, err := switchsim.SimulateFaults(ctx, p.Circuit, p.Faults, vectors,
				p.Config.Workers, switchsim.BridgeG, reg, p.switchMemo())
			if err != nil {
				sp.End()
				return nil, err
			}
			theta = p.Faults.WeightedCoverage(res.DetectedBy(len(vectors), false))
		}
		record(n, len(patterns), added, saturated, s.Coverage(true), theta)
		sp.End()
	}
	return st, nil
}

// Render prints the sweep as the DL(n) projection table.
func (st *NDetectStudy) Render() string {
	var b strings.Builder
	b.WriteString("ABL-9  n-detection: test-set growth vs realistic coverage and defect level\n")
	tb := textplot.Table{Headers: []string{"n", "|T(n)|", "added", "n-det cov", "Θ(n)", "DL(n) ppm"}}
	for i, n := range st.Ns {
		tb.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", st.Vectors[i]),
			fmt.Sprintf("%d", st.Added[i]),
			fmt.Sprintf("%.4f", st.FullCoverage[i]),
			fmt.Sprintf("%.4f", st.Theta[i]),
			fmt.Sprintf("%.1f", st.DL[i]*1e6),
		)
	}
	b.WriteString(tb.Render())
	fmt.Fprintf(&b, "(Θ and DL are voltage-test projections at yield %.3f; eq. 11 weighted model)\n", st.Yield)
	return b.String()
}
