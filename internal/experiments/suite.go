package experiments

import (
	"context"
	"fmt"
	"strings"

	"defectsim/internal/dlmodel"
	"defectsim/internal/netlist"
	"defectsim/internal/textplot"
)

// SuiteRow is one circuit's summary in a benchmark-suite study.
type SuiteRow struct {
	Name        string
	Gates       int
	Faults      int
	ThetaFinal  float64
	GammaFinal  float64
	Fitted      dlmodel.Params
	ResidualPPM float64
}

// SuiteStudy runs the full pipeline over a suite of circuits — the paper's
// "although some other examples were examined, only one example is
// discussed" made concrete: R and Θmax vary with circuit structure, but
// R > 1 and Θmax < 1 persist across the suite under bridging-dominant
// statistics.
type SuiteStudy struct {
	Rows []SuiteRow
}

// RunSuiteCtx executes the pipeline for each circuit with the shared
// config under a context, with the independent circuit pipelines running
// concurrently on a bounded worker pool (cfg.Workers;
// <= 0 selects runtime.NumCPU()). Every circuit runs the full hardened
// pipeline — deadline, stage budgets and graceful degradation apply per
// circuit — and the rows come back in input order, identical to a serial
// run. The per-circuit simulators run single-worker here: the suite's
// parallelism budget is spent across circuits, not nested inside them.
func RunSuiteCtx(ctx context.Context, circuits []*netlist.Netlist, cfg Config) (*SuiteStudy, error) {
	inner := cfg
	inner.Workers = 1
	// A tracer records one pipeline's span tree; sharing it across
	// concurrent circuits would interleave them, so the suite runs
	// untraced per circuit.
	inner.Obs = nil
	rows := make([]SuiteRow, len(circuits))
	err := forEach(ctx, cfg.Workers, len(circuits), func(i int) error {
		nl := circuits[i]
		p, err := RunCtx(ctx, nl, inner)
		if err != nil {
			return fmt.Errorf("suite: %s: %w", nl.Name, err)
		}
		f5 := Figure5(p)
		row := SuiteRow{
			Name:       nl.Name,
			Gates:      len(nl.Gates),
			Faults:     len(p.Faults.Faults),
			ThetaFinal: p.ThetaCurve(false).Final(),
			GammaFinal: p.GammaCurve().Final(),
			Fitted:     f5.Fitted,
		}
		row.ResidualPPM = 1e6 * dlmodel.Params{R: 1, ThetaMax: row.ThetaFinal}.ResidualDL(p.Yield)
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &SuiteStudy{Rows: rows}, nil
}

// Render prints the suite table.
func (st *SuiteStudy) Render() string {
	var b strings.Builder
	b.WriteString("Benchmark suite (shared defect statistics, Y scaled per design)\n")
	tb := textplot.Table{Headers: []string{
		"circuit", "gates", "faults", "Θ(final)", "Γ(final)", "R(fit)", "Θmax(fit)", "residual DL",
	}}
	for _, r := range st.Rows {
		tb.AddRow(r.Name, r.Gates, r.Faults,
			fmt.Sprintf("%.4f", r.ThetaFinal), fmt.Sprintf("%.4f", r.GammaFinal),
			fmt.Sprintf("%.2f", r.Fitted.R), fmt.Sprintf("%.3f", r.Fitted.ThetaMax),
			fmt.Sprintf("%.0f ppm", r.ResidualPPM))
	}
	b.WriteString(tb.Render())
	return b.String()
}
