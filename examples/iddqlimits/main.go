// iddqlimits: model-based IDDQ pass/fail limit setting. The quiescent
// current of every extracted defect is estimated from the drive
// conductances (bridge current = VDD · series(g_up, G_bridge, g_dn)), and
// a threshold sweep shows the coverage/guardband trade-off a test engineer
// faces: the limit must clear the good die's leakage with margin yet stay
// below the defect currents.
package main

import (
	"fmt"
	"log"

	"defectsim/internal/experiments"
	"defectsim/internal/iddq"
	"defectsim/internal/netlist"
	"defectsim/internal/switchsim"
	"defectsim/internal/textplot"
)

func main() {
	cfg := experiments.DefaultConfig()
	cfg.RandomVectors = 48
	p, err := experiments.Run(netlist.Comparator(6), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(p.Summary())

	vectors := switchsim.Vectors(p.TestSet.Patterns)

	model := iddq.DefaultModel()
	meas, err := iddq.Measure(p.Circuit, p.Faults, vectors, model)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbaseline (good die) IDDQ: %.3g   (leak %g per device × %d devices)\n",
		meas.Baseline, model.LeakPerDevice, len(p.Circuit.Devices))

	st := iddq.StudyLimits(meas, p.Faults, 10)
	tb := textplot.Table{Headers: []string{"limit (×baseline)", "weighted fault coverage"}}
	for i, l := range st.Limits {
		tb.AddRow(fmt.Sprintf("%.1f", l/meas.Baseline), fmt.Sprintf("%.4f", st.Coverage[i]))
	}
	fmt.Println()
	fmt.Println(tb.Render())

	limit, cov := st.BestLimit(meas.Baseline, 5)
	fmt.Printf("recommended limit: %.3g (%.0f× baseline) → weighted IDDQ coverage %.4f\n",
		limit, limit/meas.Baseline, cov)
	fmt.Println("\nBridge currents sit orders of magnitude above leakage, so even a")
	fmt.Println("5× guardband loses almost no coverage — the quantitative backing")
	fmt.Println("for the paper's call to add current testing to the production flow.")
}
