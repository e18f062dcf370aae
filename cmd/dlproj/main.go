// Command dlproj regenerates the paper's figures, tables and worked
// examples from the defectsim pipeline.
//
// Usage:
//
//	dlproj [flags] <command>
//
// Commands:
//
//	fig1     analytic coverage-growth curves T(k), Θ(k)       (paper fig. 1)
//	fig2     DL(T): Williams–Brown vs proposed model          (paper fig. 2)
//	fig3     histogram of extracted fault weights             (paper fig. 3)
//	fig4     simulated coverage curves T, Θ, Γ vs k           (paper fig. 4)
//	fig5     DL vs stuck-at coverage + model fit              (paper fig. 5)
//	fig6     DL vs unweighted coverage                        (paper fig. 6)
//	ex1      required coverage for 100 ppm                    (paper ex. 1)
//	ex2      residual defect level at 100% coverage           (paper ex. 2)
//	agrawal  Agrawal-model comparison                         (TAB-A)
//	iddq     voltage vs voltage+IDDQ coverage ceiling         (ABL-2)
//	opens    rerun with an opens-dominant defect mix          (ABL-3)
//	delay    transition (delay) testing vs stuck-at testing   (ABL-4)
//	topup    bridge-targeting ATPG top-up of the test set     (ABL-5)
//	paths    path-delay coverage of the K longest paths       (ABL-6)
//	maxwell  equal-coverage test sets, different quality      (ABL-7)
//	resist   resistive-bridge conductance sweep               (ABL-8)
//	ndetect  n-detection sweep: |T(n)|, Θ(n), DL(n)           (ABL-9)
//	dft      observation points at SCOAP-hard nets            (DFT-1)
//	lot      empirical DL from a simulated production lot     (VAL-1)
//	inject   geometric defect-injection extraction check      (VAL-2)
//	diag     bridge diagnosis via stuck-at surrogates         (VAL-3)
//	kinds    per-fault-kind detection breakdown
//	suite    run the pipeline over the whole benchmark suite
//	yieldrep Stapper per-defect-class yield decomposition
//	wafer    ASCII wafer maps (flat vs edge-degraded line)
//	svg      write the chip layout to <circuit>.svg
//	report   pipeline summary for the selected circuit
//	profile  per-stage wall-time/alloc/metric breakdown of the pipeline
//	all      fig1, fig2, ex1, ex2, report, then fig3–fig6, agrawal, iddq,
//	         delay, resist, lot, inject, diag, kinds
//
// Flags select the circuit (default: the c432-class benchmark), the seed,
// the yield scaling and the random-vector budget; -n bounds the ndetect
// sweep's detection multiplicity, -trace=<path> writes a
// machine-readable JSON run report for any pipeline command, -timeout
// bounds the run's wall time, and -workers sizes the worker pool of the
// fault-parallel simulators and the concurrent experiment suite (0 = all
// CPUs; simulation results are identical for every worker count).
// The first SIGINT/SIGTERM cancels a running pipeline cleanly; a second
// forces immediate exit.
//
// Exit codes:
//
//	0  success
//	1  pipeline or I/O failure
//	2  usage error
//	3  run cancelled (signal) or timed out (-timeout)
//	4  success, but the run degraded (partial results; see stderr)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"defectsim/internal/defect"
	"defectsim/internal/experiments"
	"defectsim/internal/extract"
	"defectsim/internal/layout"
	"defectsim/internal/netlist"
	"defectsim/internal/obs"
	"defectsim/internal/sigctx"
	"defectsim/internal/wafer"
)

// commands is the single source of truth for the command list: the usage
// message is derived from it, and dispatch validates against it.
var commands = []struct{ name, desc string }{
	{"fig1", "analytic coverage-growth curves T(k), Θ(k) (paper fig. 1)"},
	{"fig2", "DL(T): Williams–Brown vs proposed model (paper fig. 2)"},
	{"fig3", "histogram of extracted fault weights (paper fig. 3)"},
	{"fig4", "simulated coverage curves T, Θ, Γ vs k (paper fig. 4)"},
	{"fig5", "DL vs stuck-at coverage + model fit (paper fig. 5)"},
	{"fig6", "DL vs unweighted coverage (paper fig. 6)"},
	{"ex1", "required coverage for 100 ppm (paper ex. 1)"},
	{"ex2", "residual defect level at 100% coverage (paper ex. 2)"},
	{"agrawal", "Agrawal-model comparison (TAB-A)"},
	{"iddq", "voltage vs voltage+IDDQ coverage ceiling (ABL-2)"},
	{"opens", "rerun with an opens-dominant defect mix (ABL-3)"},
	{"delay", "transition (delay) testing vs stuck-at testing (ABL-4)"},
	{"topup", "bridge-targeting ATPG top-up of the test set (ABL-5)"},
	{"paths", "path-delay coverage of the K longest paths (ABL-6)"},
	{"maxwell", "equal-coverage test sets, different quality (ABL-7)"},
	{"resist", "resistive-bridge conductance sweep (ABL-8)"},
	{"ndetect", "n-detection sweep: |T(n)|, Θ(n), DL(n) (ABL-9)"},
	{"dft", "observation points at SCOAP-hard nets (DFT-1)"},
	{"lot", "empirical DL from a simulated production lot (VAL-1)"},
	{"inject", "geometric defect-injection extraction check (VAL-2)"},
	{"diag", "bridge diagnosis via stuck-at surrogates (VAL-3)"},
	{"kinds", "per-fault-kind detection breakdown"},
	{"suite", "run the pipeline over the whole benchmark suite"},
	{"yieldrep", "Stapper per-defect-class yield decomposition"},
	{"wafer", "ASCII wafer maps (flat vs edge-degraded line)"},
	{"svg", "write the chip layout to <circuit>.svg"},
	{"report", "pipeline summary for the selected circuit"},
	{"profile", "per-stage wall-time/alloc/metric breakdown of the pipeline"},
	{"all", "fig1, fig2, ex1, ex2, report, then fig3–fig6, agrawal, iddq, delay, resist, lot, inject, diag, kinds"},
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: dlproj [flags] <command>")
	fmt.Fprintln(os.Stderr, "\ncommands:")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-9s %s\n", c.name, c.desc)
	}
	fmt.Fprintln(os.Stderr, "\nflags:")
	flag.PrintDefaults()
}

func knownCommand(cmd string) bool {
	for _, c := range commands {
		if c.name == cmd {
			return true
		}
	}
	return false
}

func main() {
	var (
		circuit = flag.String("circuit", "c432", "benchmark: c432|c17|adder|mux|parity|cmp|dec|random")
		seed    = flag.Int64("seed", 1994, "generator / random-vector seed")
		yield   = flag.Float64("yield", 0.75, "target yield the fault weights are scaled to")
		vectors = flag.Int("vectors", 64, "random vector prefix before deterministic top-up")
		stats   = flag.String("stats", "typical", "defect statistics: typical|opens")
		cache   = flag.String("cache", "", "path to a pipeline result cache (created on miss, reused on hit)")
		trace   = flag.String("trace", "", "write a JSON run report (stage tree + metrics) to this path")
		timeout = flag.Duration("timeout", 0, "bound the pipeline's wall time (0 = unlimited); expiry exits with code 3")
		workers = flag.Int("workers", 0, "worker pool size for the fault-parallel simulators and concurrent experiments (0 = all CPUs)")
		ndetect = flag.Int("n", 4, "maximum detection multiplicity for the ndetect sweep")
	)
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	cmd := strings.ToLower(flag.Arg(0))
	if !knownCommand(cmd) {
		fmt.Fprintf(os.Stderr, "dlproj: unknown command %q (run dlproj -h for the list)\n", cmd)
		os.Exit(2)
	}

	// Cancel the run cleanly on the first SIGINT/SIGTERM; a second signal
	// forces immediate exit (shared policy with dlprojd, internal/sigctx).
	ctx, stop := sigctx.Notify(context.Background())
	defer stop()

	cfg := experiments.DefaultConfig()
	cfg.Seed = *seed
	cfg.TargetYield = *yield
	cfg.RandomVectors = *vectors
	cfg.Workers = *workers
	if *timeout > 0 {
		cfg.Deadline = *timeout
	}
	switch *stats {
	case "typical":
		cfg.Stats = defect.Typical()
	case "opens":
		cfg.Stats = defect.OpensDominant()
	default:
		fatal(fmt.Errorf("unknown -stats %q", *stats))
	}

	nl, err := pickCircuit(*circuit, *seed)
	if err != nil {
		fatal(err)
	}

	// Tracing: opted in via -trace or implied by the profile command.
	if *trace != "" || cmd == "profile" {
		cfg.Obs = obs.New()
	}
	writeTrace := func(p *experiments.Pipeline) {
		if *trace == "" || p == nil || p.Report == nil {
			return
		}
		data, err := p.Report.JSON()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*trace, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote run report to %s\n", *trace)
	}

	// Analytic commands need no simulation.
	switch cmd {
	case "fig1":
		fmt.Print(experiments.Figure1().Render())
		return
	case "fig2":
		fmt.Print(experiments.Figure2().Render())
		return
	case "ex1":
		e, err := experiments.RunExample1()
		if err != nil {
			fatal(err)
		}
		fmt.Print(e.Render())
		return
	case "ex2":
		fmt.Print(experiments.RunExample2().Render())
		return
	}

	// degraded flips when any pipeline run finished on a graceful-
	// degradation path; the process then exits 4 instead of 0.
	degraded := false
	noteDegradations := func(p *experiments.Pipeline) {
		if p.Degraded() {
			degraded = true
			for _, d := range p.Degradations {
				fmt.Fprintf(os.Stderr, "dlproj: %s\n", d)
			}
		}
	}
	run := func(c experiments.Config) *experiments.Pipeline {
		if *cache != "" {
			p, hit, err := experiments.RunCachedCtx(ctx, nl, c, *cache)
			if err != nil {
				fatal(err)
			}
			if hit {
				fmt.Fprintf(os.Stderr, "cache hit: reusing pipeline results from %s\n", *cache)
			} else {
				fmt.Fprintf(os.Stderr, "cache miss: pipeline simulated and cached to %s\n", *cache)
			}
			noteDegradations(p)
			writeTrace(p)
			return p
		}
		fmt.Fprintf(os.Stderr, "running pipeline on %s (layout, extraction, ATPG, fault simulation)...\n", nl.Name)
		p, err := experiments.RunCtx(ctx, nl, c)
		if err != nil {
			fatal(err)
		}
		noteDegradations(p)
		writeTrace(p)
		return p
	}

	studies := experiments.StandardStudies()
	switch cmd {
	case "svg":
		L, err := layout.BuildCtx(ctx, nl, nil)
		if err != nil {
			fatal(err)
		}
		name := nl.Name + ".svg"
		f, err := os.Create(name)
		if err != nil {
			fatal(err)
		}
		if err := L.WriteSVG(f, 1); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%s)\n", name, L.ComputeStats())
	case "opens":
		cfg.Stats = defect.OpensDominant()
		p := run(cfg)
		fmt.Print(p.Summary())
		fmt.Print(experiments.Figure4(p).Render())
	case "topup":
		tu, err := experiments.RunBridgeTopUp(ctx, run(cfg), 500)
		if err != nil {
			fatal(err)
		}
		fmt.Print(tu.Render())
	case "paths":
		st, err := experiments.RunPathDelayStudy(run(cfg), 100)
		if err != nil {
			fatal(err)
		}
		fmt.Print(st.Render())
	case "dft":
		st, err := experiments.RunTestPointStudy(run(cfg), 8)
		if err != nil {
			fatal(err)
		}
		fmt.Print(st.Render())
	case "ndetect":
		st, err := experiments.RunNDetectStudy(ctx, run(cfg), *ndetect)
		if err != nil {
			fatal(err)
		}
		fmt.Print(st.Render())
	case "maxwell":
		st, err := experiments.RunMaxwellAitken(ctx, run(cfg))
		if err != nil {
			fatal(err)
		}
		fmt.Print(st.Render())
	case "suite":
		fmt.Fprintln(os.Stderr, "running the pipeline over the benchmark suite (circuits in parallel)...")
		st, err := experiments.RunSuiteCtx(ctx, []*netlist.Netlist{
			netlist.C17(),
			netlist.RippleAdder(8),
			netlist.MuxTree(3),
			netlist.ParityTree(12),
			netlist.Comparator(8),
			netlist.Decoder(3),
			netlist.C432Class(*seed),
		}, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Print(st.Render())
	case "yieldrep":
		L, err := layout.BuildCtx(ctx, nl, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Print(extract.RenderClassReport(extract.ClassReport(L, cfg.Stats)))
	case "wafer":
		p := run(cfg)
		g := wafer.Geometry{Radius: 150, DieW: 7, DieH: 7, EdgeExclusion: 4}
		k := len(p.TestSet.Patterns)
		fmt.Println("--- flat defect density ---")
		fmt.Print(wafer.Simulate(g, p.Faults, p.SwitchRes.DetectedAt, k, wafer.Uniform(), *seed).Render())
		fmt.Println("--- edge-degraded (×3 at the rim) ---")
		fmt.Print(wafer.Simulate(g, p.Faults, p.SwitchRes.DetectedAt, k, wafer.EdgeDegraded(3), *seed).Render())
	case "report":
		fmt.Print(run(cfg).Summary())
	case "profile":
		p := run(cfg)
		fmt.Print(p.Report.Render())
	case "all":
		fmt.Print(experiments.Figure1().Render(), "\n")
		fmt.Print(experiments.Figure2().Render(), "\n")
		e1, err := experiments.RunExample1()
		if err != nil {
			fatal(err)
		}
		fmt.Print(e1.Render(), "\n")
		fmt.Print(experiments.RunExample2().Render(), "\n")
		p := run(cfg)
		fmt.Print(p.Summary(), "\n")
		// The remaining studies only read the pipeline, so they run as a
		// concurrent suite on the -workers pool; output order is fixed.
		rendered, err := experiments.RunStudies(ctx, p, studies, cfg.Workers)
		if err != nil {
			fatal(err)
		}
		for _, s := range rendered {
			fmt.Print(s, "\n")
		}
	default:
		// fig3–fig6, agrawal, iddq, delay, resist, lot, inject, diag and
		// kinds: one study of the `all` suite.
		i := slices.IndexFunc(studies, func(s experiments.Study) bool { return s.Name == cmd })
		if i < 0 {
			fatal(fmt.Errorf("unknown command %q", cmd))
		}
		out, err := studies[i].Run(ctx, run(cfg))
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
	}
	if degraded {
		fmt.Fprintln(os.Stderr, "dlproj: run degraded — results are partial (exit 4)")
		os.Exit(4)
	}
}

func pickCircuit(name string, seed int64) (*netlist.Netlist, error) {
	return netlist.ByName(name, seed)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dlproj:", err)
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		os.Exit(3)
	}
	os.Exit(1)
}
