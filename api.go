package defectsim

// Public facade: the library's supported entry points. The implementation
// lives under internal/ (one package per subsystem, see DESIGN.md); this
// file re-exports the pieces a downstream user needs to
//
//   - evaluate the paper's defect-level models (eq. 1–3, 11),
//   - run the full layout → extraction → fault-simulation pipeline on a
//     circuit and read the coverage curves it produces, and
//   - fit the model parameters (R, Θmax) to fallout data.

import (
	"context"

	"defectsim/internal/coverage"
	"defectsim/internal/defect"
	"defectsim/internal/dlmodel"
	"defectsim/internal/experiments"
	"defectsim/internal/fit"
	"defectsim/internal/netlist"
	"defectsim/internal/obs"
)

// Model parameters and defect-level equations (package internal/dlmodel).
type (
	// ModelParams are the proposed model's parameters: the susceptibility
	// ratio R and the coverage ceiling Θmax (paper eq. 9–11).
	ModelParams = dlmodel.Params
	// DLPoint is one observed fallout point (stuck-at coverage, defect
	// level) for parameter fitting.
	DLPoint = fit.DLPoint
)

// WilliamsBrown returns DL = 1 − Y^(1−T) (paper eq. 1).
func WilliamsBrown(yield, coverage float64) float64 {
	return dlmodel.WilliamsBrown(yield, coverage)
}

// Agrawal returns the Agrawal–Seth–Agrawal defect level (paper eq. 2).
func Agrawal(yield, coverage, n float64) float64 {
	return dlmodel.Agrawal(yield, coverage, n)
}

// WeightedDL returns DL = 1 − Y^(1−Θ) over the weighted realistic fault
// coverage Θ (paper eq. 3).
func WeightedDL(yield, theta float64) float64 {
	return dlmodel.Weighted(yield, theta)
}

// FitModel fits (R, Θmax) to observed fallout points at a known yield.
func FitModel(points []DLPoint, yield float64) ModelParams {
	return fit.FitParams(points, yield)
}

// CoverageGrowth returns C(k) = Cmax·(1 − e^{−ln k / ln σ}) (paper eq. 8;
// eq. 7 is the cmax = 1 case).
func CoverageGrowth(k, sigma, cmax float64) float64 {
	return coverage.Growth(k, sigma, cmax)
}

// Circuits (package internal/netlist).
type (
	// Netlist is a combinational gate-level circuit.
	Netlist = netlist.Netlist
)

// C17 returns the exact ISCAS-85 c17 benchmark.
func C17() *Netlist { return netlist.C17() }

// C432Class returns the seeded synthetic benchmark matching the ISCAS-85
// c432 profile used throughout the paper's evaluation.
func C432Class(seed int64) *Netlist { return netlist.C432Class(seed) }

// RippleAdder returns an n-bit ripple-carry adder benchmark.
func RippleAdder(bits int) *Netlist { return netlist.RippleAdder(bits) }

// ParseBench reads an ISCAS .bench netlist; see internal/netlist for the
// format.
var ParseBench = netlist.ParseBench

// Pipeline execution (package internal/experiments).
type (
	// PipelineConfig parameterizes a run: seed, yield scaling, vector
	// budget, defect statistics and parallelism. Config.Workers bounds
	// the worker pools of the fault-parallel simulators and the
	// concurrent experiment drivers (0 selects runtime.NumCPU(); results
	// are bitwise identical for every worker count).
	PipelineConfig = experiments.Config
	// Pipeline is a fully simulated design: layout, weighted faults, test
	// set, and gate-/switch-level detection data, with methods producing
	// the coverage curves T(k), Θ(k), Γ(k).
	Pipeline = experiments.Pipeline
	// DefectStatistics characterizes a process line's spot defects.
	DefectStatistics = defect.Statistics
	// PipelineError is the failure of one pipeline stage: it names the
	// stage and wraps the cause (context.Canceled on cancellation,
	// context.DeadlineExceeded on timeout, the panic value on a stage
	// panic).
	PipelineError = experiments.PipelineError
	// Degradation is one graceful-degradation event of a run (stage
	// budget exhausted with a usable partial result, cache fallback);
	// see Pipeline.Degradations.
	Degradation = experiments.Degradation
)

// DefaultPipelineConfig returns the configuration of the paper's c432
// experiment (Y = 0.75, bridging-dominant statistics).
func DefaultPipelineConfig() PipelineConfig { return experiments.DefaultConfig() }

// TypicalDefects returns bridging-dominant spot-defect statistics; see
// internal/defect for the opens-dominant variant and tuning.
func TypicalDefects() DefectStatistics { return defect.Typical() }

// RunPipeline executes layout generation, LVS, inductive fault extraction,
// ATPG and both fault simulations for the circuit.
func RunPipeline(nl *Netlist, cfg PipelineConfig) (*Pipeline, error) {
	return experiments.Run(nl, cfg)
}

// RunPipelineCtx is RunPipeline under a context: cancelling ctx stops the
// run promptly with a *PipelineError naming the interrupted stage, and
// cfg.Deadline / cfg.StageBudgets bound the run and its stages (stage
// budgets degrade gracefully where a partial result is usable).
func RunPipelineCtx(ctx context.Context, nl *Netlist, cfg PipelineConfig) (*Pipeline, error) {
	return experiments.RunCtx(ctx, nl, cfg)
}

// RunPipelineCached is RunPipeline with a JSON result cache at path: reruns
// are skipped when the circuit and configuration match.
func RunPipelineCached(nl *Netlist, cfg PipelineConfig, path string) (p *Pipeline, cacheHit bool, err error) {
	return experiments.RunCachedCtx(context.Background(), nl, cfg, path)
}

// RunPipelineCachedCtx is RunPipelineCached under a context. A corrupt
// cache file never fails the call: the pipeline runs fresh and the
// fallback is recorded in Pipeline.Degradations.
func RunPipelineCachedCtx(ctx context.Context, nl *Netlist, cfg PipelineConfig, path string) (p *Pipeline, cacheHit bool, err error) {
	return experiments.RunCachedCtx(ctx, nl, cfg, path)
}

// FitPipeline extracts the fallout points (T(k), DL(Θ(k))) from a pipeline
// run and fits the proposed model — the end-to-end reproduction of the
// paper's figure 5 in one call.
func FitPipeline(p *Pipeline) ModelParams {
	return experiments.Figure5(p).Fitted
}

// SuiteStudy is the result of a benchmark-suite run: one fitted-model row
// per circuit.
type SuiteStudy = experiments.SuiteStudy

// RunSuite executes the full pipeline for every circuit concurrently on a
// bounded worker pool (cfg.Workers; 0 selects runtime.NumCPU()) and
// returns the per-circuit model fits in input order. Each circuit runs
// under the hardened-execution machinery (cancellation, deadline, stage
// budgets with graceful degradation).
func RunSuite(ctx context.Context, circuits []*Netlist, cfg PipelineConfig) (*SuiteStudy, error) {
	return experiments.RunSuiteCtx(ctx, circuits, cfg)
}

// Observability (package internal/obs).
type (
	// Tracer records per-stage spans (wall clock + allocation deltas) and
	// owns a metrics registry. Assign one to PipelineConfig.Obs to get a
	// RunReport in Pipeline.Report; the default nil tracer is free.
	Tracer = obs.Tracer
	// RunReport is a machine-readable snapshot of one pipeline run: the
	// stage tree plus every metric the subsystems recorded. It marshals
	// to JSON and renders as ASCII tables via Render().
	RunReport = obs.Report
)

// NewTracer returns a recording tracer for PipelineConfig.Obs.
func NewTracer() *Tracer { return obs.New() }
