// Package experiments reproduces the paper's evaluation: it wires the full
// pipeline (standard-cell layout → inductive fault extraction → gate- and
// switch-level fault simulation → defect-level models) and provides one
// driver per figure/example, each returning its data along with an ASCII
// rendering. See DESIGN.md for the per-experiment index and EXPERIMENTS.md
// for recorded paper-vs-measured results.
//
// # Hardened execution
//
// RunCtx is the hardened entry point: the context cancels the run between
// and inside stages (the ATPG, gate-sim and switch-sim hot loops poll it),
// Config.Deadline bounds the whole run, and Config.StageBudgets bounds
// individual stages. A stage that exhausts its own budget degrades
// gracefully where a partial result is usable (ATPG keeps the partial test
// set with the remaining faults aborted; switch-sim keeps the vectors
// applied so far with undetected-but-unfinished faults marked undecided)
// and the event is recorded in Pipeline.Degradations and the run report.
// Cancellation, global deadline expiry and stage panics instead fail the
// run with a *PipelineError naming the stage and wrapping the cause.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"defectsim/internal/atpg"
	"defectsim/internal/coverage"
	"defectsim/internal/defect"
	"defectsim/internal/fault"
	"defectsim/internal/layout"
	"defectsim/internal/netlist"
	"defectsim/internal/obs"
	"defectsim/internal/switchsim"
	"defectsim/internal/transistor"
)

// StageNames lists the pipeline stages in execution order — the valid
// keys of Config.StageBudgets and the stage labels of spans, PipelineError
// and Degradation records. A store hit runs "cache-load" in place of atpg
// and switch-sim; it takes no budget of its own.
var StageNames = []string{
	"layout", "lvs", "extract", "scale-weights", "transistor-map",
	"stuckat-collapse", "atpg", "switch-sim", "curves",
}

// Config parameterizes a pipeline run.
type Config struct {
	// Seed drives benchmark generation and the random vector prefix.
	Seed int64
	// TargetYield rescales the extracted fault weights (paper: 0.75).
	// Zero disables scaling.
	TargetYield float64
	// RandomVectors is the length of the random prefix before deterministic
	// top-up (paper: enough for >80% stuck-at coverage).
	RandomVectors int
	// BacktrackLimit bounds the deterministic generator per fault.
	BacktrackLimit int
	// Stats is the spot-defect characterization (default defect.Typical()).
	Stats defect.Statistics
	// Obs, when non-nil, receives a span per pipeline stage and the
	// subsystem metrics; the resulting run report lands in
	// Pipeline.Report. The default nil tracer costs nothing.
	Obs *obs.Tracer
	// Deadline, when positive, bounds the whole run's wall time. Expiry
	// fails the run with a *PipelineError wrapping
	// context.DeadlineExceeded.
	Deadline time.Duration
	// StageBudgets, keyed by StageNames entries, bound individual stages.
	// Exhausting a stage budget degrades the run where a partial result is
	// usable (atpg, switch-sim) and fails it otherwise.
	StageBudgets map[string]time.Duration
	// Workers bounds the worker pools of the run: the fault-parallel
	// gate- and switch-level simulators inside the pipeline stages, and
	// the concurrent experiment drivers built on top (RunSuiteCtx,
	// RunStudies). Zero selects runtime.NumCPU() (the shared internal/par
	// policy); negative counts are rejected by Validate. Simulation
	// results are bitwise identical for every worker count.
	Workers int
	// FrontEnds, when non-nil, memoizes the front end (layout through
	// stuckat-collapse) across runs: a run of a design the memo holds —
	// same netlist, defect statistics and target yield — shares its
	// artifacts instead of rebuilding them. The run's switch-level
	// campaigns share the memo's seed-class table, and a design the memo
	// serves also its fault plans and CCC tables. Like Obs and Workers it is
	// execution-only and stays out of CacheKey: results are bitwise
	// identical with and without it. A memoized front end keeps the
	// netlist it was built from, which must not change afterwards. Nil
	// builds the front end every time.
	FrontEnds *FrontEnds
}

// DefaultConfig returns the configuration of the paper's c432 experiment.
func DefaultConfig() Config {
	return Config{
		Seed:           1994,
		TargetYield:    0.75,
		RandomVectors:  64,
		BacktrackLimit: 2000,
		Stats:          defect.Typical(),
	}
}

// Validate rejects configurations that cannot run: negative vector or
// backtrack counts, a target yield outside (0, 1] (zero is allowed and
// disables scaling), uninitialized defect statistics, negative budgets and
// budgets for stages that do not exist.
func (c *Config) Validate() error {
	if c.RandomVectors < 0 {
		return fmt.Errorf("experiments: config: RandomVectors is %d, must be >= 0", c.RandomVectors)
	}
	if c.BacktrackLimit < 0 {
		return fmt.Errorf("experiments: config: BacktrackLimit is %d, must be >= 0", c.BacktrackLimit)
	}
	if c.TargetYield < 0 || c.TargetYield > 1 {
		return fmt.Errorf("experiments: config: TargetYield is %g, must be in (0, 1] (or 0 to disable scaling)", c.TargetYield)
	}
	if c.Stats.MaxSize <= 0 {
		return fmt.Errorf("experiments: config: Stats.MaxSize is %d; Stats looks uninitialized, use defect.Typical()", c.Stats.MaxSize)
	}
	for _, cl := range c.Stats.Classes {
		if cl.Density < 0 {
			return fmt.Errorf("experiments: config: defect class %v has negative density %g", cl.Type, cl.Density)
		}
	}
	if c.Deadline < 0 {
		return fmt.Errorf("experiments: config: Deadline is %v, must be >= 0", c.Deadline)
	}
	if c.Workers < 0 {
		return fmt.Errorf("experiments: config: Workers is %d, must be >= 0 (0 selects NumCPU)", c.Workers)
	}
	for name, b := range c.StageBudgets {
		if b <= 0 {
			return fmt.Errorf("experiments: config: stage budget for %q is %v, must be > 0", name, b)
		}
		known := false
		for _, s := range StageNames {
			if s == name {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("experiments: config: stage budget for unknown stage %q (stages: %s)", name, strings.Join(StageNames, ", "))
		}
	}
	return nil
}

// Pipeline is a fully simulated design: every artifact the figures need.
//
// Layout, Faults, Circuit and StuckAt are the front end. With
// Config.FrontEnds set they may be shared with every other run of the
// same design, so they are read-only: a study that needs a variant copies
// it first (RunResistiveBridgeStudy builds its own bridge list).
type Pipeline struct {
	Config  Config
	Netlist *netlist.Netlist
	Layout  *layout.Layout
	Circuit *transistor.Circuit

	// Realistic faults with weights scaled to the target yield.
	Faults *fault.List
	Yield  float64

	// Stuck-at side: collapsed universe, test set (random + deterministic),
	// detection data.
	StuckAt []fault.StuckAt
	TestSet *atpg.TestSet

	// Switch-level side: realistic-fault detection data under the same
	// vectors.
	SwitchRes *switchsim.Result

	// Ks is the log-spaced vector-count grid shared by all curves.
	Ks []int

	// Degradations lists the graceful-degradation events of the run: stage
	// budgets that expired with a usable partial result, switch-sim
	// settle failures, cache-corruption fallbacks. Empty on a clean run.
	Degradations []Degradation

	// Report is the observability run report (stage tree + metrics
	// snapshot); nil unless Config.Obs was set.
	Report *obs.Report

	// vectorsMu guards vectors, the test set as switch-level vectors, made
	// on first use by Vectors and shared by every downstream campaign.
	vectorsMu sync.Mutex
	vectors   []switchsim.Vector

	// served is the key of the Config.FrontEnds entry that served the
	// run's front end (nil: a miss, or no memo).
	served *frontEndKey
}

// switchMemo returns the switch-level memo the campaigns at
// switchsim.BridgeG on Faults share (nil: each keeps a private one). It is
// looked up when a campaign starts, so a retained Pipeline does not keep
// an evicted front end's design memo alive.
func (p *Pipeline) switchMemo() *switchsim.Memo {
	return p.Config.FrontEnds.switchMemo(p.served)
}

// Vectors returns the pipeline test set converted to switch-level vectors,
// memoized: every downstream study shares one slice (read-only by
// convention) instead of re-converting the patterns.
func (p *Pipeline) Vectors() []switchsim.Vector {
	p.vectorsMu.Lock()
	defer p.vectorsMu.Unlock()
	if p.vectors == nil {
		p.vectors = switchsim.Vectors(p.TestSet.Patterns)
	}
	return p.vectors
}

// Degraded reports whether the run hit any graceful-degradation path.
// Degraded results are usable but cover less than the full workload.
func (p *Pipeline) Degraded() bool { return len(p.Degradations) > 0 }

// ResultDegraded reports whether the simulation results themselves are
// partial — a stage budget or deadline cut a stage short (fewer ATPG
// patterns, undecided faults). Degradations on the "cache" stage are
// bookkeeping (fallback from a corrupt file, a failed cache write): the
// run behind them is complete, so they do not count here. Only
// result-complete runs may be persisted to the result cache.
func (p *Pipeline) ResultDegraded() bool {
	for _, d := range p.Degradations {
		if d.Stage != "cache" {
			return true
		}
	}
	return false
}

// runner executes pipeline stages under the hardening policy: one span
// per stage, per-stage budget contexts, and panic isolation.
type runner struct {
	ctx context.Context // run context (global deadline applied)
	cfg Config
	tr  *obs.Tracer
	reg *obs.Registry
	p   *Pipeline
	// stageSec is the pipeline_stage_seconds{stage} histogram, resolved
	// once per run; stage() observes every stage's wall time into it.
	stageSec *obs.HistogramVec
}

// StageSecondsBuckets are the pipeline_stage_seconds bucket bounds:
// 1ms … ~4.4min in powers of 4, wide enough for both the unit-test
// circuits and a full hard-benchmark run.
var StageSecondsBuckets = obs.ExpBuckets(0.001, 4, 10)

// stage runs fn under the stage's span and budget context and converts
// failures — errors and panics alike — into a *PipelineError naming the
// stage. fn decides itself whether a budget expiry degrades (return nil
// after recording the partial result) or fails (return the error).
func (r *runner) stage(name string, fn func(ctx context.Context) error) (err error) {
	ctx := r.ctx
	if b, ok := r.cfg.StageBudgets[name]; ok && b > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, b)
		defer cancel()
	}
	start := time.Now()
	defer func() {
		r.stageSec.With(name).Observe(time.Since(start).Seconds())
	}()
	sp := r.tr.StartSpan(name)
	defer sp.End()
	defer func() {
		if rec := recover(); rec != nil {
			err = &PipelineError{
				Stage:    name,
				Err:      fmt.Errorf("panic: %v\n%s", rec, debug.Stack()),
				Progress: r.reg.CounterSnapshot(),
			}
		}
	}()
	if err := fn(ctx); err != nil {
		return &PipelineError{Stage: name, Err: err, Progress: r.reg.CounterSnapshot()}
	}
	return nil
}

// budgetExhausted reports whether err is a stage-budget expiry rather
// than run-level cancellation: the stage context hit its deadline while
// the run context is still live.
func (r *runner) budgetExhausted(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) && r.ctx.Err() == nil
}

// degrade records one graceful-degradation event on the pipeline and as a
// metric counter.
func (r *runner) degrade(stage, reason string) {
	r.p.Degradations = append(r.p.Degradations, Degradation{Stage: stage, Reason: reason})
	r.reg.Counter("pipeline_degraded_" + strings.ReplaceAll(stage, "-", "_")).Inc()
}

// Run executes the full pipeline for nl. With cfg.Obs set, every stage is
// wrapped in a span (wall clock + allocation delta), the subsystems record
// their metrics, and the combined run report lands in Pipeline.Report.
// Run is RunCtx without cancellation.
func Run(nl *netlist.Netlist, cfg Config) (*Pipeline, error) {
	return RunCtx(context.Background(), nl, cfg)
}

// RunCtx is Run under a context: cancelling ctx stops the run promptly
// (the simulation hot loops poll it) with a *PipelineError naming the
// interrupted stage and wrapping ctx's error. cfg.Deadline bounds the
// whole run; cfg.StageBudgets bound single stages, degrading gracefully
// where the stage's partial result is usable. See the package comment for
// the full hardening policy.
func RunCtx(ctx context.Context, nl *netlist.Netlist, cfg Config) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p, _, err := run(ctx, nl, cfg, nil, nil)
	return p, err
}

// run executes the pipeline stages under the hardening policy. The
// deterministic front end (layout through stuckat-collapse) always runs,
// served from cfg.FrontEnds when the memo holds the design.
// With cf set, a cache-load stage then restores the simulation results
// from the stored payload in place of atpg and switch-sim, and hit
// reports it (the run report is flagged CacheHit). A payload that fails
// the restore checks fails the run at cache-load, unless fallback is set:
// then fallback receives the reason and the run computes the results
// itself.
func run(ctx context.Context, nl *netlist.Netlist, cfg Config, cf *cacheFile, fallback func(reason string)) (_ *Pipeline, hit bool, _ error) {
	if cfg.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Deadline)
		defer cancel()
	}
	p := &Pipeline{Config: cfg, Netlist: nl}
	tr := cfg.Obs
	reg := tr.Metrics()
	r := &runner{
		ctx: ctx, cfg: cfg, tr: tr, reg: reg, p: p,
		stageSec: reg.HistogramVec("pipeline_stage_seconds", StageSecondsBuckets, "stage"),
	}
	root := tr.StartSpan("pipeline")
	defer func() {
		root.End()
		if tr != nil {
			p.Report = tr.Report(nl.Name)
			p.Report.CacheHit = hit
			for _, d := range p.Degradations {
				p.Report.Events = append(p.Report.Events, d.String())
			}
		}
	}()

	if err := r.frontEnd(nl); err != nil {
		return nil, false, err
	}

	if cf != nil {
		if err := r.stage("cache-load", func(ctx context.Context) error {
			err := cf.restore(p)
			switch {
			case err == nil:
				hit = true
				reg.Counter("pipeline_cache_hits").Inc()
			case fallback != nil:
				fallback(err.Error())
				err = nil
			}
			return err
		}); err != nil {
			return nil, false, err
		}
	}

	if !hit {
		if err := r.stage("atpg", func(ctx context.Context) error {
			ts, err := atpg.BuildTestSetWorkersCtx(ctx, nl, p.StuckAt, cfg.RandomVectors, uint64(cfg.Seed), cfg.BacktrackLimit, cfg.Workers, tr)
			p.TestSet = ts
			if err != nil && ts != nil && r.budgetExhausted(err) {
				det, unt, ab := ts.Counts()
				r.degrade("atpg", fmt.Sprintf(
					"stage budget exhausted: partial test set with %d vectors (%d detected, %d untestable, %d aborted faults)",
					len(ts.Patterns), det, unt, ab))
				return nil
			}
			return err
		}); err != nil {
			return nil, false, err
		}

		if err := r.stage("switch-sim", func(ctx context.Context) error {
			vectors := p.Vectors()
			res, err := switchsim.SimulateFaults(ctx, p.Circuit, p.Faults, vectors, cfg.Workers, switchsim.BridgeG, reg, p.switchMemo())
			p.SwitchRes = res
			if err != nil && res != nil && r.budgetExhausted(err) {
				r.degrade("switch-sim", fmt.Sprintf(
					"stage budget exhausted after %d/%d vectors; %d faults undecided",
					res.VectorsApplied, len(vectors), countTrue(res.Undecided)))
				return nil
			}
			if err != nil {
				return err
			}
			if res.GoodUnsettledAt > 0 {
				r.degrade("switch-sim", fmt.Sprintf(
					"fault-free machine failed to settle at vector %d; %d/%d vectors applied, %d faults undecided",
					res.GoodUnsettledAt, res.VectorsApplied, len(vectors), countTrue(res.Undecided)))
			}
			// Faults dropped as undecided by the oscillation-strike policy on a
			// completed run are a circuit property, not a resource event: they
			// surface through Result.Undecided and the swsim_faults_undecided
			// counter (mirroring ATPG backtrack-limit aborts).
			return nil
		}); err != nil {
			return nil, false, err
		}
	}

	if err := r.stage("curves", func(ctx context.Context) error {
		p.Ks = coverage.SampleKs(len(p.TestSet.Patterns), 8)
		if reg != nil {
			reg.Gauge("pipeline_coverage_stuckat").Set(p.TestSet.Coverage(true))
			reg.Gauge("pipeline_theta_final").Set(p.ThetaCurve(false).Final())
			reg.Gauge("pipeline_gamma_final").Set(p.GammaCurve().Final())
			reg.Counter("pipeline_vectors").Add(int64(len(p.TestSet.Patterns)))
		}
		return nil
	}); err != nil {
		return nil, false, err
	}
	return p, hit, nil
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// StuckAtDetections returns the stuck-at first-detection indices with
// untestable (redundant) faults excluded — the paper neglects redundant
// faults so that T(k) → 1.
func (p *Pipeline) StuckAtDetections() []int {
	var out []int
	for i := range p.StuckAt {
		if p.TestSet.Untestable[i] {
			continue
		}
		out = append(out, p.TestSet.DetectedAt[i])
	}
	return out
}

// TCurve returns the stuck-at coverage curve T(k) over testable faults.
func (p *Pipeline) TCurve() coverage.Curve {
	return coverage.FromDetections(p.StuckAtDetections(), nil, p.Ks)
}

// Weights returns the realistic fault weights aligned with Faults.Faults.
func (p *Pipeline) Weights() []float64 { return weightsOf(p.Faults) }

// ThetaCurve returns the weighted realistic coverage curve Θ(k); with iddq
// true, quiescent-current detections count as well (ablation ABL-2).
func (p *Pipeline) ThetaCurve(iddq bool) coverage.Curve {
	det := p.detections(iddq)
	return coverage.FromDetections(det, p.Weights(), p.Ks)
}

// GammaCurve returns the unweighted realistic coverage curve Γ(k).
func (p *Pipeline) GammaCurve() coverage.Curve {
	return coverage.FromDetections(p.detections(false), nil, p.Ks)
}

func (p *Pipeline) detections(iddq bool) []int {
	det := make([]int, len(p.Faults.Faults))
	copy(det, p.SwitchRes.DetectedAt)
	if iddq {
		for i, d := range p.SwitchRes.IDDQAt {
			if d > 0 && (det[i] == 0 || d < det[i]) {
				det[i] = d
			}
		}
	}
	return det
}

// Summary summarizes the pipeline in a human-readable block. (The
// machine-readable run report lives in the Report field.)
func (p *Pipeline) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "circuit    : %s\n", p.Netlist.ComputeStats())
	fmt.Fprintf(&b, "layout     : %s\n", p.Layout.ComputeStats())
	fmt.Fprintf(&b, "transistor : %s\n", p.Circuit.ComputeStats())
	counts := p.Faults.CountByKind()
	fmt.Fprintf(&b, "faults     : %d bridges, %d input opens, %d driver opens (Y scaled to %.3f)\n",
		counts[fault.KindBridge], counts[fault.KindOpenInput], counts[fault.KindOpenDriver], p.Yield)
	fmt.Fprintf(&b, "test set   : %d vectors (%d random + %d deterministic), stuck-at coverage %.4f (testable)\n",
		len(p.TestSet.Patterns), p.TestSet.RandomCount,
		len(p.TestSet.Patterns)-p.TestSet.RandomCount, p.TestSet.Coverage(true))
	thetaEnd := p.ThetaCurve(false).Final()
	gammaEnd := p.GammaCurve().Final()
	fmt.Fprintf(&b, "realistic  : Θ(final) = %.4f, Γ(final) = %.4f\n", thetaEnd, gammaEnd)
	for _, d := range p.Degradations {
		fmt.Fprintf(&b, "degraded   : %s: %s\n", d.Stage, d.Reason)
	}
	return b.String()
}
