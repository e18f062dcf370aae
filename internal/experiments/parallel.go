package experiments

// Bounded experiment-level parallelism: the pipeline stages are already
// fault-parallel inside gatesim/switchsim; this file adds the layer above
// — running *independent* experiments (figures, sweeps, Monte Carlo
// campaigns, whole suite circuits) concurrently on a bounded worker pool
// while keeping outputs in deterministic presentation order. Everything
// here runs under the same context/budget/degradation machinery as the
// serial drivers: workers claim items in order, cancellation stops new
// items promptly, and the lowest-index failure wins.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"defectsim/internal/par"
)

// forEach runs fn(i) for every i in [0, n) on a worker pool of the
// normalized size (workers <= 0 selects runtime.NumCPU(), never more
// goroutines than items). Items are claimed in index order. Once an item
// fails or the context ends, no further items start (in-flight ones
// finish); the recorded failure with the lowest index is returned, so a
// concurrent run fails on the same item a serial run would reach first.
func forEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	w := par.WorkersFor(workers, n)
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				if err := fn(i); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Study is one independent post-pipeline experiment: a label and a run
// function producing the rendered artifact. Studies read the shared
// Pipeline without mutating it, so any set of them can run concurrently.
type Study struct {
	Name string
	Run  func(ctx context.Context, p *Pipeline) (string, error)
}

// StandardStudies returns the independent figure/table/validation studies
// that share one pipeline run — the body of `dlproj all` — in
// presentation order. Seeded campaigns (lot, inject) draw their seed from
// the pipeline's config, so the suite is reproducible as a unit.
func StandardStudies() []Study {
	pure := func(render func(p *Pipeline) string) func(context.Context, *Pipeline) (string, error) {
		return func(_ context.Context, p *Pipeline) (string, error) { return render(p), nil }
	}
	return []Study{
		{"fig3", pure(func(p *Pipeline) string { return Figure3(p).Render() })},
		{"fig4", pure(func(p *Pipeline) string { return Figure4(p).Render() })},
		{"fig5", pure(func(p *Pipeline) string { return Figure5(p).Render() })},
		{"fig6", pure(func(p *Pipeline) string { return Figure6(p).Render() })},
		{"agrawal", pure(func(p *Pipeline) string { return RunAgrawalComparison(p).Render() })},
		{"iddq", pure(func(p *Pipeline) string { return RunIDDQAblation(p).Render() })},
		{"delay", func(_ context.Context, p *Pipeline) (string, error) {
			a, err := RunDelayAblation(p)
			if err != nil {
				return "", err
			}
			return a.Render(), nil
		}},
		{"resist", func(ctx context.Context, p *Pipeline) (string, error) {
			st, err := RunResistiveBridgeStudy(ctx, p, nil)
			if err != nil {
				return "", err
			}
			return st.Render(), nil
		}},
		{"lot", pure(func(p *Pipeline) string {
			return RunLotValidation(p, 200000, p.Config.Seed).Render()
		})},
		{"inject", pure(func(p *Pipeline) string {
			return RunInjectionValidation(p, 50000, p.Config.Seed).Render()
		})},
		{"diag", func(ctx context.Context, p *Pipeline) (string, error) {
			st, err := RunDiagnosisStudy(ctx, p, 200, 5)
			if err != nil {
				return "", err
			}
			return st.Render(), nil
		}},
		{"kinds", pure(FaultKindBreakdown)},
	}
}

// RunStudies executes the studies on a bounded worker pool (workers <= 0
// selects runtime.NumCPU()) and returns the rendered artifacts in input
// order — the paper's evaluation as a concurrent experiment suite.
func RunStudies(ctx context.Context, p *Pipeline, studies []Study, workers int) ([]string, error) {
	out := make([]string, len(studies))
	err := forEach(ctx, workers, len(studies), func(i int) error {
		s, err := studies[i].Run(ctx, p)
		if err != nil {
			return fmt.Errorf("study %s: %w", studies[i].Name, err)
		}
		out[i] = s
		return nil
	})
	return out, err
}
