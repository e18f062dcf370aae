package experiments

import (
	"fmt"

	"defectsim/internal/obs"
)

// PipelineError is the failure of one pipeline stage. It names the stage,
// wraps the underlying cause (which may be context.Canceled or
// context.DeadlineExceeded when the run was cancelled or timed out), and
// carries a snapshot of the run's counters at failure time so callers can
// see how far the pipeline got.
type PipelineError struct {
	// Stage is the pipeline stage that failed — one of StageNames, or
	// "cache-load" when DecodeCached's payload fails the restore checks.
	Stage string
	// Err is the underlying cause. Panics inside a stage are converted to
	// errors carrying the panic value and stack.
	Err error
	// Progress is the metrics-counter snapshot at failure time (nil when
	// the run was not traced). Counters such as atpg_faults_detected or
	// swsim_vectors_applied record partial progress.
	Progress []obs.CounterSnap
}

func (e *PipelineError) Error() string {
	return fmt.Sprintf("experiments: stage %s: %v", e.Stage, e.Err)
}

func (e *PipelineError) Unwrap() error { return e.Err }

// Degradation records one graceful-degradation event: a stage that could
// not finish its full workload but produced a usable partial result
// instead of failing the run.
type Degradation struct {
	Stage  string // stage name (one of StageNames, or "cache")
	Reason string // human-readable explanation
}

func (d Degradation) String() string {
	return fmt.Sprintf("degraded %s: %s", d.Stage, d.Reason)
}
