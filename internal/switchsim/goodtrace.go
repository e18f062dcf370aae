package switchsim

import (
	"context"
	"errors"
	"fmt"

	"defectsim/internal/layout"
	"defectsim/internal/obs"
	"defectsim/internal/transistor"
)

// GoodTrace is the fault-free machine's recorded trajectory over a vector
// sequence: the settled node values before and after every vector, plus
// the unsettled cutoff if the machine ever failed to settle. The good
// machine is campaign-invariant — every realistic-fault coverage figure is
// computed against the same fault-free reference — so one captured trace
// can be shared read-only across any number of fault campaigns on the same
// circuit and vectors (SimulateFaults), eliminating the redundant
// good-machine pass each campaign would otherwise run.
//
// A trace is immutable after capture; concurrent campaigns may read it
// freely. It is only valid for the circuit it was captured on and for
// vector sequences that extend its own (validated up front — a skew is a
// loud error, never a mid-campaign panic).
type GoodTrace struct {
	// Vectors is the input sequence the trace was captured over.
	Vectors []Vector
	// States[k] is the machine state before vector k (States[0] is the
	// reset state: all X except the rails); States[k+1] is the settled
	// state after vector k. len(States) stops short of len(Vectors)+1
	// when capture ended early (cancellation or an unsettled vector).
	States [][]Val
	// UnsettledAt is the 1-based vector index at which the fault-free
	// machine failed to settle (0 = never). Like Result.GoodUnsettledAt,
	// the trace is untrustworthy from that vector on: replaying campaigns
	// stop there exactly as an untraced campaign would.
	UnsettledAt int
}

// Applied returns how many vectors the trace holds settled states for.
func (tr *GoodTrace) Applied() int {
	if tr == nil || len(tr.States) == 0 {
		return 0
	}
	return len(tr.States) - 1
}

// Complete reports whether capture ran to its natural end: either every
// vector settled, or the fault-free machine failed to settle and the
// cutoff is recorded (which an untraced campaign reproduces bit-for-bit).
// A trace cut short by cancellation is incomplete and not reusable.
func (tr *GoodTrace) Complete() bool {
	if tr == nil || len(tr.States) == 0 {
		return false
	}
	if tr.UnsettledAt > 0 {
		return len(tr.States) == tr.UnsettledAt
	}
	return len(tr.States) == len(tr.Vectors)+1
}

// Bytes returns the memory footprint of the recorded states (one byte per
// net per state) — the value of the swsim_goodtrace_bytes gauge.
func (tr *GoodTrace) Bytes() int {
	if tr == nil {
		return 0
	}
	n := 0
	for _, st := range tr.States {
		n += len(st)
	}
	return n
}

// validateFor checks that the trace can stand in for the good machine of
// a campaign over vectors on circuit c: the trace is complete, its states
// are sized for c and hold only 0/1/X with the rails at their levels (the
// campaign's CCC memo is keyed by those values and treats the rails as
// constant), and its vector sequence agrees with the campaign's on their
// common prefix. Campaigns longer than the trace are allowed — the
// campaign extends it from the last recorded state (the top-up studies
// append extra vectors to the shared set).
func (tr *GoodTrace) validateFor(c *transistor.Circuit, vectors []Vector) error {
	if tr == nil || len(tr.States) == 0 {
		return errors.New("switchsim: good trace is nil or empty")
	}
	if !tr.Complete() {
		return fmt.Errorf("switchsim: good trace is incomplete: %d/%d vectors captured", tr.Applied(), len(tr.Vectors))
	}
	for k, st := range tr.States {
		if len(st) != c.NumNets {
			return fmt.Errorf("switchsim: good trace state %d spans %d nets, circuit %s has %d (trace captured on a different circuit?)", k, len(st), c.Name, c.NumNets)
		}
		for n, v := range st {
			if v > VX {
				return fmt.Errorf("switchsim: good trace state %d holds the value %d on net %d", k, v, n)
			}
		}
		if st[layout.NetGND] != V0 || st[layout.NetVDD] != V1 {
			return fmt.Errorf("switchsim: good trace state %d has a rail off its level (GND=%v, VDD=%v)", k, st[layout.NetGND], st[layout.NetVDD])
		}
	}
	n := min(len(tr.Vectors), len(vectors))
	for k := 0; k < n; k++ {
		if len(vectors[k]) != len(tr.Vectors[k]) {
			return fmt.Errorf("switchsim: campaign vector %d has %d bits, good trace was captured with %d", k, len(vectors[k]), len(tr.Vectors[k]))
		}
		for j := range vectors[k] {
			if vectors[k][j] != tr.Vectors[k][j] {
				return fmt.Errorf("switchsim: campaign vectors diverge from the good trace at vector %d", k)
			}
		}
	}
	return nil
}

// CaptureGoodTraceCtx records the fault-free machine's trajectory over the
// vector sequence, polling ctx once per vector. Vectors that do not fit
// the circuit (see checkVectors) return an error before any simulation. A
// cancelled capture returns the partial (incomplete, not reusable) trace
// together with the context's error. An unsettled fault-free vector is not
// an error: the cutoff lands in GoodTrace.UnsettledAt and the trace stays
// complete — campaigns replaying it stop there, exactly like untraced
// ones. The capture counts as a swsim_goodtrace_misses event and the
// trace's footprint lands in the swsim_goodtrace_bytes gauge.
func CaptureGoodTraceCtx(ctx context.Context, c *transistor.Circuit, vectors []Vector, reg *obs.Registry) (*GoodTrace, error) {
	if err := checkVectors(c, vectors); err != nil {
		return nil, err
	}
	reg.Counter("swsim_goodtrace_misses").Inc()
	tr, err := extendTrace(ctx, c, nil, nil, vectors)
	if err != nil {
		return tr, err
	}
	reg.Gauge("swsim_goodtrace_bytes").Set(float64(tr.Bytes()))
	return tr, nil
}

// extendTrace returns a trace covering vectors: base itself when it
// already does or records an unsettled cutoff, otherwise a new trace
// holding base's states (nil base: the reset state) followed by those of a
// fault-free machine stepped from base's last state over the remaining
// vectors. base is never written. The machine replays plan-free solves
// from memo (nil: it relaxes every solve). ctx is polled once per vector;
// a cancelled extension returns the partial trace with the context's
// error.
func extendTrace(ctx context.Context, c *transistor.Circuit, memo *cccMemo, base *GoodTrace, vectors []Vector) (*GoodTrace, error) {
	if base != nil && (base.UnsettledAt > 0 || base.Applied() >= len(vectors)) {
		return base, nil
	}
	good := NewMachine(c)
	good.memo = memo
	tr := &GoodTrace{Vectors: vectors, States: make([][]Val, 0, len(vectors)+1)}
	if base == nil {
		tr.States = append(tr.States, append([]Val(nil), good.val...))
	} else {
		tr.States = append(tr.States, base.States...)
		copy(good.val, base.States[len(base.States)-1])
	}
	for k := tr.Applied(); k < len(vectors); k++ {
		if err := ctx.Err(); err != nil {
			return tr, err
		}
		if !good.Apply(vectors[k]) {
			tr.UnsettledAt = k + 1
			break
		}
		tr.States = append(tr.States, append([]Val(nil), good.val...))
	}
	return tr, nil
}
