package switchsim

import (
	"context"
	"fmt"
	"sync"

	"defectsim/internal/fault"
	"defectsim/internal/faultinject"
	"defectsim/internal/layout"
	"defectsim/internal/obs"
	"defectsim/internal/par"
	"defectsim/internal/transistor"
)

// Verdict classifies a fault at plan time. Faults with a trivial verdict
// need no simulation:
//
//   - a GND–VDD bridge is a gross power short, detected by the very first
//     vector (verdict detected);
//   - bridges between ideally driven nets only (PI–PI, PI–rail) never
//     change a logic value under the strength model (the pad always wins)
//     and are voltage-undetectable (verdict undetectable).
type Verdict uint8

// Verdicts for faults that need no simulation.
const (
	VerdictSimulate Verdict = iota
	VerdictDetected
	VerdictUndetectable
)

// NewFaultMachine builds the faulty machine for f, or returns a nil machine
// and a trivial verdict.
func NewFaultMachine(c *transistor.Circuit, f fault.Realistic) (*Machine, Verdict) {
	return NewResistiveFaultMachine(c, f, BridgeG)
}

// NewResistiveFaultMachine is NewFaultMachine with an explicit bridge
// conductance: hard shorts use BridgeG, while resistive bridges (the
// Renovell-style model) use conductances comparable to — or below — the
// gate drive strengths, where a bridge may no longer overpower the weaker
// driver and quietly escapes voltage testing.
func NewResistiveFaultMachine(c *transistor.Circuit, f fault.Realistic, bridgeG float64) (*Machine, Verdict) {
	plan, v := planFault(c, f)
	if v != VerdictSimulate {
		return nil, v
	}
	m := NewMachine(c)
	m.install(plan, bridgeG)
	return m, v
}

// planFault builds the immutable switch-level model of f: which devices
// disappear, which bridge edges appear, which nets float or pin, and which
// CCCs host the fault hardware. The plan is circuit-shaped but
// conductance-independent, so one plan serves every resistive sweep point,
// and installing it on a machine is O(1).
func planFault(c *transistor.Circuit, f fault.Realistic) (*faultPlan, Verdict) {
	isPI := func(n int) bool {
		for _, pi := range c.PIs {
			if pi == n {
				return true
			}
		}
		return false
	}
	isRail := func(n int) bool { return n == layout.NetGND || n == layout.NetVDD }
	ideal := func(n int) bool { return isRail(n) || isPI(n) }

	p := &faultPlan{}
	addSeed := func(id int) {
		if id >= 0 && !p.isSeed(id) {
			p.seedCCCs = append(p.seedCCCs, id)
		}
	}

	switch f.Kind {
	case fault.KindBridge:
		a, b := f.NetA, f.NetB
		if ideal(a) && ideal(b) {
			// Power short, pad-to-pad short, or pad-to-rail short: these
			// never change a functional logic value (the ideal driver wins)
			// but production test catches them before functional vectors —
			// rail-rail kills the supply, and pad shorts fail the standard
			// DC continuity/shorts and input-leakage screens.
			return nil, VerdictDetected
		}
		br := [2]int{a, b}
		p.bridges = append(p.bridges, br)
		addExtra := func(key int) {
			for i := range p.extraOf {
				if p.extraOf[i].key == key {
					p.extraOf[i].brs = append(p.extraOf[i].brs, br)
					return
				}
			}
			p.extraOf = append(p.extraOf, extraBridges{key: key, brs: [][2]int{br}})
		}
		for _, n := range br {
			if id := c.CCCOf[n]; id >= 0 {
				addExtra(id)
				addSeed(id)
			} else {
				addExtra(-1 - n)
				p.hasExtraPI = true
			}
		}
		if len(p.seedCCCs) == 0 {
			// Both endpoints outside CCCs but not ideal: nothing to solve.
			return nil, VerdictUndetectable
		}
	case fault.KindOpenInput:
		for di, d := range c.Devices {
			if d.Inst == f.Inst && d.Node == f.Node {
				if p.removedDev == nil {
					p.removedDev = map[int]bool{}
				}
				p.removedDev[di] = true
				addSeed(c.CCCOf[d.Source])
				addSeed(c.CCCOf[d.Drain])
			}
		}
		if len(p.removedDev) == 0 {
			return nil, VerdictUndetectable
		}
	case fault.KindOpenDriver:
		// A severed interconnect trunk leaves every receiver floating;
		// junction leakage pulls the dangling wire to a stuck level (we
		// model stuck-0, the usual n-well process assumption), so trunk
		// opens behave like stuck-at faults on the whole net — the classic
		// reason stuck-at test sets cover most interconnect opens, while
		// gate-level (input-branch) opens need two-pattern sequences.
		net := f.NetA
		for di, d := range c.Devices {
			if d.Source == net || d.Drain == net {
				if p.removedDev == nil {
					p.removedDev = map[int]bool{}
				}
				p.removedDev[di] = true
				addSeed(c.CCCOf[d.Source])
				addSeed(c.CCCOf[d.Drain])
			}
		}
		if isPI(net) {
			p.deadPI = append(p.deadPI, net)
		}
		p.forced = append(p.forced, forcedNet{net: net, v: V0})
		if id := c.CCCOf[net]; id >= 0 {
			addSeed(id)
		}
		if len(c.Readers[net]) == 0 && len(p.removedDev) == 0 {
			// Net neither gates nor channels anything: no logic effect.
			return nil, VerdictUndetectable
		}
	default:
		return nil, VerdictUndetectable
	}
	return p, VerdictSimulate
}

// Result holds the outcome of a realistic-fault simulation campaign.
type Result struct {
	// DetectedAt[i] is the 1-based index of the first vector whose static
	// voltage observation detects fault i (0 = never detected).
	DetectedAt []int
	// IDDQAt[i] is the first vector at which a quiescent-current (IDDQ)
	// measurement would detect fault i (bridges only; 0 otherwise).
	IDDQAt []int
	// Oscillations counts vectors abandoned because a feedback bridge kept
	// the machine from settling.
	Oscillations int
	// Undecided[i] marks faults the campaign gave up on before a
	// detection: persistent oscillation (the machine repeatedly failed to
	// settle) or an early stop (cancellation, budget expiry, unsettled
	// good machine). Their DetectedAt stays 0; conservatively they count
	// as undetected in every coverage figure.
	Undecided []bool
	// VectorsApplied is how many vectors were actually simulated; it is
	// below len(vectors) when the campaign stopped early.
	VectorsApplied int
	// GoodUnsettledAt is the 1-based vector index at which the fault-free
	// machine failed to settle (0 = never). Simulation stops there — the
	// good trace is untrustworthy beyond it — and every still-live fault
	// becomes Undecided.
	GoodUnsettledAt int
}

// DetectedBy returns the detection flags after the first k vectors under
// voltage testing (optionally OR-ing in IDDQ detections).
//
// k is clamped to VectorsApplied: an early-stopped campaign simulated only
// VectorsApplied vectors, so querying coverage at a k beyond the stop
// point reports the flags as of the stop — vectors that were never
// simulated can neither credit nor discredit a fault. (A Result whose
// VectorsApplied is zero is queried unclamped: faults with trivial
// verdicts are detected before any vector is applied, and hand-built
// Results that never ran the vector loop keep their historical meaning.)
func (r *Result) DetectedBy(k int, iddq bool) []bool {
	if r.VectorsApplied > 0 && k > r.VectorsApplied {
		k = r.VectorsApplied
	}
	out := make([]bool, len(r.DetectedAt))
	for i, d := range r.DetectedAt {
		if d > 0 && d <= k {
			out[i] = true
		}
		if iddq && r.IDDQAt[i] > 0 && r.IDDQAt[i] <= k {
			out[i] = true
		}
	}
	return out
}

// oscStrikeLimit is how many unsettled vectors a fault machine tolerates
// before the fault is declared undecided and dropped: a feedback bridge
// that oscillates this persistently will not produce a trustworthy static
// observation, and repeatedly re-relaxing it wastes the whole budget.
const oscStrikeLimit = 3

// SimulateFaultsCtx runs the fault list against the vector sequence on
// circuit c. Detection is static voltage observation at the primary
// outputs: a fault is detected by vector k when some PO is definite (0/1)
// in both the good and faulty machine and the values differ — X outputs
// never detect (the paper's "steady-state voltage measurement" pessimism).
// Detected faults are dropped; the good/faulty state-sharing fast path
// keeps undetected faults cheap while they shadow the good machine.
//
// workers sets the number of goroutines advancing fault machines (≤ 0
// selects runtime.NumCPU() via the shared internal/par policy). Fault
// machines are independent given the good trace, so the result is
// identical for any worker count. bridgeG is the bridge conductance
// (BridgeG, or another value for resistive-bridge studies).
//
// Machine advances, shared-state fast-path hits, oscillation aborts and
// detection indices land in reg. Workers accumulate privately and flush
// once per vector, so the nil-registry path adds no work or allocation to
// the inner loop.
//
// The context is checked once per vector, so a cancelled or expired
// context stops the campaign promptly, returning the partial result
// (detections so far, remaining live faults marked Undecided,
// VectorsApplied recording where it stopped) together with the context's
// error. A fault-free machine that fails to settle no longer aborts the
// run: simulation stops at that vector, the event lands in
// Result.GoodUnsettledAt, and live faults become Undecided. Vectors that
// do not fit c (see checkVectors) return an error before any simulation.
func SimulateFaultsCtx(ctx context.Context, c *transistor.Circuit, list *fault.List, vectors []Vector, workers int, bridgeG float64, reg *obs.Registry) (*Result, error) {
	res, _, err := simulateFaults(ctx, c, list, vectors, workers, bridgeG, reg, nil, false)
	return res, err
}

// SimulateFaultsTrace is SimulateFaultsCtx reading the fault-free
// machine's per-vector values from a precomputed GoodTrace instead of
// stepping its own good machine — the per-vector IDDQ bridge screen and
// the ApplyFromGood shared-state fast path read straight from the cached
// state slices. Results are bitwise identical to the untraced variants for
// any worker count, including partial results under cancellation: the
// trace replays exactly the values a live good machine would produce,
// and a recorded unsettled cutoff (GoodTrace.UnsettledAt) stops the
// campaign at the same vector an untraced run would stop at.
//
// The trace must have been captured on the same circuit over a vector
// sequence that agrees with vectors on their common prefix (a skew
// returns a descriptive error before any simulation). Campaigns longer
// than the trace continue on a live machine seeded from the last recorded
// state. The trace is read shared and never written, so any number of
// concurrent campaigns may use one trace. Each traced campaign counts one
// swsim_goodtrace_hits event.
func SimulateFaultsTrace(ctx context.Context, c *transistor.Circuit, list *fault.List, vectors []Vector, workers int, bridgeG float64, reg *obs.Registry, trace *GoodTrace) (*Result, error) {
	if err := trace.validateFor(c, vectors); err != nil {
		return nil, err
	}
	reg.Counter("swsim_goodtrace_hits").Inc()
	res, _, err := simulateFaults(ctx, c, list, vectors, workers, bridgeG, reg, trace, false)
	return res, err
}

// SimulateFaultsCapture is SimulateFaultsCtx additionally recording the
// fault-free machine's trajectory as a GoodTrace while the campaign runs —
// the good machine is stepped anyway, so capture costs only the state
// copies. The returned trace is complete (reusable via
// SimulateFaultsTrace) unless the campaign was cancelled mid-run; check
// GoodTrace.Complete before sharing it. A capture counts one
// swsim_goodtrace_misses event — the campaign needed a good trace and had
// none — and records the trace footprint in swsim_goodtrace_bytes.
func SimulateFaultsCapture(ctx context.Context, c *transistor.Circuit, list *fault.List, vectors []Vector, workers int, bridgeG float64, reg *obs.Registry) (*Result, *GoodTrace, error) {
	return simulateFaults(ctx, c, list, vectors, workers, bridgeG, reg, nil, true)
}

// live is one not-yet-resolved fault in the campaign loop. While the fault
// has never diverged from the good machine (m == nil, clean == true) it
// owns no state at all: the worker advances it on its pooled machine and
// releases the machine immediately. The first divergence (or failed
// settle) promotes the pooled machine into a dedicated one, preserving the
// fault's private node state across vectors.
type live struct {
	idx     int
	plan    *faultPlan
	m       *Machine // nil while the fault still shadows the good machine
	clean   bool
	strikes int // unsettled vectors so far; oscStrikeLimit → undecided
}

// simulateFaults is the shared campaign loop behind every SimulateFaults*
// variant. With trace set, good-machine values come from the recorded
// states (live stepping resumes past the trace's end); with capture set
// (mutually exclusive with trace), the stepped states are recorded into
// the returned GoodTrace.
func simulateFaults(ctx context.Context, c *transistor.Circuit, list *fault.List, vectors []Vector, workers int, bridgeG float64, reg *obs.Registry, trace *GoodTrace, capture bool) (*Result, *GoodTrace, error) {
	if err := checkVectors(c, vectors); err != nil {
		return nil, nil, err
	}
	res := &Result{
		DetectedAt: make([]int, len(list.Faults)),
		IDDQAt:     make([]int, len(list.Faults)),
		Undecided:  make([]bool, len(list.Faults)),
	}
	var (
		mSteps    = reg.Counter("swsim_machine_steps")
		mFastPath = reg.Counter("swsim_fastpath_steps")
		mDetected = reg.Counter("swsim_faults_detected")
		mTrivial  = reg.Counter("swsim_trivial_verdicts")
		mVectors  = reg.Counter("swsim_vectors_applied")
		mSolves   = reg.CounterVec("swsim_ccc_solves", "path")
		mTable    = mSolves.With("table")
		mRelax    = mSolves.With("relax")
		hDetectAt *obs.Histogram
	)
	if reg != nil {
		hDetectAt = reg.Histogram("swsim_vectors_to_detect", obs.ExpBuckets(1, 2, 10))
	}
	var lives []*live
	for i, f := range list.Faults {
		plan, v := planFault(c, f)
		switch v {
		case VerdictDetected:
			res.DetectedAt[i] = 1
			mTrivial.Inc()
			if f.Kind == fault.KindBridge {
				res.IDDQAt[i] = 1
			}
		case VerdictSimulate:
			// A never-advanced fault's state (all X) matches the good
			// machine's pre-state, so the cheap shared-state path applies
			// from the very first vector — no machine needed until the
			// fault first diverges.
			lives = append(lives, &live{idx: i, plan: plan, clean: true})
		}
	}

	workers = par.Workers(workers)
	if reg != nil {
		reg.Gauge("swsim_workers").Set(float64(workers))
	}

	// One CCC memo serves the whole campaign: the good machine and every
	// pooled or promoted fault machine replay plan-free CCC solves from it.
	memo := newCCCMemo(c)
	newMachine := func() *Machine {
		m := NewMachine(c)
		m.memo = memo
		return m
	}

	// Fault-free reference: a live machine when no trace is given, the
	// recorded states otherwise (a live machine is still created past the
	// trace's end, seeded from its last state).
	var (
		good        *Machine
		goodPrevBuf []Val
		capTrace    *GoodTrace
	)
	startLive := func() {
		good = newMachine()
		if trace != nil {
			copy(good.val, trace.States[len(trace.States)-1])
		}
		goodPrevBuf = make([]Val, len(good.val))
	}
	if trace == nil {
		startLive()
	}
	if capture {
		capTrace = &GoodTrace{Vectors: vectors, States: make([][]Val, 1, len(vectors)+1)}
		capTrace.States[0] = append([]Val(nil), good.val...)
		reg.Counter("swsim_goodtrace_misses").Inc()
	}
	// One pooled machine per worker, created lazily and reinstalled per
	// clean fault; promoted (handed over) to a live the moment that fault
	// diverges. Steady-state machine count = workers + dirty faults,
	// instead of one machine per fault.
	pool := make([]*Machine, workers)
	oscillations := make([]int64, workers)
	// finalize folds the per-worker oscillation counts and flushes the
	// campaign-level metrics once the vector loop is done (normally or on
	// an early stop after k vectors).
	finalize := func(k int) {
		res.VectorsApplied = k
		for _, o := range oscillations {
			res.Oscillations += int(o)
		}
		if reg != nil {
			undecided := int64(0)
			for _, u := range res.Undecided {
				if u {
					undecided++
				}
			}
			reg.Counter("swsim_oscillations").Add(int64(res.Oscillations))
			reg.Counter("swsim_faults_undecided").Add(undecided)
		}
	}
	// stop ends the campaign early after k applied vectors: faults still
	// alive have seen only part of the evidence, so they are undecided
	// rather than undetected.
	stop := func(k int) *Result {
		for _, lv := range lives {
			res.Undecided[lv.idx] = true
		}
		lives = nil
		finalize(k)
		return res
	}
	drop := make([]bool, len(lives))
	for k, vec := range vectors {
		if err := faultinject.Fire(ctx, faultinject.HookSwitchSimVector); err != nil {
			return stop(k), capTrace, err
		}
		if err := ctx.Err(); err != nil {
			return stop(k), capTrace, err
		}
		var goodVal, goodPrev []Val
		switch {
		case trace != nil && k+1 < len(trace.States):
			goodPrev, goodVal = trace.States[k], trace.States[k+1]
		case trace != nil && trace.UnsettledAt == k+1:
			// The trace records that the fault-free machine failed to settle
			// here; stop exactly where an untraced campaign would.
			res.GoodUnsettledAt = k + 1
			reg.Counter("swsim_good_unsettled").Inc()
			return stop(k), capTrace, nil
		default:
			if good == nil {
				// First vector past the trace's end: continue live from the
				// last recorded state (a settled fixpoint, so incremental
				// event propagation from the changed PIs stays exact).
				startLive()
			}
			copy(goodPrevBuf, good.val)
			if !good.Apply(vec) {
				// The fault-free machine's trace is untrustworthy from here
				// on; degrade instead of failing the whole campaign.
				res.GoodUnsettledAt = k + 1
				reg.Counter("swsim_good_unsettled").Inc()
				if capture {
					capTrace.UnsettledAt = k + 1
					reg.Gauge("swsim_goodtrace_bytes").Set(float64(capTrace.Bytes()))
				}
				return stop(k), capTrace, nil
			}
			goodPrev, goodVal = goodPrevBuf, good.val
		}
		if capture {
			capTrace.States = append(capTrace.States, append([]Val(nil), goodVal...))
		}

		// IDDQ screening of bridges (needs only good values): quiescent
		// current flows when the bridged nodes are driven to opposite
		// definite values.
		for i, f := range list.Faults {
			if f.Kind != fault.KindBridge || res.IDDQAt[i] != 0 {
				continue
			}
			va, vb := goodVal[f.NetA], goodVal[f.NetB]
			if va != VX && vb != VX && va != vb {
				res.IDDQAt[i] = k + 1
			}
		}

		// Advance every live fault; each fault touches only its own state
		// (or the worker's pooled machine), so the work shards freely.
		mVectors.Inc()
		drop = drop[:len(lives)]
		clear(drop)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var steps, fast, tableSolves, relaxSolves int64
				pm := pool[w]
				// pmGood tracks whether pm.val equals this vector's goodVal
				// elementwise: after a pooled fault stays clean it does, and
				// the next clean fault's applyFromGood can skip the full-state
				// copy — the pooled fast path touches only fault-local nets.
				pmGood := false
				for li := w; li < len(lives); li += workers {
					lv := lives[li]
					steps++
					mm := lv.m
					usingPool := false
					if mm == nil {
						// Clean, never-diverged fault: borrow the worker's
						// pooled machine. applyFromGood overwrites (or asserts)
						// the full state, so the outcome is identical to a
						// dedicated machine's.
						if pm == nil {
							pm = newMachine()
						}
						pm.install(lv.plan, bridgeG)
						mm = pm
						usingPool = true
					}
					var ok bool
					wasClean := lv.clean
					if wasClean {
						fast++
						ok = mm.applyFromGood(goodVal, goodPrev, usingPool && pmGood)
					} else {
						ok = mm.Apply(vec)
					}
					tableSolves += mm.tableSolves
					relaxSolves += mm.relaxSolves
					mm.tableSolves, mm.relaxSolves = 0, 0
					if !ok {
						oscillations[w]++
						lv.strikes++
						lv.clean = false
						if usingPool {
							// The partially-relaxed state is the fault's
							// history now; the pooled machine becomes its
							// dedicated one.
							lv.m, pm, pmGood = pm, nil, false
						}
						continue
					}
					detected := false
					for _, po := range c.POs {
						gv, fv := goodVal[po], mm.val[po]
						if gv != VX && fv != VX && gv != fv {
							detected = true
							break
						}
					}
					if detected {
						res.DetectedAt[lv.idx] = k + 1
						drop[li] = true
						if usingPool {
							// The dropped fault's divergent state stays in the
							// pool; the next borrower must copy the good state.
							pmGood = false
						}
						continue
					}
					if wasClean {
						// The apply started from the good state, so only the
						// nets it touched can differ — no full-circuit scan.
						lv.clean = mm.cleanAgainst(goodVal)
					} else {
						lv.clean = equalVals(mm.val, goodVal)
					}
					if usingPool {
						if lv.clean {
							pmGood = true
						} else {
							// First divergence: promote the pooled machine so
							// the fault's private state persists across vectors.
							lv.m, pm, pmGood = pm, nil, false
						}
					}
				}
				pool[w] = pm
				mSteps.Add(steps)
				mFastPath.Add(fast)
				mTable.Add(tableSolves)
				mRelax.Add(relaxSolves)
			}(w)
		}
		wg.Wait()
		keep := lives[:0]
		for li, lv := range lives {
			switch {
			case drop[li]:
				mDetected.Inc()
				hDetectAt.Observe(float64(k + 1))
			case lv.strikes >= oscStrikeLimit:
				// Persistently oscillating machine: its static observations
				// will never be trustworthy — undecided, not undetected.
				res.Undecided[lv.idx] = true
			default:
				keep = append(keep, lv)
			}
		}
		lives = keep
	}
	finalize(len(vectors))
	if capture {
		reg.Gauge("swsim_goodtrace_bytes").Set(float64(capTrace.Bytes()))
	}
	return res, capTrace, nil
}

// checkVectors rejects a vector sequence the simulator cannot apply to c:
// a vector whose width is not c's PI count, or a value other than 0/1/X.
// Every exported entry point checks its vectors before any simulation, so
// a malformed input is an error rather than a panic inside a worker.
func checkVectors(c *transistor.Circuit, vectors []Vector) error {
	for k, vec := range vectors {
		if len(vec) != len(c.PIs) {
			return fmt.Errorf("switchsim: vector %d has %d bits, circuit %s has %d PIs", k, len(vec), c.Name, len(c.PIs))
		}
		for j, v := range vec {
			if v > VX {
				return fmt.Errorf("switchsim: vector %d holds the value %d at input %d", k, v, j)
			}
		}
	}
	return nil
}

// equalVals reports whether a and b hold identical values. Slices of
// different lengths never compare equal: a good-trace/machine size skew
// then merely forfeits the shared-state fast path (the machine keeps
// advancing through the exact Apply path) instead of panicking mid-
// campaign — and the skew itself is rejected up front by
// GoodTrace.validateFor and the ApplyFromGood width check.
func equalVals(a, b []Val) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
