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
	m.install(plan, bridgeG, nil)
	return m, v
}

// planFault builds the immutable switch-level model of f: which devices
// disappear, which bridge edges appear, which nets float or pin, and which
// CCCs host the fault hardware. The plan is circuit-shaped but
// conductance-independent, so one plan serves every resistive sweep point,
// and installing it on a machine is O(1).
func planFault(c *transistor.Circuit, f fault.Realistic) (*faultPlan, Verdict) {
	var pb planBuilder
	v := pb.build(c, f)
	if v != VerdictSimulate {
		return nil, v
	}
	var n planSize
	n.add(&pb)
	slab := n.slab()
	p := new(faultPlan)
	pb.place(p, &slab)
	return p, v
}

// planFaults plans every fault of a campaign: verdicts[i] is fault i's
// verdict and plans[i] its plan when it simulates. The plans and every
// slice they hold are cut from one slab, sized by a first pass over the
// faults, so a campaign's plans cost a handful of allocations.
func planFaults(c *transistor.Circuit, faults []fault.Realistic) ([]faultPlan, []Verdict) {
	var pb planBuilder
	var n planSize
	for _, f := range faults {
		if pb.build(c, f) == VerdictSimulate {
			n.add(&pb)
		}
	}
	slab := n.slab()
	plans := make([]faultPlan, len(faults))
	verdicts := make([]Verdict, len(faults))
	for i, f := range faults {
		if verdicts[i] = pb.build(c, f); verdicts[i] == VerdictSimulate {
			pb.place(&plans[i], &slab)
		}
	}
	return plans, verdicts
}

// planBuilder plans one fault at a time into a reused scratch plan.
type planBuilder struct{ p faultPlan }

// build plans f into the builder's scratch and returns its verdict.
func (pb *planBuilder) build(c *transistor.Circuit, f fault.Realistic) Verdict {
	isPI := func(n int) bool {
		for _, pi := range c.PIs {
			if pi == n {
				return true
			}
		}
		return false
	}
	ideal := func(n int) bool { return isRail(n) || isPI(n) }

	p := &pb.p
	*p = faultPlan{removedDev: p.removedDev[:0], deadPI: p.deadPI[:0], forced: p.forced[:0],
		extraOf: p.extraOf[:0], end: -1, seedCCCs: p.seedCCCs[:0]}
	addSeed := func(id int) {
		if id >= 0 && p.seedIndex(id) < 0 {
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
			return VerdictDetected
		}
		br := [2]int{a, b}
		addExtra := func(key int) {
			for i := range p.extraOf {
				if p.extraOf[i].key == key {
					p.extraOf[i].brs = append(p.extraOf[i].brs, br)
					return
				}
			}
			// Reuse the scratch entry's bridge list from an earlier plan.
			i := len(p.extraOf)
			if i < cap(p.extraOf) {
				p.extraOf = p.extraOf[:i+1]
			} else {
				p.extraOf = append(p.extraOf, extraBridges{})
			}
			p.extraOf[i].key = key
			p.extraOf[i].brs = append(p.extraOf[i].brs[:0], br)
		}
		for _, n := range br {
			if id := c.CCCOf[n]; id >= 0 {
				addExtra(id)
				addSeed(id)
			} else {
				addExtra(-1 - n)
				p.hasExtraPI = true
				if !isRail(n) {
					p.end = int32(n)
				}
			}
		}
		if len(p.seedCCCs) == 0 {
			// Both endpoints outside CCCs but not ideal: nothing to solve.
			return VerdictUndetectable
		}
	case fault.KindOpenInput:
		for di, d := range c.Devices {
			if d.Inst == f.Inst && d.Node == f.Node {
				p.removedDev = append(p.removedDev, int32(di))
				addSeed(c.CCCOf[d.Source])
				addSeed(c.CCCOf[d.Drain])
			}
		}
		if len(p.removedDev) == 0 {
			return VerdictUndetectable
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
				p.removedDev = append(p.removedDev, int32(di))
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
			return VerdictUndetectable
		}
	default:
		return VerdictUndetectable
	}
	return VerdictSimulate
}

// planSize counts, slab pool by slab pool, what a set of plans holds.
type planSize struct{ ints, devs, forced, extra, brs int }

// add counts the builder's scratch plan.
func (n *planSize) add(pb *planBuilder) {
	p := &pb.p
	n.ints += len(p.deadPI) + len(p.seedCCCs)
	n.devs += len(p.removedDev)
	n.forced += len(p.forced)
	n.extra += len(p.extraOf)
	for _, e := range p.extraOf {
		n.brs += len(e.brs)
	}
}

// planSlab is the backing store of a set of plans: every slice a plan
// holds is cut from one of these pools, each allocated once at its final
// size.
type planSlab struct {
	ints   []int
	devs   []int32
	forced []forcedNet
	extra  []extraBridges
	brs    [][2]int
}

func (n *planSize) slab() planSlab {
	return planSlab{
		ints:   make([]int, n.ints),
		devs:   make([]int32, n.devs),
		forced: make([]forcedNet, n.forced),
		extra:  make([]extraBridges, n.extra),
		brs:    make([][2]int, n.brs),
	}
}

// cut returns the next k elements of *pool as a slice of capacity k (nil
// for k == 0, as an unbuilt plan field is).
func cut[T any](pool *[]T, k int) []T {
	if k == 0 {
		return nil
	}
	out := (*pool)[:k:k]
	*pool = (*pool)[k:]
	return out
}

// cutCopy returns a copy of src cut from *pool.
func cutCopy[T any](pool *[]T, src []T) []T {
	out := cut(pool, len(src))
	copy(out, src)
	return out
}

// place copies the builder's scratch plan into dst, every slice cut from
// slab.
func (pb *planBuilder) place(dst *faultPlan, slab *planSlab) {
	p := &pb.p
	*dst = faultPlan{
		removedDev: cutCopy(&slab.devs, p.removedDev),
		deadPI:     cutCopy(&slab.ints, p.deadPI),
		forced:     cutCopy(&slab.forced, p.forced),
		extraOf:    cut(&slab.extra, len(p.extraOf)),
		hasExtraPI: p.hasExtraPI,
		end:        p.end,
		seedCCCs:   cutCopy(&slab.ints, p.seedCCCs),
	}
	for i, e := range p.extraOf {
		dst.extraOf[i] = extraBridges{key: e.key, brs: cutCopy(&slab.brs, e.brs)}
	}
}

func isRail(n int) bool { return n == layout.NetGND || n == layout.NetVDD }

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
	// fault-free reference is untrustworthy from it on — and every
	// still-live fault becomes Undecided.
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

// SimulateFaults runs the fault list against the vector sequence on
// circuit c. Detection is static voltage observation at the primary
// outputs: a fault is detected by vector k when some PO is definite (0/1)
// in both the good and faulty machine and the values differ — X outputs
// never detect (the paper's "steady-state voltage measurement"
// pessimism). Detected faults are dropped; the good/faulty state-sharing
// fast path keeps undetected faults cheap while they shadow the good
// machine.
//
// The campaign steps one fault-free machine of its own, a vector ahead
// of the fault machines: every fault is scored against that single
// reference, and its logged settle of each vector is what diverged faults
// walk.
//
// workers sets the number of goroutines advancing fault machines (≤ 0
// selects runtime.NumCPU() via the shared internal/par policy). Fault
// machines are independent given the good machine, so the result is
// identical for any worker count. bridgeG is the bridge conductance
// (BridgeG, or another value for resistive-bridge studies).
//
// shared, when non-nil, is the memo the campaign shares with others (see
// Memo): at BridgeG the campaign starts from the class table it
// published and publishes its own entries when it ends, and a design
// memo of c and list supplies the fault plans, seed classes and CCC
// tables. Nil gives the campaign a private memo. Results are identical
// either way.
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
// error. A fault-free machine that fails to settle does not abort the
// run: simulation stops at that vector, the event lands in
// Result.GoodUnsettledAt, and live faults become Undecided. Vectors that
// do not fit c (see checkVectors) return an error before any simulation.
func SimulateFaults(ctx context.Context, c *transistor.Circuit, list *fault.List, vectors []Vector, workers int, bridgeG float64, reg *obs.Registry, shared *Memo) (*Result, error) {
	return simulateFaults(ctx, c, list, vectors, workers, bridgeG, reg, shared, minWalkPops)
}

// minWalkPops is the fewest pops the good machine's settle of a vector
// must make for the vector's diverged steps to walk its event log rather
// than take the plain Apply. A walk pays per step for the fault's
// schedule, a scan and a copy of the circuit's values and its bookkeeping,
// however short the log, and earns that back only by the pops it copies
// instead of solving.
// On single-worker campaigns of the seed-1994 pipelines (median CPU time
// of 41 runs, 5 on c432-class), walking every usable log cost c17 17%,
// mux 10% and cmp 6% more than the plain path, while a cutoff of 64 pops
// kept the walk's gains on adder (−24%) and c432-class (−54%) and the
// plain path's time on the rest.
const minWalkPops = 64

// simulateFaults is SimulateFaults whose diverged steps walk the event
// log of a vector whose good settle made at least walkFrom pops, and take
// the plain Apply on the others: 0 walks every usable log, math.MaxInt
// none (the reference the walk is pinned against).
func simulateFaults(ctx context.Context, c *transistor.Circuit, list *fault.List, vectors []Vector, workers int, bridgeG float64, reg *obs.Registry, shared *Memo, walkFrom int) (*Result, error) {
	if err := checkVectors(c, vectors); err != nil {
		return nil, err
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
		mSeed     = mSolves.With("seed")
		mClass    = mSolves.With("class")
		mRelax    = mSolves.With("relax")
		mReplay   = mSolves.With("replay")
		mForward  = reg.Counter("swsim_settle_fastforwards_total")
		mHandOver = reg.Counter("swsim_walk_handovers_total")
		hDetectAt *obs.Histogram
	)
	if reg != nil {
		hDetectAt = reg.Histogram("swsim_vectors_to_detect", obs.ExpBuckets(1, 2, 10))
	}
	// One CCC memo serves the whole campaign: the good machine and every
	// worker machine replay plan-free CCC solves from it. One class table
	// serves every fault's seed solves, keyed by the classes interned once
	// per seed, in front of the entries the memo published before the
	// campaign started.
	su := shared.setup(c, list, bridgeG)
	memo, plans, verdicts, seedClass := su.ccc, su.plans, su.verdicts, su.class
	classes := &seedTable{base: su.base}
	simulated := 0
	for _, v := range verdicts {
		if v == VerdictSimulate {
			simulated++
		}
	}
	lives := make([]*live, 0, simulated)
	slab := make([]live, 0, simulated)
	for i, f := range list.Faults {
		switch verdicts[i] {
		case VerdictDetected:
			res.DetectedAt[i] = 1
			mTrivial.Inc()
			if f.Kind == fault.KindBridge {
				res.IDDQAt[i] = 1
			}
		case VerdictSimulate:
			// A never-advanced fault's state (all X) matches the good
			// machine's pre-state, so the cheap shared-state path applies
			// from the very first vector — no values of its own until the
			// fault first diverges.
			slab = append(slab, live{idx: i, plan: &plans[i]})
			lives = append(lives, &slab[len(slab)-1])
		}
	}
	for _, lv := range lives {
		n := len(lv.plan.seedCCCs)
		lv.seeds.class, seedClass = seedClass[:n:n], seedClass[n:]
	}

	workers = par.Workers(workers)
	if reg != nil {
		reg.Gauge("swsim_workers").Set(float64(workers))
	}
	pool := make([]worker, workers)
	for wi := range pool {
		m := NewMachine(c)
		m.memo = memo
		m.classes = classes
		pool[wi] = worker{m: m, home: m.val}
	}
	// finalize folds the per-worker oscillation counts and flushes the
	// campaign-level metrics once the vector loop is done (normally or on
	// an early stop after k vectors).
	finalize := func(k int) {
		if su.share != nil {
			su.share.publish(classes)
		}
		res.VectorsApplied = k
		for wi := range pool {
			res.Oscillations += int(pool[wi].oscillations)
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

	// The fault-free machine steps each vector before the workers do:
	// goodPrev keeps its state before the vector, and its settle, logged
	// for the diverged faults to walk, leaves it in the state after.
	good := NewMachine(c)
	good.memo = memo
	goodPrev := make([]Val, c.NumNets)
	var lg eventLog
	drop := make([]bool, len(lives))
	for k, vec := range vectors {
		if err := faultinject.Fire(ctx, faultinject.HookSwitchSimVector); err != nil {
			return stop(k), err
		}
		if err := ctx.Err(); err != nil {
			return stop(k), err
		}
		copy(goodPrev, good.val)
		if !lg.record(good, vec) {
			// The fault-free machine failed to settle here: there is no
			// trustworthy reference from this vector on, so degrade instead
			// of failing the whole campaign.
			res.GoodUnsettledAt = k + 1
			reg.Counter("swsim_good_unsettled").Inc()
			return stop(k), nil
		}
		lg.ok = lg.ok && len(lg.push) >= walkFrom
		goodVal := good.val

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

		// Advance every live fault; each fault touches only its own values
		// (or its worker's home vector), so the work shards freely.
		mVectors.Inc()
		drop = drop[:len(lives)]
		clear(drop)
		var wg sync.WaitGroup
		for wi := range pool {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				w := &pool[wi]
				m := w.m
				w.homeGood = false
				var steps, fast int64
				for li := wi; li < len(lives); li += workers {
					lv := lives[li]
					steps++
					clean := lv.val == nil
					if clean {
						fast++
					}
					ok := w.advance(lv, bridgeG, vec, goodPrev, goodVal, &lg)
					if !ok {
						w.oscillations++
						lv.strikes++
						switch {
						case lv.strikes >= oscStrikeLimit:
							// Dropped as undecided below.
							w.retire(lv)
						case clean:
							// The partially-relaxed state is the fault's
							// history now.
							w.promote(lv)
						}
						continue
					}
					if detects(c, goodVal, m.val) {
						res.DetectedAt[lv.idx] = k + 1
						drop[li] = true
						w.retire(lv)
						continue
					}
					switch {
					case clean && m.cleanAgainst(goodVal):
						// The apply started from the good state, so only
						// the nets it touched can differ — no full scan.
						w.homeGood = true
					case clean:
						// First divergence: the fault keeps its values.
						w.promote(lv)
					case equalVals(lv.val, goodVal):
						// Re-converged: its state is the good one again.
						w.release(lv)
					}
				}
				mSteps.Add(steps)
				mFastPath.Add(fast)
				mTable.Add(m.tableSolves)
				mSeed.Add(m.seedSolves)
				mClass.Add(m.classSolves)
				mRelax.Add(m.relaxSolves)
				mReplay.Add(m.replaySolves)
				mForward.Add(m.fastForwards)
				mHandOver.Add(m.handOvers)
				m.tableSolves, m.seedSolves, m.classSolves, m.relaxSolves = 0, 0, 0, 0
				m.replaySolves, m.fastForwards, m.handOvers = 0, 0, 0
			}(wi)
		}
		wg.Wait()
		// The class table takes this vector's relaxations only now, so
		// every fault stepped it against the same table.
		for wi := range pool {
			classes.take(&pool[wi].m.fresh)
		}
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
	return res, nil
}

// live is one not-yet-resolved fault in the campaign loop. It owns only
// its node values, its strike count and its seed memo (with its seeds'
// classes): while the fault's state equals the good machine's (val ==
// nil, the clean flag) it owns no values at all and steps on its worker's
// home vector; its first divergence (or failed settle) hands it that
// vector, and it hands a vector back when it re-converges or drops.
type live struct {
	idx     int
	plan    *faultPlan
	val     []Val // nil while the fault shadows the good machine
	strikes int   // unsettled vectors so far; oscStrikeLimit → undecided
	seeds   seedMemo
}

// worker is one campaign goroutine's state, kept across vectors: the
// machine every fault it advances runs on (event queue, scratch arenas,
// CCC-memo handle), the home vector clean faults step on, and the value
// vectors of re-converged or dropped faults, recycled for the next
// divergence. homeGood records that home equals the current vector's good
// state — after a clean fault stays clean it does, so the next clean
// fault's applyFromGood skips the full-state copy.
type worker struct {
	m            *Machine
	home         []Val
	homeGood     bool
	free         [][]Val
	oscillations int64
}

// advance steps fault lv over one vector on the worker's machine: a clean
// fault by the shared-state fast path on the home vector, a diverged one
// on its own values by walking the vector's event log when it is usable
// (lg.ok), by a full Apply otherwise — the same step either way.
func (w *worker) advance(lv *live, bridgeG float64, vec Vector, goodPrev, goodVal []Val, lg *eventLog) bool {
	w.m.install(lv.plan, bridgeG, &lv.seeds)
	if lv.val == nil {
		w.m.val = w.home
		return w.m.applyFromGood(goodVal, goodPrev, w.homeGood)
	}
	w.m.val = lv.val
	if lg.ok {
		return w.m.walk(vec, lg)
	}
	return w.m.Apply(vec)
}

// promote hands the home vector, which now holds clean fault lv's
// diverged state, to lv and takes a recycled or new one.
func (w *worker) promote(lv *live) {
	lv.val = w.home
	if n := len(w.free); n > 0 {
		w.home, w.free = w.free[n-1], w.free[:n-1]
	} else {
		w.home = make([]Val, len(lv.val))
	}
	w.homeGood = false
}

// release recycles a diverged fault's values once it needs none.
func (w *worker) release(lv *live) {
	w.free = append(w.free, lv.val)
	lv.val = nil
}

// retire frees what fault lv, dropped after this step, held: its own
// values, or the home vector it left diverged.
func (w *worker) retire(lv *live) {
	if lv.val == nil {
		w.homeGood = false
		return
	}
	w.release(lv)
}

// detects reports whether some PO is definite in both the good and the
// faulty state and the values differ.
func detects(c *transistor.Circuit, good, faulty []Val) bool {
	for _, po := range c.POs {
		if gv, fv := good[po], faulty[po]; gv != VX && fv != VX && gv != fv {
			return true
		}
	}
	return false
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

// equalVals reports whether a and b hold identical values, eight at a
// time. Slices of different lengths never compare equal: a size skew
// then merely forfeits the shared-state fast path (the machine keeps
// advancing through the exact Apply path) instead of panicking
// mid-campaign.
func equalVals(a, b []Val) bool {
	if len(a) != len(b) {
		return false
	}
	n := 0
	for ; n+8 <= len(a); n += 8 {
		if word(a, n) != word(b, n) {
			return false
		}
	}
	for ; n < len(a); n++ {
		if a[n] != b[n] {
			return false
		}
	}
	return true
}

// word packs v[i:i+8] into one word (which the compiler loads as one).
func word(v []Val, i int) uint64 {
	v = v[i : i+8 : i+8]
	return uint64(v[0]) | uint64(v[1])<<8 | uint64(v[2])<<16 | uint64(v[3])<<24 |
		uint64(v[4])<<32 | uint64(v[5])<<40 | uint64(v[6])<<48 | uint64(v[7])<<56
}
