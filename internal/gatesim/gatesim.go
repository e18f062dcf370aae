// Package gatesim is the gate-level fault simulator of the pipeline: a
// 64-way parallel-pattern single stuck-at simulator with fault dropping.
// It produces the stuck-at coverage curves T(k) of the paper's figures 4
// and 5. Besides the classic first-detection mode it offers a
// detection-counting mode (SimulateFaultsNCtx) where a fault stays live
// until detected by n vectors — the engine behind n-detect test sets.
//
// # Parallel execution
//
// The simulator is pattern-parallel (64 patterns per machine word) and,
// since this PR, fault-parallel: within each 64-pattern block the good
// machine is evaluated once, then the live-fault list is sharded across a
// worker pool (SimulateFaultsCtx's workers parameter; <= 0 selects
// runtime.NumCPU() via the shared internal/par policy). Every worker owns
// a private simulator scratch buffer and private counters that are
// flushed once per block, detection indices land at disjoint fault
// positions, and the live list is re-merged in deterministic order after
// each block — so the result is bitwise identical to a serial run for any
// worker count, and fault dropping propagates across all workers between
// blocks.
package gatesim

import (
	"context"
	"fmt"
	"math/bits"
	"sync"

	"defectsim/internal/fault"
	"defectsim/internal/faultinject"
	"defectsim/internal/netlist"
	"defectsim/internal/obs"
	"defectsim/internal/par"
)

// Pattern is one input vector: a 0/1 value per primary input in PI order.
type Pattern []uint8

// Result of a stuck-at fault simulation campaign.
type Result struct {
	// DetectedAt[i] is the 1-based index of the first vector detecting
	// fault i, or 0 if the vector set never detects it.
	DetectedAt []int
	// DetectCounts[i] is the number of vectors detecting fault i, counted
	// up to the campaign's target n (counting mode, SimulateFaultsNCtx);
	// nil in first-detection mode. Counts are per applied vector: a
	// stimulus occurring twice in the pattern set credits two detections.
	DetectCounts []int
	// NthDetectedAt[i] is the 1-based index of the vector supplying fault
	// i's n-th detection (counting mode), or 0 when the set never reaches
	// n detections; nil in first-detection mode. For n = 1 it equals
	// DetectedAt.
	NthDetectedAt []int
	// VectorsApplied is how many leading vectors the campaign actually
	// simulated. A completed campaign reports the full set length (even
	// when every fault dropped early — the remaining vectors could not
	// have changed any verdict); an early-stopped one (cancellation,
	// injected failure) reports the vectors before the stop. Zero on
	// hand-built Results that never ran the engine.
	VectorsApplied int
}

// Coverage returns T(k): the fraction of the fault list detected by the
// first k vectors.
//
// k is clamped to VectorsApplied: an early-stopped campaign simulated only
// VectorsApplied vectors, so querying coverage at a k beyond the stop
// point reports the coverage as of the stop — vectors that were never
// simulated cannot claim detection credit. (A Result whose VectorsApplied
// is zero is queried unclamped, so hand-built Results keep their
// historical meaning; mirrors switchsim.Result.DetectedBy.)
func (r *Result) Coverage(k int) float64 {
	if len(r.DetectedAt) == 0 {
		return 0
	}
	if r.VectorsApplied > 0 && k > r.VectorsApplied {
		k = r.VectorsApplied
	}
	n := 0
	for _, d := range r.DetectedAt {
		if d > 0 && d <= k {
			n++
		}
	}
	return float64(n) / float64(len(r.DetectedAt))
}

// DetectedN returns the number of faults whose detection count reached n —
// counting-mode results only (zero otherwise).
func (r *Result) DetectedN(n int) int {
	c := 0
	for _, v := range r.DetectCounts {
		if v >= n {
			c++
		}
	}
	return c
}

// Detected returns the number of faults detected by the whole vector set.
func (r *Result) Detected() int {
	n := 0
	for _, d := range r.DetectedAt {
		if d > 0 {
			n++
		}
	}
	return n
}

// simulator caches the levelized structure of a netlist.
type simulator struct {
	nl    *netlist.Netlist
	order []int
	vals  []uint64 // scratch, indexed by net
}

func newSimulator(nl *netlist.Netlist) (*simulator, error) {
	order, _, err := nl.Levelize()
	if err != nil {
		return nil, err
	}
	return &simulator{nl: nl, order: order, vals: make([]uint64, nl.NumNets())}, nil
}

// clone returns a simulator sharing the read-only levelized structure but
// owning a private scratch buffer — one per worker.
func (s *simulator) clone() *simulator {
	return &simulator{nl: s.nl, order: s.order, vals: make([]uint64, len(s.vals))}
}

// eval computes all net values for the packed PI words, with an optional
// stuck-at fault injected (f == nil means fault-free). The result aliases
// the scratch buffer.
func (s *simulator) eval(piWords []uint64, f *fault.StuckAt) []uint64 {
	vals := s.vals
	for i, pi := range s.nl.PIs {
		vals[pi] = piWords[i]
	}
	stuck := func(v uint8) uint64 {
		if v == 0 {
			return 0
		}
		return ^uint64(0)
	}
	if f != nil && f.Branch < 0 && s.nl.Driver(f.Net) < 0 {
		// Stem fault on a primary input.
		vals[f.Net] = stuck(f.Value)
	}
	var in [8]uint64
	for _, gi := range s.order {
		g := &s.nl.Gates[gi]
		inputs := in[:0]
		for _, x := range g.Inputs {
			v := vals[x]
			if f != nil && f.Branch == gi && f.Net == x {
				v = stuck(f.Value)
			}
			inputs = append(inputs, v)
		}
		out := g.Type.Eval(inputs)
		if f != nil && f.Branch < 0 && f.Net == g.Out {
			out = stuck(f.Value)
		}
		vals[g.Out] = out
	}
	return vals
}

// minFaultsPerWorker is the smallest live-fault shard worth a goroutine:
// below it the block runs on fewer workers (down to the serial in-line
// path), keeping tiny campaigns — like the one-pattern top-up simulations
// inside ATPG — free of scheduling overhead. The value does not affect
// results, only how a block's work is split.
const minFaultsPerWorker = 32

// shardCounters are one worker's private per-block tallies, merged into
// the campaign totals after every block. Padded to a cache line so
// neighboring workers don't false-share.
type shardCounters struct {
	faultEvals, actSkips, dropped int64
	_                             [5]int64
}

// blockState is the read-only view of one 64-pattern block that every
// worker shards over: the packed PI words, the pattern mask, and the
// fault-free machine's values.
type blockState struct {
	piWords []uint64
	mask    uint64
	nBlock  int // patterns in this block
	base    int // index of the block's first pattern
	goodPO  []uint64
	goodAll []uint64
}

// simShard runs one worker's strided share of the live list against the
// current block: the activation filter, the faulty-machine evaluation and
// detection extraction. Detections land at disjoint positions of the
// result slices and drop (live indices are unique), counters stay
// worker-private.
//
// need selects the mode: 0 is classic first-detection-with-dropping;
// need >= 1 is counting mode — the fault accumulates one detection per
// detecting vector into res.DetectCounts and is dropped only when the
// count reaches need, with the supplying vector recorded in
// res.NthDetectedAt. Both modes fill res.DetectedAt identically, and
// need == 1 drops at exactly the same vector as need == 0.
func (s *simulator) simShard(bs *blockState, faults []fault.StuckAt, live []int, offset, stride int, res *Result, need int, drop []bool, c *shardCounters) {
	for li := offset; li < len(live); li += stride {
		fi := live[li]
		f := &faults[fi]
		// Activation filter: a fault whose site already carries the
		// stuck value in every pattern cannot change anything.
		site := bs.goodAll[f.Net]
		want := uint64(0)
		if f.Value == 1 {
			want = ^uint64(0)
		}
		if (site^want)&bs.mask == 0 {
			c.actSkips++
			continue
		}
		c.faultEvals++
		fv := s.eval(bs.piWords, f)
		var diff uint64
		for i, po := range s.nl.POs {
			diff |= (fv[po] ^ bs.goodPO[i]) & bs.mask
		}
		if diff == 0 {
			continue
		}
		// First set bit = earliest detecting pattern in the block. A live
		// fault has no recorded detection yet in first-detection mode; in
		// counting mode the guard keeps the first index from earlier blocks.
		if res.DetectedAt[fi] == 0 {
			res.DetectedAt[fi] = bs.base + bits.TrailingZeros64(diff) + 1
		}
		if need == 0 {
			c.dropped++
			drop[li] = true
			continue
		}
		// Counting mode: every set bit of diff is one detecting vector.
		hits := bits.OnesCount64(diff)
		rem := need - res.DetectCounts[fi]
		if hits < rem {
			res.DetectCounts[fi] += hits
			continue
		}
		// The rem-th set bit supplies the need-th detection; drop the fault.
		res.DetectCounts[fi] = need
		res.NthDetectedAt[fi] = bs.base + selectBit(diff, rem) + 1
		c.dropped++
		drop[li] = true
	}
}

// selectBit returns the position of the k-th (1-based) set bit of x.
// The caller guarantees x has at least k set bits.
func selectBit(x uint64, k int) int {
	for ; k > 1; k-- {
		x &= x - 1 // clear the lowest set bit
	}
	return bits.TrailingZeros64(x)
}

// SimulateFaultsCtx runs the stuck-at fault list against the pattern
// sequence with fault dropping and returns first-detection indices.
//
// The context is checked once per 64-pattern block, so a cancelled or
// expired context stops the campaign promptly. On early stop it returns
// the partial result (first detections recorded so far) together with the
// context's error.
//
// Per-run counts of 64-pattern blocks, faulty-machine evaluations,
// activation-filter skips and fault drops land in reg. Counters are
// accumulated locally and flushed once per run, so a nil registry costs
// nothing on the hot path.
//
// workers sets the worker count (<= 0 selects runtime.NumCPU(), mirroring
// switchsim.SimulateFaults). Within each 64-pattern block the good
// machine is evaluated once and the live-fault list is sharded across the
// workers; results are bitwise identical to a serial run for every worker
// count. See the package comment for the execution model.
func SimulateFaultsCtx(ctx context.Context, nl *netlist.Netlist, faults []fault.StuckAt, patterns []Pattern, workers int, reg *obs.Registry) (*Result, error) {
	return simulateFaults(ctx, nl, faults, patterns, 0, workers, reg)
}

// SimulateFaultsNCtx is the detection-counting engine behind n-detect test
// sets: a fault stays live until detected by n vectors (instead of being
// dropped at its first detection) and the result carries, per fault, the
// detection count capped at n (DetectCounts) and the index of the vector
// supplying the n-th detection (NthDetectedAt). DetectedAt keeps its
// first-detection meaning, and for n = 1 the whole result — detections,
// drops, counters — is identical to SimulateFaultsCtx. Counting mode
// shares the block/shard engine, so it is equally parallel-safe: bitwise
// identical for every worker count.
func SimulateFaultsNCtx(ctx context.Context, nl *netlist.Netlist, faults []fault.StuckAt, patterns []Pattern, n, workers int, reg *obs.Registry) (*Result, error) {
	if n < 1 {
		return nil, fmt.Errorf("gatesim: detection target n = %d, must be >= 1", n)
	}
	return simulateFaults(ctx, nl, faults, patterns, n, workers, reg)
}

// simulateFaults is the shared engine; need == 0 selects first-detection
// mode, need >= 1 counting mode (see simShard).
func simulateFaults(ctx context.Context, nl *netlist.Netlist, faults []fault.StuckAt, patterns []Pattern, need, workers int, reg *obs.Registry) (*Result, error) {
	sim, err := newSimulator(nl)
	if err != nil {
		return nil, err
	}
	for _, p := range patterns {
		if len(p) != len(nl.PIs) {
			return nil, fmt.Errorf("gatesim: pattern has %d bits, want %d", len(p), len(nl.PIs))
		}
	}
	res := &Result{DetectedAt: make([]int, len(faults))}
	if need > 0 {
		res.DetectCounts = make([]int, len(faults))
		res.NthDetectedAt = make([]int, len(faults))
	}
	live := make([]int, 0, len(faults))
	for i := range faults {
		live = append(live, i)
	}
	maxWorkers := par.WorkersFor(workers, len(faults))
	// sims[0] doubles as the good-machine evaluator; further workers get
	// lazily cloned private scratch buffers the first block that needs them.
	sims := make([]*simulator, 1, maxWorkers)
	sims[0] = sim

	goodPO := make([]uint64, len(nl.POs))
	goodAll := make([]uint64, nl.NumNets())
	piWords := make([]uint64, len(nl.PIs))
	drop := make([]bool, len(faults))
	counters := make([]shardCounters, maxWorkers)

	var nBlocks, nParBlocks, nFaultEvals, nActSkips, nDropped int64
	defer func() {
		if reg != nil {
			reg.Counter("gatesim_blocks").Add(nBlocks)
			reg.Counter("gatesim_parallel_blocks").Add(nParBlocks)
			reg.Counter("gatesim_fault_evals").Add(nFaultEvals)
			reg.Counter("gatesim_activation_skips").Add(nActSkips)
			reg.Counter("gatesim_faults_dropped").Add(nDropped)
			reg.Gauge("gatesim_workers").Set(float64(maxWorkers))
		}
	}()
	for base := 0; base < len(patterns) && len(live) > 0; base += 64 {
		if err := faultinject.Fire(ctx, faultinject.HookGateSimBlock); err != nil {
			return res, err
		}
		if err := ctx.Err(); err != nil {
			return res, err
		}
		nBlocks++
		block := patterns[base:]
		if len(block) > 64 {
			block = block[:64]
		}
		for i := range piWords {
			piWords[i] = 0
		}
		for b, p := range block {
			for i, bit := range p {
				if bit != 0 {
					piWords[i] |= 1 << uint(b)
				}
			}
		}
		mask := ^uint64(0)
		if len(block) < 64 {
			mask = (1 << uint(len(block))) - 1
		}

		vals := sim.eval(piWords, nil)
		copy(goodAll, vals)
		for i, po := range nl.POs {
			goodPO[i] = vals[po]
		}
		bs := &blockState{
			piWords: piWords, mask: mask, nBlock: len(block), base: base,
			goodPO: goodPO, goodAll: goodAll,
		}

		// Shard the live list; small blocks collapse to fewer workers (and
		// to the in-line serial path at one) without changing results.
		w := par.WorkersFor(maxWorkers, (len(live)+minFaultsPerWorker-1)/minFaultsPerWorker)
		if w == 1 {
			sim.simShard(bs, faults, live, 0, 1, res, need, drop, &counters[0])
		} else {
			nParBlocks++
			for len(sims) < w {
				sims = append(sims, sim.clone())
			}
			var wg sync.WaitGroup
			for i := 0; i < w; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					sims[i].simShard(bs, faults, live, i, w, res, need, drop, &counters[i])
				}(i)
			}
			wg.Wait()
		}

		// Deterministic merge: fold the worker-private counters into the
		// campaign totals and rebuild the live list in its original order,
		// dropping this block's detections for every worker alike.
		for i := 0; i < w; i++ {
			nFaultEvals += counters[i].faultEvals
			nActSkips += counters[i].actSkips
			nDropped += counters[i].dropped
			counters[i] = shardCounters{}
		}
		keep := live[:0]
		for li, fi := range live {
			if drop[li] {
				drop[li] = false
				continue
			}
			keep = append(keep, fi)
		}
		live = keep
		res.VectorsApplied = base + len(block)
	}
	// A campaign that ran to here covered the whole set: either every
	// block was simulated, or the live list emptied early and the skipped
	// vectors could not have changed any verdict.
	res.VectorsApplied = len(patterns)
	return res, nil
}

// RandomPatterns returns n pseudorandom patterns for nl's inputs using a
// simple deterministic xorshift generator (seeded), suitable for the
// random-prefix test sets of the experiments.
func RandomPatterns(nl *netlist.Netlist, n int, seed uint64) []Pattern {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	state := seed
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	out := make([]Pattern, n)
	for i := range out {
		p := make(Pattern, len(nl.PIs))
		for j := range p {
			p[j] = uint8(next() & 1)
		}
		out[i] = p
	}
	return out
}
