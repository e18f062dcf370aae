package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"defectsim/internal/extract"
	"defectsim/internal/fault"
	"defectsim/internal/layout"
	"defectsim/internal/netlist"
	"defectsim/internal/obs"
	"defectsim/internal/switchsim"
	"defectsim/internal/transistor"
)

// frontEndsCap bounds the entries a FrontEnds memo holds; the least
// recently used one is evicted first.
const frontEndsCap = 16

// FrontEnds memoizes complete pipeline front ends — the artifacts of
// layout through stuckat-collapse — across runs. The front end is a pure
// function of the netlist, the defect statistics and the target yield:
// the seed, vector and backtrack budgets only steer ATPG and the
// switch-level campaign behind it. A run configured with a memo
// (Config.FrontEnds) serves a design it has seen from the memo and shares
// the memoized Layout, Faults, Circuit and StuckAt read-only with every
// other run of that design. Only front ends whose six stages all succeeded
// are stored. Safe for concurrent use.
//
// The memo also owns one switch-level memo (switchsim.Memo) that every
// switch-level campaign of its runs at switchsim.BridgeG shares: the seed
// classes and their class table, across designs. Each entry carries its
// design's own switch-level memo, whose set-up — fault plans, seed classes
// and CCC tables — the first campaign of a run the entry serves builds. A
// run reaches it through the memo, never holds it, so evicting the entry
// frees it, and a design seen once keeps none.
type FrontEnds struct {
	mu sync.Mutex
	// entries holds the memoized front ends, most recently used first.
	entries []*frontEnd
	// outcome is pipeline_frontend_total{outcome} in the owner's
	// registry (nil: counted only in the runs' own reports).
	outcome *obs.CounterVec
	// sw is the switch-level memo shared by every campaign of the runs.
	sw *switchsim.Memo
}

// NewFrontEnds returns an empty memo. reg, when non-nil, counts every
// lookup as pipeline_frontend_total{outcome="hit"|"miss"} — the owner's
// fleet-level view; each run also counts its own lookup in its run report
// — and carries the switch-level memo's swsim_class_table_entries and
// swsim_seed_classes gauges.
func NewFrontEnds(reg *obs.Registry) *FrontEnds {
	return &FrontEnds{
		outcome: reg.CounterVec("pipeline_frontend_total", "outcome"),
		sw:      switchsim.NewMemo(reg),
	}
}

// frontEndKey identifies a front end: see newFrontEndKey.
type frontEndKey [sha256.Size]byte

// frontEnd is one memoized front end, read-only once stored.
type frontEnd struct {
	key     frontEndKey
	layout  *layout.Layout
	faults  *fault.List // yield-scaled
	yield   float64
	circuit *transistor.Circuit
	stuckAt []fault.StuckAt
	// weights are the extraction-time weights aligned with faults (nil
	// when the list was not rescaled): a hit replays them into the
	// extract_fault_weight histogram, so its metrics match a miss's.
	weights []float64
	// sw is the design's switch-level memo (see FrontEnds).
	sw *switchsim.Memo
}

// newFrontEndKey digests everything the front end reads: the netlist's own
// fields in index order (name, net names, every gate's type, inputs and
// output, PIs, POs), the target yield and the defect statistics. Netlists
// are compared field by field, not through their .bench text: WriteBench
// levelizes the gates and prints only names, so two netlists that number
// their nets differently — and so extract different fault lists — would
// print alike.
func newFrontEndKey(nl *netlist.Netlist, cfg Config) frontEndKey {
	var b []byte
	num := func(v int) { b = binary.AppendVarint(b, int64(v)) }
	str := func(s string) { num(len(s)); b = append(b, s...) }
	ints := func(xs []int) {
		num(len(xs))
		for _, x := range xs {
			num(x)
		}
	}
	str(nl.Name)
	num(len(nl.NetNames))
	for _, name := range nl.NetNames {
		str(name)
	}
	num(len(nl.Gates))
	for _, g := range nl.Gates {
		num(int(g.Type))
		ints(g.Inputs)
		num(g.Out)
	}
	ints(nl.PIs)
	ints(nl.POs)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(cfg.TargetYield))
	str(digestConfig(cfg).StatsDigest)
	return sha256.Sum256(b)
}

// get returns the memoized front end under key, marking it most recently
// used, or nil.
func (m *FrontEnds) get(key frontEndKey) *frontEnd {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, fe := range m.entries {
		if fe.key == key {
			copy(m.entries[1:i+1], m.entries[:i])
			m.entries[0] = fe
			return fe
		}
	}
	return nil
}

// switchMemo returns the switch-level memo of a run's campaigns: the
// design memo of the entry under served while m holds it, the shared memo
// when served is nil (the run missed) or the entry is gone, and nil
// without a memo.
func (m *FrontEnds) switchMemo(served *frontEndKey) *switchsim.Memo {
	if m == nil {
		return nil
	}
	if served != nil {
		m.mu.Lock()
		defer m.mu.Unlock()
		for _, fe := range m.entries {
			if fe.key == *served {
				return fe.sw
			}
		}
	}
	return m.sw
}

// put stores a completed front end as the most recently used entry,
// evicting the least recently used one beyond frontEndsCap. A key already
// present keeps its entry: a concurrent miss on the same design built an
// identical front end, and runs holding the first one keep sharing it.
func (m *FrontEnds) put(fe *frontEnd) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.entries {
		if e.key == fe.key {
			return
		}
	}
	if len(m.entries) < frontEndsCap {
		m.entries = append(m.entries, nil)
	}
	copy(m.entries[1:], m.entries)
	m.entries[0] = fe
}

// frontEnd runs the six front-end stages (layout through
// stuckat-collapse) and installs their artifacts on the pipeline. With a
// memo configured, a design it holds is served from it: each stage still
// opens its span and returns at once — extract replays the extraction
// metrics and scale-weights sets the yield gauge — so a traced hit reads
// like a run whose front end took no time. A miss builds the front end as
// a memo-less run does and stores it once all six stages succeeded. The
// run's switch-level campaigns share the memo's switch-level memo: a
// hit's also use the entry's design memo (Pipeline.switchMemo), a miss's
// do not.
func (r *runner) frontEnd(nl *netlist.Netlist) error {
	cfg, reg, memo := r.cfg, r.reg, r.cfg.FrontEnds
	fe := &frontEnd{}
	hit := false
	if memo != nil {
		fe.key = newFrontEndKey(nl, cfg)
		outcome := "miss"
		if got := memo.get(fe.key); got != nil {
			fe, hit, outcome = got, true, "hit"
		}
		memo.outcome.With(outcome).Inc()
		reg.CounterVec("pipeline_frontend_total", "outcome").With(outcome).Inc()
	}

	if err := r.stage("layout", func(ctx context.Context) (err error) {
		if !hit {
			fe.layout, err = layout.BuildCtx(ctx, nl, nil)
		}
		return err
	}); err != nil {
		return err
	}

	if err := r.stage("lvs", func(ctx context.Context) error {
		if hit {
			return nil
		}
		return extract.VerifyLVS(fe.layout)
	}); err != nil {
		return err
	}

	if err := r.stage("extract", func(ctx context.Context) (err error) {
		if hit {
			extract.RecordFaults(reg, fe.faults.Faults, fe.weights)
			return nil
		}
		if fe.faults, err = extract.FaultsCtx(ctx, fe.layout, cfg.Stats, reg); err != nil {
			return err
		}
		if len(fe.faults.Faults) == 0 {
			return fmt.Errorf("no faults extracted from %s", nl.Name)
		}
		return nil
	}); err != nil {
		return err
	}

	if err := r.stage("scale-weights", func(ctx context.Context) error {
		if !hit {
			if cfg.TargetYield > 0 {
				if memo != nil {
					fe.weights = weightsOf(fe.faults)
				}
				fe.faults.ScaleToYield(cfg.TargetYield)
			}
			fe.yield = fe.faults.Yield()
		}
		reg.Gauge("pipeline_yield").Set(fe.yield)
		return nil
	}); err != nil {
		return err
	}

	if err := r.stage("transistor-map", func(ctx context.Context) error {
		if hit {
			return nil
		}
		fe.circuit = transistor.FromLayout(fe.layout)
		return fe.circuit.Validate()
	}); err != nil {
		return err
	}

	if err := r.stage("stuckat-collapse", func(ctx context.Context) error {
		if !hit {
			fe.stuckAt = fault.StuckAtUniverse(nl)
		}
		return nil
	}); err != nil {
		return err
	}

	p := r.p
	p.Layout, p.Faults, p.Yield, p.Circuit, p.StuckAt = fe.layout, fe.faults, fe.yield, fe.circuit, fe.stuckAt
	switch {
	case hit:
		key := fe.key
		p.served = &key
	case memo != nil:
		fe.sw = memo.sw.Design(fe.circuit, fe.faults)
		memo.put(fe)
	}
	return nil
}

func weightsOf(l *fault.List) []float64 {
	w := make([]float64, len(l.Faults))
	for i, f := range l.Faults {
		w[i] = f.Weight
	}
	return w
}
