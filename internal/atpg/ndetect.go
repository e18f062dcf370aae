package atpg

import (
	"context"
	"fmt"
	"slices"

	"defectsim/internal/fault"
	"defectsim/internal/faultinject"
	"defectsim/internal/gatesim"
	"defectsim/internal/netlist"
	"defectsim/internal/obs"
)

// n-detection test sets (Pomeranz & Reddy): a test set T is an n-detect
// set when every testable stuck-at fault is detected by at least n
// distinct vectors of T. The motivation is the paper's surrogate-coverage
// gap — a fault detected once may sit on a defect (resistive bridge,
// partial open) whose analog behavior masks that single detection, while
// n independent detections excite the site under n different line
// conditions and close most of the gap between stuck-at coverage T and
// realistic coverage Θ (eq. 9). The paper's stuck-at test set is the
// n = 1 case: BuildTestSetWorkersCtx and BuildNDetectTestSet share one
// builder.

// BuildNDetectTestSet grows base into an n-detect test set: every fault
// with fewer than n detections under base (counted by the gatesim
// counting mode) is targeted with deterministic generation until it
// reaches n distinct detecting vectors, is proven untestable, or the
// search gives up (Aborted). Each accepted vector is fault-simulated
// against every still-short fault so cross-detection credit accrues and
// later targets need fewer vectors.
//
// Distinctness is forced through GenerateConstrained: when the plain
// PODEM solution duplicates an existing vector, the generator is re-run
// with one primary input constrained to the opposite value, scanning PIs
// until a fresh detecting vector appears. untestable carries prior
// knowledge from the base build (nil means none). The context is checked
// between vectors, between PI flips and inside every search; when it ends
// mid-build the partial set is returned marked Incomplete together with
// the context's error, and the fault whose search it cut is not marked
// Aborted.
func BuildNDetectTestSet(ctx context.Context, nl *netlist.Netlist, faults []fault.StuckAt, base []gatesim.Pattern, untestable []bool, n, backtrackLimit, workers int, tr *obs.Tracer) (*TestSet, error) {
	if n < 1 {
		return nil, fmt.Errorf("atpg: n-detect requires n >= 1, got %d", n)
	}
	s, err := build(ctx, nl, faults, base, untestable, n, backtrackLimit, workers, tr, nDetectPhases)
	if s != nil {
		_, _, aborted := s.Counts()
		tr.Metrics().Counter("atpg_ndetect_saturated").Add(int64(aborted))
	}
	return s, err
}

// phases names the spans and the appended-pattern counter of one entry
// point into build.
type phases struct{ baseSim, topUp, patterns string }

var (
	stuckAtPhases = phases{"gate-sim", "deterministic-topup", "atpg_deterministic_patterns"}
	nDetectPhases = phases{"ndetect-base-sim", "ndetect-topup", "atpg_ndetect_patterns"}
)

// build is the one test-set builder. It credits the given vectors with
// one counting-mode fault simulation, then takes each fault short of n
// detections in order: it runs PODEM, appends the vector and credits it,
// until the fault reaches n detections, is proven untestable, or is given
// up. A fault that already has a detection needs a vector not yet in the
// set, which PI-flip constrained searches supply; a fault with none was
// credited against every vector of the set and none detected it, so its
// plain PODEM vector is new.
//
// When the context ends or an injected failure fires, the partial set is
// returned marked Incomplete with the error. The set is nil only when no
// partial set can describe the failure: a netlist that does not levelize,
// vectors of the wrong width, or a generated vector that misses its
// target.
func build(ctx context.Context, nl *netlist.Netlist, faults []fault.StuckAt, given []gatesim.Pattern, untestable []bool, n, backtrackLimit, workers int, tr *obs.Tracer, ph phases) (*TestSet, error) {
	reg := tr.Metrics()
	gen, err := NewGenerator(nl)
	if err != nil {
		return nil, err
	}
	gen.Instrument(reg)
	sp := tr.StartSpan(ph.baseSim)
	res, err := gatesim.SimulateFaultsNCtx(ctx, nl, faults, given, n, workers, reg)
	sp.End()
	if res == nil {
		return nil, err
	}
	ts := &TestSet{
		N: n,
		// Clipped, so appending never writes into the caller's array.
		Patterns:     slices.Clip(given),
		RandomCount:  len(given),
		DetectCounts: res.DetectCounts,
		DetectedAt:   res.NthDetectedAt,
		Untestable:   make([]bool, len(faults)),
		Aborted:      make([]bool, len(faults)),
	}
	copy(ts.Untestable, untestable)
	if err != nil {
		ts.Incomplete = true
		return ts, err
	}

	sp = tr.StartSpan(ph.topUp)
	defer sp.End()
	mPatterns := reg.Counter(ph.patterns)
	var seen map[string]bool // every vector of the set, built on first need
	for i, f := range faults {
		for ts.DetectCounts[i] < n && !ts.Untestable[i] && !ts.Aborted[i] {
			if err := faultinject.Fire(ctx, faultinject.HookATPGFault); err != nil {
				ts.Incomplete = true
				return ts, err
			}
			if err := ctx.Err(); err != nil {
				ts.Incomplete = true
				return ts, err
			}
			pat, status := gen.GenerateCtx(ctx, f, backtrackLimit)
			if status == StatusDetected && ts.DetectCounts[i] > 0 {
				if seen == nil {
					seen = make(map[string]bool, len(ts.Patterns))
					for _, p := range ts.Patterns {
						seen[string(p)] = true
					}
				}
				pat, status = gen.distinct(ctx, f, pat, seen, backtrackLimit)
			}
			switch {
			case status == StatusUntestable:
				ts.Untestable[i] = true
			case status == StatusAborted && ctx.Err() != nil:
				// A search cut by cancellation proves nothing: the fault
				// is left unmarked in an Incomplete set.
				ts.Incomplete = true
				return ts, ctx.Err()
			case status == StatusAborted:
				ts.Aborted[i] = true
			default:
				if seen != nil {
					seen[string(pat)] = true
				}
				ts.Patterns = append(ts.Patterns, pat)
				mPatterns.Inc()
				before := ts.DetectCounts[i]
				if _, err := ts.credit(ctx, nl, faults, pat, len(ts.Patterns), workers, reg); err != nil {
					ts.Incomplete = true
					return ts, err
				}
				if ts.DetectCounts[i] == before {
					return nil, fmt.Errorf("atpg: generated pattern for %v does not detect it", f)
				}
			}
		}
	}
	return ts, nil
}

// distinct returns a detecting vector for f that is not in seen: pat, the
// plain PODEM solution, when it is new, else the first new solution of a
// search with one primary input constrained against pat, scanning PIs in
// order. It reports StatusAborted when no PI flip yields one or the
// context ends.
func (g *Generator) distinct(ctx context.Context, f fault.StuckAt, pat gatesim.Pattern, seen map[string]bool, backtrackLimit int) (gatesim.Pattern, Status) {
	if !seen[string(pat)] {
		return pat, StatusDetected
	}
	for p, pi := range g.nl.PIs {
		if ctx.Err() != nil {
			break
		}
		want := L1
		if pat[p] != 0 {
			want = L0
		}
		cpat, cst := g.GenerateConstrained(ctx, f, []Assign{{Net: pi, Value: want}}, backtrackLimit)
		if cst == StatusDetected && !seen[string(cpat)] {
			return cpat, StatusDetected
		}
	}
	return nil, StatusAborted
}

// credit fault-simulates pat, the set's k-th vector, against every fault
// short of N detections and not proven untestable. Each fault it detects
// gains a detection; one reaching N records k in DetectedAt and loses its
// Aborted flag. It reports whether pat detected any of them.
func (ts *TestSet) credit(ctx context.Context, nl *netlist.Netlist, faults []fault.StuckAt, pat gatesim.Pattern, k, workers int, reg *obs.Registry) (bool, error) {
	isShort := func(j int) bool { return ts.DetectCounts[j] < ts.N && !ts.Untestable[j] }
	m := 0
	for j := range faults {
		if isShort(j) {
			m++
		}
	}
	short, idx := make([]fault.StuckAt, 0, m), make([]int, 0, m)
	for j, f := range faults {
		if isShort(j) {
			short = append(short, f)
			idx = append(idx, j)
		}
	}
	r, err := gatesim.SimulateFaultsCtx(ctx, nl, short, []gatesim.Pattern{pat}, workers, reg)
	if err != nil {
		return false, err
	}
	hit := false
	for jj, d := range r.DetectedAt {
		if d == 0 {
			continue
		}
		hit = true
		j := idx[jj]
		ts.DetectCounts[j]++
		if ts.DetectCounts[j] == ts.N {
			ts.DetectedAt[j] = k
			ts.Aborted[j] = false
		}
	}
	return hit, nil
}
