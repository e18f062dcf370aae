package atpg

import (
	"context"
	"fmt"

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
// realistic coverage Θ (eq. 9).

// NDetectSet is the outcome of BuildNDetectTestSet: a base test set plus
// appended top-up vectors, with per-fault detection multiplicity.
type NDetectSet struct {
	// N is the target detection multiplicity.
	N int
	// Patterns holds the base set followed by the appended top-up
	// vectors. Appended vectors are pairwise distinct and distinct from
	// every base vector; the base is taken as-is (it may contain
	// duplicate random stimuli, each of which earns its own credit —
	// counts are per applied vector, matching gatesim counting mode).
	Patterns []gatesim.Pattern
	// BaseCount is how many leading patterns came from the base set.
	BaseCount int
	// DetectCounts[i] is fault i's detection count, capped at N.
	DetectCounts []int
	// NthDetectedAt[i] is the 1-based index of the vector supplying the
	// N-th detection, 0 when fault i never reached N detections.
	NthDetectedAt []int
	// Untestable marks faults proven redundant (carried in from the base
	// build or discovered during top-up generation).
	Untestable []bool
	// Saturated marks testable faults the top-up could not push to N
	// detections: the generator found no further distinct detecting
	// vector (exhausted search, or aborted at the backtrack limit; a
	// search cut by cancellation saturates nothing).
	Saturated []bool
	// Incomplete marks a set whose top-up stopped early on cancellation
	// or budget expiry.
	Incomplete bool
}

// Added returns the number of top-up vectors appended to the base set.
func (s *NDetectSet) Added() int { return len(s.Patterns) - s.BaseCount }

// FullyDetected returns how many faults reached N detections.
func (s *NDetectSet) FullyDetected() int {
	n := 0
	for _, c := range s.DetectCounts {
		if c >= s.N {
			n++
		}
	}
	return n
}

// Coverage returns the fraction of faults detected N times, over testable
// faults if excludeUntestable, else over all faults. Precedence matches
// TestSet.Coverage: a fault that reached N detections counts as covered
// even if also marked untestable.
func (s *NDetectSet) Coverage(excludeUntestable bool) float64 {
	det, tot := 0, 0
	for i, c := range s.DetectCounts {
		if excludeUntestable && s.Untestable[i] && c < s.N {
			continue
		}
		tot++
		if c >= s.N {
			det++
		}
	}
	if tot == 0 {
		return 0
	}
	return float64(det) / float64(tot)
}

// BuildNDetectTestSet grows base into an n-detect test set: every fault
// with fewer than n detections under base (counted by the gatesim
// counting mode) is targeted with deterministic generation until it
// reaches n distinct detecting vectors, is proven untestable, or the
// search saturates. Each accepted vector is fault-simulated against every
// still-short fault so cross-detection credit accrues and later targets
// need fewer vectors.
//
// Distinctness is forced through GenerateConstrained: when the plain
// PODEM solution duplicates an existing vector, the generator is re-run
// with one primary input constrained to the opposite value, scanning PIs
// until a fresh detecting vector appears. untestable carries prior
// knowledge from the base build (nil means none). The context is checked
// between faults, between PI flips and inside every search; when it ends
// mid-build the partial set is returned marked Incomplete together with
// the context's error, and the fault whose search it cut is not marked
// Saturated.
func BuildNDetectTestSet(ctx context.Context, nl *netlist.Netlist, faults []fault.StuckAt, base []gatesim.Pattern, untestable []bool, n, backtrackLimit, workers int, tr *obs.Tracer) (*NDetectSet, error) {
	if n < 1 {
		return nil, fmt.Errorf("atpg: n-detect requires n >= 1, got %d", n)
	}
	reg := tr.Metrics()
	gen, err := NewGenerator(nl)
	if err != nil {
		return nil, err
	}
	gen.Instrument(reg)

	s := &NDetectSet{
		N:             n,
		Patterns:      append([]gatesim.Pattern(nil), base...),
		BaseCount:     len(base),
		DetectCounts:  make([]int, len(faults)),
		NthDetectedAt: make([]int, len(faults)),
		Untestable:    make([]bool, len(faults)),
		Saturated:     make([]bool, len(faults)),
	}
	if untestable != nil {
		copy(s.Untestable, untestable)
	}

	sp := tr.StartSpan("ndetect-base-sim")
	res, err := gatesim.SimulateFaultsNCtx(ctx, nl, faults, base, n, workers, reg)
	if err != nil {
		sp.End()
		s.Incomplete = true
		copy(s.DetectCounts, res.DetectCounts)
		copy(s.NthDetectedAt, res.NthDetectedAt)
		return s, err
	}
	copy(s.DetectCounts, res.DetectCounts)
	copy(s.NthDetectedAt, res.NthDetectedAt)
	sp.End()

	seen := make(map[string]bool, len(base))
	for _, p := range base {
		seen[string(p)] = true
	}

	// credit fault-simulates one accepted vector (already appended at
	// 1-based index k) against every still-short fault.
	credit := func(pat gatesim.Pattern, k int) error {
		var rem []fault.StuckAt
		var remIdx []int
		for j := range faults {
			if s.DetectCounts[j] < n && !s.Untestable[j] {
				rem = append(rem, faults[j])
				remIdx = append(remIdx, j)
			}
		}
		r, err := gatesim.SimulateFaultsCtx(ctx, nl, rem, []gatesim.Pattern{pat}, workers, reg)
		if err != nil {
			return err
		}
		for jj, d := range r.DetectedAt {
			if d == 0 {
				continue
			}
			fi := remIdx[jj]
			s.DetectCounts[fi]++
			if s.DetectCounts[fi] == n {
				s.NthDetectedAt[fi] = k
			}
		}
		return nil
	}

	// freshPattern searches for a detecting vector for f not yet in the
	// set: plain generation first, then PI-flip constrained re-runs until
	// one succeeds or the context ends.
	freshPattern := func(f fault.StuckAt) (gatesim.Pattern, Status) {
		pat, status := gen.GenerateCtx(ctx, f, backtrackLimit)
		if status != StatusDetected {
			return nil, status
		}
		if !seen[string(pat)] {
			return pat, StatusDetected
		}
		for p, pi := range nl.PIs {
			if ctx.Err() != nil {
				break
			}
			want := L1
			if pat[p] != 0 {
				want = L0
			}
			cpat, cst := gen.GenerateConstrained(ctx, f, []Assign{{Net: pi, Value: want}}, backtrackLimit)
			if cst == StatusDetected && !seen[string(cpat)] {
				return cpat, StatusDetected
			}
		}
		return nil, StatusAborted
	}

	sp = tr.StartSpan("ndetect-topup")
	defer sp.End()
	mPatterns := reg.Counter("atpg_ndetect_patterns")
	mSaturated := reg.Counter("atpg_ndetect_saturated")
	for i := range faults {
		if s.Untestable[i] {
			continue
		}
		for s.DetectCounts[i] < n {
			if err := faultinject.Fire(ctx, faultinject.HookATPGFault); err != nil {
				s.Incomplete = true
				return s, err
			}
			if err := ctx.Err(); err != nil {
				s.Incomplete = true
				return s, err
			}
			pat, status := freshPattern(faults[i])
			if status == StatusUntestable {
				s.Untestable[i] = true
				break
			}
			if status != StatusDetected {
				// A search cut by cancellation proves nothing: the
				// fault is left unsaturated in an Incomplete set.
				if err := ctx.Err(); err != nil {
					s.Incomplete = true
					return s, err
				}
				s.Saturated[i] = true
				mSaturated.Inc()
				break
			}
			seen[string(pat)] = true
			s.Patterns = append(s.Patterns, pat)
			mPatterns.Inc()
			if err := credit(pat, len(s.Patterns)); err != nil {
				s.Incomplete = true
				return s, err
			}
			if s.DetectCounts[i] == 0 {
				return nil, fmt.Errorf("atpg: n-detect pattern for %v does not detect it", faults[i])
			}
		}
	}
	return s, nil
}
