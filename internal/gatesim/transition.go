package gatesim

import (
	"defectsim/internal/fault"
	"defectsim/internal/netlist"
)

// Transition-fault (gross-delay) simulation — the "delay fault testing"
// detection technique the paper points to (ref. [8], Park/Mercer/Williams)
// as one way to push the coverage ceiling Θmax toward 1.
//
// The classical transition fault on a line is one-to-one with a stuck-at
// fault plus a launch condition: a slow-to-rise fault on line L behaves as
// L stuck-at-0 on the capture vector, provided the previous vector set L
// to 0 (the launch). A consecutive vector pair (v_{k−1}, v_k) therefore
// detects the transition fault associated with stuck-at fault f iff
//
//	value(L, v_{k−1}) = f.Value   (launch: line starts at the slow value)
//	v_k detects f                  (capture: stuck-at detection)
//
// SimulateTransitions scores the whole stuck-at universe under this
// two-pattern criterion, reusing the 64-way parallel-pattern machinery.

// SimulateTransitions runs transition-fault simulation for the transition
// faults corresponding to saFaults over consecutive pattern pairs. The
// result's DetectedAt[i] is the 1-based index of the first *capture*
// vector (necessarily ≥ 2), or 0 when the pair sequence never detects it.
//
// Capture-index accounting: the transition simulator has no early-stop
// path (no context, no fault injection), so a returned Result always
// covers the whole pattern sequence and reports VectorsApplied =
// len(patterns); every capture index is ≤ that bound by construction, and
// Coverage(k) clamps against it like any other campaign result.
func SimulateTransitions(nl *netlist.Netlist, saFaults []fault.StuckAt, patterns []Pattern) (*Result, error) {
	sim, err := newSimulator(nl, patterns)
	if err != nil {
		return nil, err
	}
	res := &Result{DetectedAt: make([]int, len(saFaults))}
	live := make([]int, 0, len(saFaults))
	for i := range saFaults {
		live = append(live, i)
	}

	bs := sim.newBlockState()
	// prevBit[i] = 1 when fault i's site carried the slow (stuck) value on
	// the last pattern of the previous block; undefined before the first
	// pattern (no launch possible at k = 1).
	prevBit := make([]uint64, len(saFaults))
	havePrev := false

	for base := 0; base < len(patterns) && len(live) > 0; base += 64 {
		sim.load(bs, patterns, base)
		keep := live[:0]
		for _, fi := range live {
			f := &saFaults[fi]
			want := uint64(0)
			if f.Value == 1 {
				want = ^uint64(0)
			}
			site := bs.goodAll[f.Net]
			atSlow := ^(site ^ want) // bit b: site carries the slow value on pattern base+b
			// Launch mask: slow value on the *previous* pattern.
			launch := atSlow << 1
			if havePrev {
				launch |= prevBit[fi]
			}
			prevBit[fi] = (atSlow >> uint(bs.nBlock-1)) & 1

			// Capture: stuck-at detection on the current pattern.
			if (site^want)&bs.mask == 0 {
				// Site never leaves the slow value: no capture possible.
				keep = append(keep, fi)
				continue
			}
			fv := sim.eval(bs.piWords, f)
			var diff uint64
			for i, po := range nl.POs {
				diff |= (fv[po] ^ bs.goodPO[i]) & bs.mask
			}
			hit := diff & launch & bs.mask
			if hit == 0 {
				keep = append(keep, fi)
				continue
			}
			for b := 0; b < bs.nBlock; b++ {
				if hit&(1<<uint(b)) != 0 {
					res.DetectedAt[fi] = base + b + 1
					break
				}
			}
		}
		// prevBit must be maintained for dropped faults too; it already is
		// (we updated it before the detection check).
		live = keep
		havePrev = true
	}
	res.VectorsApplied = len(patterns)
	return res, nil
}
