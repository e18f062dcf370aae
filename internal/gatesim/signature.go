package gatesim

import (
	"fmt"

	"defectsim/internal/fault"
	"defectsim/internal/netlist"
)

// Fail records one failing observation: primary-output failures (bit i set
// = PO i differs from the good machine) on one vector.
type Fail struct {
	Vector int    // 0-based vector index
	POMask uint64 // failing outputs
}

// Signatures simulates every fault against the full pattern set *without*
// fault dropping and returns, per fault, the complete list of failing
// observations — the raw material of a fault dictionary. Faults with an
// empty list are undetected by the set.
func Signatures(nl *netlist.Netlist, faults []fault.StuckAt, patterns []Pattern) ([][]Fail, error) {
	if len(nl.POs) > 64 {
		return nil, fmt.Errorf("gatesim: signature masks support ≤ 64 POs, circuit has %d", len(nl.POs))
	}
	sim, err := newSimulator(nl, patterns)
	if err != nil {
		return nil, err
	}
	sigs := make([][]Fail, len(faults))
	bs := sim.newBlockState()

	for base := 0; base < len(patterns); base += 64 {
		sim.load(bs, patterns, base)
		for fi := range faults {
			f := &faults[fi]
			site := bs.goodAll[f.Net]
			want := uint64(0)
			if f.Value == 1 {
				want = ^uint64(0)
			}
			if (site^want)&bs.mask == 0 {
				continue // never activated in this block
			}
			fv := sim.eval(bs.piWords, f)
			// Per-vector PO failure masks.
			var anyDiff uint64
			poDiff := make([]uint64, len(nl.POs))
			for i, po := range nl.POs {
				poDiff[i] = (fv[po] ^ bs.goodPO[i]) & bs.mask
				anyDiff |= poDiff[i]
			}
			for b := 0; anyDiff != 0 && b < bs.nBlock; b++ {
				bit := uint64(1) << uint(b)
				if anyDiff&bit == 0 {
					continue
				}
				var pm uint64
				for i := range poDiff {
					if poDiff[i]&bit != 0 {
						pm |= 1 << uint(i)
					}
				}
				sigs[fi] = append(sigs[fi], Fail{Vector: base + b, POMask: pm})
			}
		}
	}
	return sigs, nil
}
