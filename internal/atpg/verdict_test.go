package atpg

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"defectsim/internal/fault"
	"defectsim/internal/gatesim"
	"defectsim/internal/netlist"
)

// verdictOracle enumerates every input pattern of a small circuit: which
// patterns detect each fault, and each net's good value under each. It
// judges the search's verdicts independently of the search.
type verdictOracle struct {
	detect [][]uint64 // per fault: bitset over patterns that detect it
	good   [][]uint64 // per net: bitset over patterns that set it to 1
}

// newVerdictOracle simulates all 2^PIs patterns of nl; pattern k sets PI
// i to bit i of k.
func newVerdictOracle(t testing.TB, nl *netlist.Netlist, faults []fault.StuckAt) *verdictOracle {
	t.Helper()
	nPI := len(nl.PIs)
	pats := make([]gatesim.Pattern, 1<<nPI)
	for k := range pats {
		p := make(gatesim.Pattern, nPI)
		for i := range p {
			p[i] = uint8(k >> i & 1)
		}
		pats[k] = p
	}
	sigs, err := gatesim.Signatures(nl, faults, pats)
	if err != nil {
		t.Fatal(err)
	}
	words := (len(pats) + 63) / 64
	o := &verdictOracle{detect: make([][]uint64, len(faults)), good: make([][]uint64, nl.NumNets())}
	for fi, sig := range sigs {
		o.detect[fi] = make([]uint64, words)
		for _, fl := range sig {
			o.detect[fi][fl.Vector/64] |= 1 << (fl.Vector % 64)
		}
	}
	for n := range o.good {
		o.good[n] = make([]uint64, words)
	}
	pis := make([]uint64, nPI)
	for w := 0; w < words; w++ {
		for i := range pis {
			pis[i] = 0
			for b := 0; b < 64; b++ {
				if (w*64+b)>>i&1 == 1 {
					pis[i] |= 1 << b
				}
			}
		}
		vals, err := nl.Eval(pis)
		if err != nil {
			t.Fatal(err)
		}
		for n, v := range vals {
			o.good[n][w] = v
		}
	}
	return o
}

// check judges one verdict for fault fi under constraints: a detecting
// pattern must detect the fault and meet every constraint, and an
// untestable verdict must leave no pattern that does both.
func (o *verdictOracle) check(t testing.TB, what string, fi int, constraints []Assign, pat gatesim.Pattern, status Status) {
	t.Helper()
	switch status {
	case StatusDetected:
		k := 0
		for i, b := range pat {
			k |= int(b) << i
		}
		if o.detect[fi][k/64]>>(k%64)&1 == 0 {
			t.Errorf("%s: pattern %v does not detect the fault", what, pat)
		}
		for _, c := range constraints {
			if (o.good[c.Net][k/64]>>(k%64)&1 == 1) != (c.Value == L1) {
				t.Errorf("%s: pattern %v violates net %d = %v", what, pat, c.Net, c.Value)
			}
		}
	case StatusUntestable:
		for w, m := range o.detect[fi] {
			for _, c := range constraints {
				g := o.good[c.Net][w]
				if c.Value == L0 {
					g = ^g
				}
				m &= g
			}
			if m != 0 {
				t.Errorf("%s: verdict untestable, but pattern %d detects the fault under the constraints", what, w*64+bits.TrailingZeros64(m))
				return
			}
		}
	default:
		t.Errorf("%s: verdict %v with a backtrack limit the decision tree cannot reach", what, status)
	}
}

// exhaustiveLimit is a backtrack limit no search on nl can reach: every
// backtrack flips a distinct decision, and the decision tree over nPI
// inputs has fewer than 2^nPI of them. Aborts are thus ruled out.
func exhaustiveLimit(nl *netlist.Netlist) int { return 1 << len(nl.PIs) }

// verdictCircuits are the small circuits (at most 12 PIs) of
// TestPODEMVerdictsExhaustive.
func verdictCircuits() []*netlist.Netlist {
	out := []*netlist.Netlist{
		netlist.C17(),
		netlist.RippleAdder(4),
		netlist.MuxTree(3),
		netlist.ParityTree(8),
		netlist.Comparator(4),
		netlist.Decoder(3),
	}
	for seed := 1; seed <= 20; seed++ {
		out = append(out, netlist.RandomCircuit(fmt.Sprintf("random-%d", seed), int64(seed), 4+seed%9, 1+seed%4, 10+3*seed))
	}
	return out
}

// TestPODEMVerdictsExhaustive checks every verdict of the search against
// all input patterns: each stuck-at fault of each small circuit is tried
// plainly and under one random net = value constraint, with a backtrack
// limit the search cannot reach, so every verdict is a claim the
// enumeration can refute.
func TestPODEMVerdictsExhaustive(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1994))
	var verdicts [2][3]int // [plain, constrained][status]
	for _, nl := range verdictCircuits() {
		faults := fault.StuckAtUniverse(nl)
		o := newVerdictOracle(t, nl, faults)
		gen, err := NewGenerator(nl)
		if err != nil {
			t.Fatal(err)
		}
		limit := exhaustiveLimit(nl)
		for fi, f := range faults {
			pat, status := gen.GenerateCtx(ctx, f, limit)
			o.check(t, fmt.Sprintf("%s %v", nl.Name, f), fi, nil, pat, status)
			verdicts[0][status]++

			c := []Assign{{Net: rng.Intn(nl.NumNets()), Value: L0 + V3(rng.Intn(2))}}
			pat, status = gen.GenerateConstrained(ctx, f, c, limit)
			o.check(t, fmt.Sprintf("%s %v under %v", nl.Name, f, c), fi, c, pat, status)
			verdicts[1][status]++
		}
	}
	t.Logf("plain: %d detected, %d untestable; constrained: %d detected, %d untestable",
		verdicts[0][0], verdicts[0][1], verdicts[1][0], verdicts[1][1])
	for i, v := range verdicts {
		if v[StatusDetected] == 0 || v[StatusUntestable] == 0 {
			t.Errorf("search %d: verdicts %v; the oracle must judge both kinds", i, v)
		}
	}
}

// FuzzPODEM judges the search's verdict for one fault of a fuzzed small
// random circuit, with or without a net = value constraint, against all
// input patterns.
func FuzzPODEM(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(1), uint8(20), uint16(3), false, uint16(0), false)
	f.Add(int64(7), uint8(9), uint8(2), uint8(40), uint16(17), true, uint16(12), true)
	f.Add(int64(42), uint8(3), uint8(0), uint8(8), uint16(5), true, uint16(4), false)
	f.Fuzz(func(t *testing.T, seed int64, pis, pos, gates uint8, fi uint16, constrain bool, net uint16, one bool) {
		nl := netlist.RandomCircuit("fuzz", seed, 1+int(pis%10), 1+int(pos%4), 1+int(gates%48))
		faults := fault.StuckAtUniverse(nl)
		k := int(fi) % len(faults)
		o := newVerdictOracle(t, nl, faults[k:k+1])
		gen, err := NewGenerator(nl)
		if err != nil {
			t.Fatal(err)
		}
		var constraints []Assign
		if constrain {
			c := Assign{Net: int(net) % nl.NumNets(), Value: L0}
			if one {
				c.Value = L1
			}
			constraints = []Assign{c}
		}
		pat, status := gen.GenerateConstrained(context.Background(), faults[k], constraints, exhaustiveLimit(nl))
		o.check(t, fmt.Sprintf("%v under %v", faults[k], constraints), 0, constraints, pat, status)
	})
}
