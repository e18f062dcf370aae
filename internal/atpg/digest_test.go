package atpg

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"defectsim/internal/fault"
	"defectsim/internal/gatesim"
	"defectsim/internal/netlist"
)

// digestCircuits are the circuits whose generator outputs
// TestATPGOutputDigests pins.
func digestCircuits() []*netlist.Netlist {
	return []*netlist.Netlist{
		netlist.C17(),
		netlist.RippleAdder(4),
		netlist.MuxTree(3),
		netlist.ParityTree(8),
		netlist.Comparator(4),
		netlist.Decoder(3),
		netlist.C432Class(1994),
		netlist.C432Class(3),
		netlist.RandomCircuit("random", 1994, 24, 6, 100),
	}
}

// digest accumulates values and prints the first 16 hex digits of their
// sha256.
type digest struct{ h []byte }

func (d *digest) put(v int) {
	d.h = binary.LittleEndian.AppendUint64(d.h, uint64(int64(v)))
}

func (d *digest) flag(b bool) {
	if b {
		d.put(1)
	} else {
		d.put(0)
	}
}

func (d *digest) patterns(ps []gatesim.Pattern) {
	d.put(len(ps))
	for _, p := range ps {
		d.put(len(p))
		d.h = append(d.h, p...)
	}
}

func (d *digest) String() string {
	sum := sha256.Sum256(d.h)
	return hex.EncodeToString(sum[:])[:16]
}

// atpgDigests returns the digests of nl's test set, of its n-detect sets
// for n = 1…4 grown from the test set's random prefix, and of the bridge
// patterns over a fixed list of net pairs.
func atpgDigests(t *testing.T, nl *netlist.Netlist) [3]string {
	t.Helper()
	const (
		nRandom = 16
		limit   = 1000
	)
	ctx := context.Background()
	faults := fault.StuckAtUniverse(nl)
	ts, err := BuildTestSetWorkersCtx(ctx, nl, faults, nRandom, 1994, limit, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var set digest
	set.patterns(ts.Patterns)
	for i := range faults {
		set.put(ts.DetectedAt[i])
		set.flag(ts.Untestable[i])
		set.flag(ts.Aborted[i])
	}

	var nd digest
	for n := 1; n <= 4; n++ {
		s, err := BuildNDetectTestSet(ctx, nl, faults, ts.Patterns[:ts.RandomCount], ts.Untestable, n, limit, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		nd.patterns(s.Patterns)
		for i := range faults {
			nd.put(s.DetectCounts[i])
			nd.put(s.DetectedAt[i])
			nd.flag(s.Untestable[i])
			nd.flag(s.Aborted[i])
		}
	}

	gen, err := NewGenerator(nl)
	if err != nil {
		t.Fatal(err)
	}
	var br digest
	nets := nl.NumNets()
	for k := 0; k < 24; k++ {
		a, b := k*7%nets, (k*13+5)%nets
		if a == b {
			continue
		}
		br.put(a)
		br.put(b)
		br.patterns(gen.GenerateBridge(ctx, a, b, limit))
	}
	return [3]string{set.String(), nd.String(), br.String()}
}

// TestATPGOutputDigests pins the generator's outputs bit for bit: test
// sets, n-detect sets and bridge patterns. The digests were recorded with
// separate plain and constrained PODEM loops, so they also pin the one
// search to both.
func TestATPGOutputDigests(t *testing.T) {
	want := map[string][3]string{ // circuit -> {test set, n-detect sets, bridge patterns}
		"c17":            {"dbad94bcd9825bc0", "6d3c605d098712a6", "2e04e706073f2d57"},
		"add4":           {"2dbaaf94ff336003", "504260df10cefc4e", "59ed74543ffba21c"},
		"mux8":           {"172c6e7657035227", "5ad61392777bfd2a", "2873fe502979d01a"},
		"parity8":        {"09844f05d3b2e64e", "745d85b8bde8baec", "fa630a929cc825aa"},
		"cmp4":           {"dbb0d9894efc41f0", "29ac4b95bbbfcdfa", "6c8045c3be435b62"},
		"dec3":           {"8eb810b9c876a913", "1b9198548cad8493", "33fb18df4236d33d"},
		"c432class-1994": {"40d4430c74377ba5", "cf06eef88dede4e6", "74ff0ed79187701a"},
		"c432class-3":    {"6b6c6a015207d42f", "c6123628264a0de2", "068b23fe11c9f32e"},
		"random":         {"f62ba208b8d296cf", "187b94660f8ef38b", "2b494cc056e0dafc"},
	}
	for _, nl := range digestCircuits() {
		got := atpgDigests(t, nl)
		if w, ok := want[nl.Name]; !ok || w != got {
			t.Errorf("%s: digests %q, want %q", nl.Name, got, w)
		}
	}
}
