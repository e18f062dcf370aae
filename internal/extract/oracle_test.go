package extract

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"defectsim/internal/critarea"
	"defectsim/internal/defect"
	"defectsim/internal/fault"
	"defectsim/internal/geom"
	"defectsim/internal/layout"
	"defectsim/internal/netlist"
)

// oracleCircuits are the circuit families the extraction oracles run over:
// c17, the c432-class benchmark, the five small generators and one seed of
// RandomCircuit.
func oracleCircuits() []*netlist.Netlist {
	return []*netlist.Netlist{
		netlist.C17(),
		netlist.C432Class(1994),
		netlist.RippleAdder(8),
		netlist.MuxTree(3),
		netlist.ParityTree(12),
		netlist.Comparator(8),
		netlist.Decoder(3),
		netlist.RandomCircuit("random", 1994, 24, 6, 100),
	}
}

// listDigest hashes everything a fault list carries: kind, nets, instance,
// node and the exact bits of every weight, in list order.
func listDigest(l *fault.List) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(l.Faults)))
	for _, f := range l.Faults {
		put(uint64(f.Kind))
		put(uint64(int64(f.NetA)))
		put(uint64(int64(f.NetB)))
		put(uint64(int64(f.Inst)))
		put(uint64(int64(f.Node)))
		put(math.Float64bits(f.Weight))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestFaultListDigests pins every extracted fault list bit for bit: any
// change to a weight's last bit, to the fault order or to the set of faults
// changes a digest. The digests were recorded with the per-size
// expand-intersect-union critical-area code, so they also pin the one-pass
// curves to it.
func TestFaultListDigests(t *testing.T) {
	want := map[string][2]string{ // circuit -> {Typical, OpensDominant}
		"c17":            {"af6f383e24e85dd3", "3b56c55b79ca58c0"},
		"c432class-1994": {"b5a6dc711d5895f1", "3ebf44426ff8be3e"},
		"add8":           {"ab21408696fe19e8", "e60f760e51a3dbe6"},
		"mux8":           {"3882dd6228dfd157", "37d34a77c1a6a384"},
		"parity12":       {"4bf49aa7cda6a82f", "a4ef27cce22b4e04"},
		"cmp8":           {"e56ae26da8f3d524", "0dca77ba484bb8e4"},
		"dec3":           {"4931682b12745105", "04e365b4930dbda6"},
		"random":         {"458421f66c6350a1", "9943eb4b6b3c1b3f"},
	}
	stats := [2]defect.Statistics{defect.Typical(), defect.OpensDominant()}
	for _, nl := range oracleCircuits() {
		L, err := layout.Build(nl, nil)
		if err != nil {
			t.Fatal(err)
		}
		for si, st := range stats {
			got := listDigest(FaultsObs(L, st, nil))
			if w, ok := want[nl.Name]; !ok || w[si] != got {
				t.Errorf("%s, statistics %d: fault-list digest %s, want %q", nl.Name, si, got, w[si])
			}
		}
	}
}

// TestAvgShortAreaMatchesPerSizeOnLayouts is the pair-level oracle: for
// every net pair of every bridge class the extractor integrates, the
// one-pass AvgShortArea equals Average over the per-size ShortArea bit for
// bit.
func TestAvgShortAreaMatchesPerSizeOnLayouts(t *testing.T) {
	stats := defect.Typical()
	for _, nl := range oracleCircuits() {
		L, err := layout.Build(nl, nil)
		if err != nil {
			t.Fatal(err)
		}
		pairs := 0
		for _, bl := range bridgeLayers {
			cls := stats.Classes[bl.dt]
			forEachNearPair(classShapes(L, bl.layers, nil), stats.MaxSize, func(a, b int, ra, rb []geom.Rect) {
				pairs++
				got := critarea.AvgShortArea(ra, rb, cls.Size, stats.MaxSize)
				want := critarea.Average(cls.Size, stats.MaxSize, func(x int) float64 {
					return critarea.ShortArea(ra, rb, x)
				})
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s %v nets (%d,%d): one-pass %v, per-size %v", nl.Name, bl.dt, a, b, got, want)
				}
			})
		}
		if pairs == 0 {
			t.Errorf("%s: no near net pairs", nl.Name)
		}
	}
}

// TestReceiverBranchOwnerUnique checks that no conducting or cut shape of
// a signal net lies inside the receiver regions of two branches of its
// net. extractOpens gives a shape to the first containing branch in pin
// order; uniqueness makes that the only branch any order could pick.
func TestReceiverBranchOwnerUnique(t *testing.T) {
	for _, nl := range oracleCircuits() {
		L, err := layout.Build(nl, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, byNet := receiverBranches(L)
		owned := 0
		for _, sh := range L.Shapes.Shapes {
			isCut := sh.Layer == geom.LayerContact || sh.Layer == geom.LayerVia
			if sh.Net <= layout.NetVDD || (!isCut && !sh.Layer.Conducting()) {
				continue
			}
			owner := -1
			for _, br := range byNet[sh.Net] {
				if !br.rect.ContainsRect(sh.Rect) {
					continue
				}
				if owner >= 0 && br.key != owner {
					t.Errorf("%s: %v shape %v of net %d lies in branches %d and %d", nl.Name, sh.Layer, sh.Rect, sh.Net, owner, br.key)
				}
				owner = br.key
			}
			if owner >= 0 {
				owned++
			}
		}
		if owned == 0 {
			t.Errorf("%s: no shape lies in a receiver branch", nl.Name)
		}
	}
}
