package atpg

import (
	"context"
	"strings"
	"testing"

	"defectsim/internal/fault"
	"defectsim/internal/gatesim"
	"defectsim/internal/netlist"
)

// TestCoverageCountsPrecedence is the regression test for the
// Coverage/Counts disagreement: both must apply the same per-fault
// precedence Detected > Untestable > Aborted. The detected+untestable row
// fails on the pre-fix Coverage, which excluded any untestable fault even
// when the random phase had already detected it.
func TestCoverageCountsPrecedence(t *testing.T) {
	// Four faults, one per outcome combination that matters:
	//   0: detected only
	//   1: detected AND marked untestable (random hit + redundant target)
	//   2: untestable only
	//   3: aborted only
	ts := &TestSet{
		DetectedAt: []int{3, 5, 0, 0},
		Untestable: []bool{false, true, true, false},
		Aborted:    []bool{false, false, false, true},
	}
	det, unt, ab := ts.Counts()
	if det != 2 || unt != 1 || ab != 1 {
		t.Fatalf("Counts() = (%d,%d,%d), want (2,1,1)", det, unt, ab)
	}
	// All faults in the denominator: 2 detected out of 4.
	if got := ts.Coverage(false); got != 0.5 {
		t.Fatalf("Coverage(false) = %v, want 0.5", got)
	}
	// excludeUntestable removes only fault 2 (untestable and undetected);
	// fault 1 stays because detection takes precedence: 2/3.
	if got, want := ts.Coverage(true), 2.0/3.0; got != want {
		t.Fatalf("Coverage(true) = %v, want %v (detected-wins precedence)", got, want)
	}
	// The two views must agree: Coverage(false) == det / total.
	if got, want := ts.Coverage(false), float64(det)/4; got != want {
		t.Fatalf("Coverage(false) = %v disagrees with Counts detected %v", got, want)
	}
}

// TestCompactNPreservesMultiplicity is the property test: for n up to 4,
// compacting with CompactN preserves every fault's detection multiplicity
// capped at n — the compacted set's DetectCounts match the original's
// after both are capped.
func TestCompactNPreservesMultiplicity(t *testing.T) {
	for _, nl := range []*netlist.Netlist{
		netlist.C432Class(1994),
		netlist.RandomCircuit("cmp-rnd", 23, 12, 6, 140),
	} {
		nl := nl
		t.Run(nl.Name, func(t *testing.T) {
			faults := fault.StuckAtUniverse(nl)
			patterns := gatesim.RandomPatterns(nl, 160, 9)
			for n := 1; n <= 4; n++ {
				orig, err := gatesim.SimulateFaultsNCtx(context.Background(), nl, faults, patterns, n, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				compacted, err := CompactN(nl, faults, patterns, n)
				if err != nil {
					t.Fatal(err)
				}
				if len(compacted) > len(patterns) {
					t.Fatalf("n=%d: compaction grew the set (%d > %d)", n, len(compacted), len(patterns))
				}
				after, err := gatesim.SimulateFaultsNCtx(context.Background(), nl, faults, compacted, n, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				for i := range faults {
					if after.DetectCounts[i] != orig.DetectCounts[i] {
						t.Fatalf("n=%d fault %d: multiplicity %d after compaction, %d before",
							n, i, after.DetectCounts[i], orig.DetectCounts[i])
					}
				}
			}
		})
	}
}

// TestCompactNOneMatchesCompact: classical compaction is exactly the n=1
// case of the multiplicity-aware algorithm.
func TestCompactNOneMatchesCompact(t *testing.T) {
	nl := netlist.C432Class(1994)
	faults := fault.StuckAtUniverse(nl)
	patterns := gatesim.RandomPatterns(nl, 128, 4)
	a, err := Compact(nl, faults, patterns)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompactN(nl, faults, patterns, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("Compact kept %d patterns, CompactN(1) kept %d", len(a), len(b))
	}
	for i := range a {
		if string(a[i]) != string(b[i]) {
			t.Fatalf("pattern %d differs between Compact and CompactN(1)", i)
		}
	}
}

func TestCompactNRejectsBadN(t *testing.T) {
	nl := netlist.C17()
	if _, err := CompactN(nl, fault.StuckAtUniverse(nl), nil, 0); err == nil {
		t.Fatal("CompactN accepted n=0")
	}
}

// TestBuildNDetectTestSet: the builder pushes every testable fault it
// does not give up on to n detections, appends only distinct vectors,
// and its counts agree with an independent counting fault simulation of
// the final set.
func TestBuildNDetectTestSet(t *testing.T) {
	nl := netlist.C432Class(1994)
	faults := fault.StuckAtUniverse(nl)
	base, err := BuildTestSetWorkersCtx(context.Background(), nl, faults, 64, 1994, 2000, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	s, err := BuildNDetectTestSet(context.Background(), nl, faults, base.Patterns, base.Untestable, n, 2000, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Incomplete {
		t.Fatal("set marked Incomplete without cancellation")
	}
	if s.RandomCount != len(base.Patterns) || len(s.Patterns) < s.RandomCount {
		t.Fatalf("RandomCount %d, |Patterns| %d, base had %d", s.RandomCount, len(s.Patterns), len(base.Patterns))
	}
	// Every testable fault ends at n detections, untestable, or aborted.
	for i := range faults {
		if s.DetectCounts[i] < n && !s.Untestable[i] && !s.Aborted[i] {
			t.Fatalf("fault %d left at %d < %d detections, neither untestable nor aborted",
				i, s.DetectCounts[i], n)
		}
	}
	// Appended vectors are pairwise distinct and distinct from the base.
	seen := map[string]bool{}
	for _, p := range s.Patterns[:s.RandomCount] {
		seen[string(p)] = true
	}
	for k, p := range s.Patterns[s.RandomCount:] {
		if seen[string(p)] {
			t.Fatalf("appended vector %d duplicates an earlier vector", k)
		}
		seen[string(p)] = true
	}
	// Counts agree with an independent counting sim of the final set.
	res, err := gatesim.SimulateFaultsNCtx(context.Background(), nl, faults, s.Patterns, n, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range faults {
		if s.DetectCounts[i] != res.DetectCounts[i] {
			t.Fatalf("fault %d: builder says %d detections, resimulation says %d",
				i, s.DetectCounts[i], res.DetectCounts[i])
		}
		if s.DetectedAt[i] != res.NthDetectedAt[i] {
			t.Fatalf("fault %d: builder DetectedAt %d, resimulation NthDetectedAt %d",
				i, s.DetectedAt[i], res.NthDetectedAt[i])
		}
	}
	// The study's monotonicity source: growing n never shrinks the set.
	s2, err := BuildNDetectTestSet(context.Background(), nl, faults, s.Patterns, base.Untestable, n+1, 2000, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Patterns) < len(s.Patterns) {
		t.Fatalf("|T(%d)| = %d < |T(%d)| = %d", n+1, len(s2.Patterns), n, len(s.Patterns))
	}
	if got := s.Coverage(true); got <= 0 || got > 1 {
		t.Fatalf("Coverage(true) = %v out of range", got)
	}
	if det, _, _ := s.Counts(); det == 0 {
		t.Fatal("no fault reached n detections")
	}
}

// TestBuildNDetectTestSetCancellation: an already-cancelled context yields
// an Incomplete set and the context error.
func TestBuildNDetectTestSetCancellation(t *testing.T) {
	nl := netlist.C432Class(1994)
	faults := fault.StuckAtUniverse(nl)
	base := gatesim.RandomPatterns(nl, 16, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := BuildNDetectTestSet(ctx, nl, faults, base, nil, 2, 2000, 0, nil)
	if err == nil {
		t.Fatal("cancelled build returned nil error")
	}
	if s == nil || !s.Incomplete {
		t.Fatalf("cancelled build: set %+v, want non-nil Incomplete", s)
	}
}

func TestBuildNDetectTestSetRejectsBadN(t *testing.T) {
	nl := netlist.C17()
	if _, err := BuildNDetectTestSet(context.Background(), nl, fault.StuckAtUniverse(nl), nil, nil, 0, 100, 0, nil); err == nil {
		t.Fatal("accepted n=0")
	}
}

// TestAbortedMeansShortOfN pins the builder's give-up rule over the
// digest circuits, n = 1…4, grown from a 16-vector random prefix: no
// fault is both given up (Aborted) and at N detections — a later vector
// that brings a given-up fault to N clears its flag — and in a complete
// build every fault short of N is untestable or given up.
func TestAbortedMeansShortOfN(t *testing.T) {
	for _, nl := range digestCircuits() {
		if raceEnabled && (strings.HasPrefix(nl.Name, "c432class") || nl.Name == "random") {
			continue
		}
		faults := fault.StuckAtUniverse(nl)
		prefix := gatesim.RandomPatterns(nl, 16, 1994)
		for n := 1; n <= 4; n++ {
			s, err := BuildNDetectTestSet(context.Background(), nl, faults, prefix, nil, n, 1000, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, f := range faults {
				if s.Aborted[i] && s.DetectCounts[i] >= n {
					t.Errorf("%s n=%d: fault %v given up with %d detections", nl.Name, n, f, s.DetectCounts[i])
				}
				if s.DetectCounts[i] < n && !s.Untestable[i] && !s.Aborted[i] {
					t.Errorf("%s n=%d: fault %v left at %d detections, neither untestable nor given up", nl.Name, n, f, s.DetectCounts[i])
				}
			}
		}
	}
}
