package gatesim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"defectsim/internal/fault"
	"defectsim/internal/faultinject"
	"defectsim/internal/netlist"
	"defectsim/internal/obs"
)

// workerCounts are the sharding configurations the property tests compare
// against the serial reference: explicit counts, NumCPU, and the <= 0
// values that normalize to NumCPU under the internal/par policy.
func workerCounts() []int {
	return []int{2, 4, runtime.NumCPU(), 0, -3}
}

// TestParallelBitwiseIdenticalToSerial is the core property of the
// fault-parallel engine: SimulateFaultsCtx produces the exact same
// DetectedAt slice — and the same order-independent counters — for every
// worker count, on circuits large enough that the live list really shards.
func TestParallelBitwiseIdenticalToSerial(t *testing.T) {
	circuits := []*netlist.Netlist{
		netlist.C17(),
		netlist.C432Class(1994),
		netlist.RandomCircuit("par-rnd", 42, 16, 8, 220),
	}
	for _, nl := range circuits {
		nl := nl
		t.Run(nl.Name, func(t *testing.T) {
			faults := fault.StuckAtUniverse(nl)
			patterns := RandomPatterns(nl, 256, 7)

			serialReg := obs.NewRegistry()
			serial, err := SimulateFaultsCtx(context.Background(), nl, faults, patterns, 1, serialReg)
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}
			if serial.Detected() == 0 {
				t.Fatalf("serial run detected nothing; test circuit too weak")
			}
			for _, w := range workerCounts() {
				reg := obs.NewRegistry()
				par, err := SimulateFaultsCtx(context.Background(), nl, faults, patterns, w, reg)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				for i := range serial.DetectedAt {
					if par.DetectedAt[i] != serial.DetectedAt[i] {
						t.Fatalf("workers=%d: fault %d detected at %d, serial says %d",
							w, i, par.DetectedAt[i], serial.DetectedAt[i])
					}
				}
				// The tallies are order-independent sums, so they must
				// agree too (gatesim_parallel_blocks legitimately differs).
				for _, name := range []string{
					"gatesim_blocks", "gatesim_fault_evals",
					"gatesim_activation_skips", "gatesim_faults_dropped",
				} {
					if got, want := reg.Counter(name).Value(), serialReg.Counter(name).Value(); got != want {
						t.Errorf("workers=%d: %s = %d, serial %d", w, name, got, want)
					}
				}
			}
		})
	}
}

// TestParallelPartialResultDeterministic stops the campaign at a fixed
// 64-pattern block via fault injection and checks that the partial result
// handed back with the error is also identical for every worker count.
func TestParallelPartialResultDeterministic(t *testing.T) {
	nl := netlist.C432Class(1994)
	faults := fault.StuckAtUniverse(nl)
	patterns := RandomPatterns(nl, 256, 7)
	boom := errors.New("injected block failure")

	runStopped := func(w int) *Result {
		t.Helper()
		// The hook fires once per block; pass two blocks, fail the third.
		restore := faultinject.Set(faultinject.HookGateSimBlock,
			faultinject.After(3, faultinject.Fail(boom)))
		defer restore()
		res, err := SimulateFaultsCtx(context.Background(), nl, faults, patterns, w, nil)
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want injected failure", w, err)
		}
		return res
	}

	serial := runStopped(1)
	if serial.Detected() == 0 {
		t.Fatalf("two blocks detected nothing; stop point too early")
	}
	full, err := SimulateFaultsCtx(context.Background(), nl, faults, patterns, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Detected() >= full.Detected() {
		t.Fatalf("partial result detected %d >= full %d; stop did not truncate",
			serial.Detected(), full.Detected())
	}
	for _, w := range workerCounts() {
		par := runStopped(w)
		for i := range serial.DetectedAt {
			if par.DetectedAt[i] != serial.DetectedAt[i] {
				t.Fatalf("workers=%d: partial fault %d at %d, serial says %d",
					w, i, par.DetectedAt[i], serial.DetectedAt[i])
			}
		}
	}
}

// TestParallelPreCancelledContext: a context that is already dead stops the
// campaign before the first block for every worker count.
func TestParallelPreCancelledContext(t *testing.T) {
	nl := netlist.C432Class(1994)
	faults := fault.StuckAtUniverse(nl)
	patterns := RandomPatterns(nl, 128, 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range append([]int{1}, workerCounts()...) {
		res, err := SimulateFaultsCtx(ctx, nl, faults, patterns, w, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", w, err)
		}
		if res == nil {
			t.Fatalf("workers=%d: want empty partial result, got nil", w)
		}
		if n := res.Detected(); n != 0 {
			t.Fatalf("workers=%d: pre-cancelled run detected %d faults", w, n)
		}
	}
}

// TestParallelSmallCampaignCollapses: campaigns below minFaultsPerWorker
// per shard take the serial in-line path (no parallel blocks), and still
// produce the serial result.
func TestParallelSmallCampaignCollapses(t *testing.T) {
	nl := netlist.C17()
	faults := fault.StuckAtUniverse(nl)
	if len(faults) >= 2*minFaultsPerWorker {
		t.Fatalf("c17 universe grew to %d faults; pick a smaller circuit", len(faults))
	}
	patterns := RandomPatterns(nl, 64, 3)
	serial, err := SimulateFaultsCtx(context.Background(), nl, faults, patterns, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	par, err := SimulateFaultsCtx(context.Background(), nl, faults, patterns, 8, reg)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("gatesim_parallel_blocks").Value(); got != 0 {
		t.Errorf("tiny campaign ran %d parallel blocks, want 0", got)
	}
	for i := range serial.DetectedAt {
		if par.DetectedAt[i] != serial.DetectedAt[i] {
			t.Fatalf("fault %d: %d vs serial %d", i, par.DetectedAt[i], serial.DetectedAt[i])
		}
	}
}

// TestParallelManyWorkersFewFaults: more workers than faults must not
// panic or lose detections (WorkersFor bounds the pool by the fault count).
func TestParallelManyWorkersFewFaults(t *testing.T) {
	nl := netlist.C17()
	faults := fault.StuckAtUniverse(nl)[:3]
	patterns := RandomPatterns(nl, 64, 5)
	serial, err := SimulateFaultsCtx(context.Background(), nl, faults, patterns, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := SimulateFaultsCtx(context.Background(), nl, faults, patterns, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(par.DetectedAt) != fmt.Sprint(serial.DetectedAt) {
		t.Fatalf("got %v, want %v", par.DetectedAt, serial.DetectedAt)
	}
}
