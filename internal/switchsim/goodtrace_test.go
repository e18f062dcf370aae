package switchsim

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"defectsim/internal/defect"
	"defectsim/internal/extract"
	"defectsim/internal/fault"
	"defectsim/internal/faultinject"
	"defectsim/internal/layout"
	"defectsim/internal/netlist"
	"defectsim/internal/obs"
	"defectsim/internal/transistor"
)

// buildCampaign extracts the fault list and transistor circuit for nl.
func buildCampaign(t testing.TB, nl *netlist.Netlist) (*fault.List, *transistor.Circuit) {
	t.Helper()
	L, err := layout.Build(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	return extract.Faults(L, defect.Typical()), transistor.FromLayout(L)
}

// sameResult fails the test unless a and b are bitwise identical.
func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.VectorsApplied != b.VectorsApplied || a.Oscillations != b.Oscillations || a.GoodUnsettledAt != b.GoodUnsettledAt {
		t.Fatalf("%s: campaign summary differs: applied %d/%d osc %d/%d unsettled %d/%d",
			label, a.VectorsApplied, b.VectorsApplied, a.Oscillations, b.Oscillations, a.GoodUnsettledAt, b.GoodUnsettledAt)
	}
	for i := range a.DetectedAt {
		if a.DetectedAt[i] != b.DetectedAt[i] || a.IDDQAt[i] != b.IDDQAt[i] || a.Undecided[i] != b.Undecided[i] {
			t.Fatalf("%s: fault %d differs: det %d/%d iddq %d/%d und %v/%v", label, i,
				a.DetectedAt[i], b.DetectedAt[i], a.IDDQAt[i], b.IDDQAt[i], a.Undecided[i], b.Undecided[i])
		}
	}
}

// TestCaptureGoodTraceMatchesRun pins the trace's contents against the
// reference good-circuit simulation: the recorded post-vector PO values
// must equal Run's outputs, and state bookkeeping must be complete.
func TestCaptureGoodTraceMatchesRun(t *testing.T) {
	nl := netlist.C17()
	_, c := buildCampaign(t, nl)
	vecs := randomVectors(len(nl.PIs), 24, 3)
	tr, _ := CaptureGoodTraceCtx(context.Background(), c, vecs, nil)
	if !tr.Complete() || tr.UnsettledAt != 0 {
		t.Fatalf("capture incomplete: %d/%d states, unsettled %d", len(tr.States), len(vecs)+1, tr.UnsettledAt)
	}
	if tr.Applied() != len(vecs) {
		t.Fatalf("Applied() = %d, want %d", tr.Applied(), len(vecs))
	}
	if tr.Bytes() != (len(vecs)+1)*c.NumNets {
		t.Fatalf("Bytes() = %d, want %d", tr.Bytes(), (len(vecs)+1)*c.NumNets)
	}
	outs, err := Run(c, vecs)
	if err != nil {
		t.Fatal(err)
	}
	for k := range vecs {
		for oi, po := range c.POs {
			if tr.States[k+1][po] != outs[k][oi] {
				t.Fatalf("vector %d PO %d: trace %v, Run %v", k, oi, tr.States[k+1][po], outs[k][oi])
			}
		}
	}
}

// TestTracedCampaignBitwiseEqual is the shared-trace core property: for
// every worker count, a campaign replaying a given trace is bitwise
// identical to one capturing its own, and the captured trace equals a
// plain CaptureGoodTraceCtx's and is reusable.
func TestTracedCampaignBitwiseEqual(t *testing.T) {
	for _, nl := range []*netlist.Netlist{netlist.C17(), netlist.RippleAdder(4)} {
		list, c := buildCampaign(t, nl)
		vecs := randomVectors(len(nl.PIs), 48, 21)
		ref, _, err := SimulateFaults(context.Background(), c, list, vecs, 0, BridgeG, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}

		res, tr, err := SimulateFaults(context.Background(), c, list, vecs, 0, BridgeG, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, nl.Name+"/capture", res, ref)
		if !tr.Complete() {
			t.Fatalf("%s: capture-mode trace incomplete", nl.Name)
		}
		// The campaign's good machine replays the CCC memo; a plain capture
		// relaxes every solve. Their states must agree bit for bit.
		plain, err := CaptureGoodTraceCtx(context.Background(), c, vecs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tr.States, plain.States) {
			t.Fatalf("%s: capture-mode trace differs from CaptureGoodTraceCtx's", nl.Name)
		}

		for _, w := range []int{1, 4, runtime.NumCPU()} {
			traced, _, err := SimulateFaults(context.Background(), c, list, vecs, w, BridgeG, nil, tr, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, nl.Name+"/traced", traced, ref)
		}

		// Resistive conductances exercise the verdict and oscillation paths
		// differently; the trace is bridge-model independent.
		for _, g := range []float64{20, 1.5, 0.3} {
			refG, _, err := SimulateFaults(context.Background(), c, list, vecs, 1, g, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			tracedG, _, err := SimulateFaults(context.Background(), c, list, vecs, 1, g, nil, tr, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, nl.Name+"/resistive", tracedG, refG)
		}
	}
}

// TestTracedCampaignPrefixExtension covers the top-up pattern: the trace
// spans a prefix of the campaign's vectors and the campaign extends it
// from the last recorded state.
func TestTracedCampaignPrefixExtension(t *testing.T) {
	nl := netlist.RippleAdder(3)
	list, c := buildCampaign(t, nl)
	vecs := randomVectors(len(nl.PIs), 40, 8)
	tr, _ := CaptureGoodTraceCtx(context.Background(), c, vecs[:25], nil)
	ref, _, err := SimulateFaults(context.Background(), c, list, vecs, 0, BridgeG, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4, runtime.NumCPU()} {
		got, _, err := SimulateFaults(context.Background(), c, list, vecs, w, BridgeG, nil, tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "prefix", got, ref)
	}
}

// TestTracedCampaignCancelMidRun mirrors the uncached partial-result
// contract: a traced campaign cancelled mid-run returns the same partial
// result the uncached campaign returns when cancelled at the same vector.
func TestTracedCampaignCancelMidRun(t *testing.T) {
	nl := netlist.RippleAdder(4)
	list, c := buildCampaign(t, nl)
	vecs := randomVectors(len(nl.PIs), 64, 5)
	tr, _ := CaptureGoodTraceCtx(context.Background(), c, vecs, nil)

	const stopAfter = 10
	partial := func(traced bool) *Result {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		n := 0
		restore := faultinject.Set(faultinject.HookSwitchSimVector, func(context.Context) error {
			n++
			if n > stopAfter {
				cancel()
			}
			return nil
		})
		defer restore()
		var res *Result
		var err error
		if traced {
			res, _, err = SimulateFaults(ctx, c, list, vecs, 0, BridgeG, nil, tr, nil)
		} else {
			res, _, err = SimulateFaults(ctx, c, list, vecs, 0, BridgeG, nil, nil, nil)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("traced=%v: err = %v, want context.Canceled", traced, err)
		}
		return res
	}
	sameResult(t, "cancelled", partial(true), partial(false))
}

// TestTracedCampaignUnsettledCutoff pins the GoodUnsettledAt contract: a
// trace recording an unsettled fault-free vector stops the campaign
// there, matching the uncached campaign's prefix and marking every
// still-live fault undecided.
func TestTracedCampaignUnsettledCutoff(t *testing.T) {
	nl := netlist.C17()
	list, c := buildCampaign(t, nl)
	vecs := randomVectors(len(nl.PIs), 32, 13)
	full, _ := CaptureGoodTraceCtx(context.Background(), c, vecs, nil)

	const cut = 7 // 1-based vector index recorded as unsettled
	trunc := &GoodTrace{Vectors: vecs, States: full.States[:cut], UnsettledAt: cut}
	if !trunc.Complete() {
		t.Fatal("truncated trace with a recorded cutoff must count as complete")
	}
	for _, w := range []int{1, 4, runtime.NumCPU()} {
		res, _, err := SimulateFaults(context.Background(), c, list, vecs, w, BridgeG, nil, trunc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.GoodUnsettledAt != cut || res.VectorsApplied != cut-1 {
			t.Fatalf("workers=%d: GoodUnsettledAt=%d VectorsApplied=%d, want %d/%d",
				w, res.GoodUnsettledAt, res.VectorsApplied, cut, cut-1)
		}
		ref, _, err := SimulateFaults(context.Background(), c, list, vecs, 0, BridgeG, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range list.Faults {
			if d := res.DetectedAt[i]; d > 0 && d != ref.DetectedAt[i] {
				t.Fatalf("fault %d: cutoff run detected at %d, full run at %d", i, d, ref.DetectedAt[i])
			}
			if res.DetectedAt[i] == 0 && !res.Undecided[i] {
				t.Fatalf("fault %d neither detected nor undecided after the cutoff", i)
			}
		}
	}
}

// TestTraceValidation pins the loud-failure contract for trace/machine
// skews: a trace for another circuit, diverging vectors, an interrupted
// capture, or states holding a value outside 0/1/X or a rail off its level
// (what the CCC memo's index and its constant-rail assumption rely on) are
// rejected with a descriptive error before any simulation.
func TestTraceValidation(t *testing.T) {
	nl := netlist.C17()
	list, c := buildCampaign(t, nl)
	vecs := randomVectors(len(nl.PIs), 16, 2)
	tr, _ := CaptureGoodTraceCtx(context.Background(), c, vecs, nil)

	// Wrong circuit: state width mismatch.
	nl2 := netlist.RippleAdder(4)
	_, c2 := buildCampaign(t, nl2)
	vecs2 := randomVectors(len(nl2.PIs), 16, 2)
	if _, _, err := SimulateFaults(context.Background(), c2, list, vecs2, 1, BridgeG, nil, tr, nil); err == nil || !strings.Contains(err.Error(), "nets") {
		t.Fatalf("cross-circuit trace: err = %v, want net-count mismatch", err)
	}

	// Diverging vectors.
	other := randomVectors(len(nl.PIs), 16, 99)
	if _, _, err := SimulateFaults(context.Background(), c, list, other, 1, BridgeG, nil, tr, nil); err == nil || !strings.Contains(err.Error(), "diverge") {
		t.Fatalf("diverging vectors: err = %v, want divergence error", err)
	}

	// Interrupted capture: incomplete, not reusable.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	part, err := CaptureGoodTraceCtx(ctx, c, vecs, nil)
	if !errors.Is(err, context.Canceled) || part.Complete() {
		t.Fatalf("cancelled capture: err=%v complete=%v", err, part.Complete())
	}
	if _, _, err := SimulateFaults(context.Background(), c, list, vecs, 1, BridgeG, nil, part, nil); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("incomplete trace: err = %v, want incomplete error", err)
	}

	// Empty trace (a nil one asks the campaign to capture its own).
	if _, _, err := SimulateFaults(context.Background(), c, list, vecs, 1, BridgeG, nil, &GoodTrace{}, nil); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("empty trace: err = %v, want an empty-trace error", err)
	}

	// Poisoned states.
	for _, tc := range []struct {
		name, want string
		mutate     func(states [][]Val)
	}{
		{"value above X", "value 9", func(states [][]Val) { states[3][c.PIs[0]] = 9 }},
		{"GND at 1", "rail", func(states [][]Val) { states[2][layout.NetGND] = V1 }},
		{"VDD at X", "rail", func(states [][]Val) { states[0][layout.NetVDD] = VX }},
	} {
		bad := &GoodTrace{Vectors: tr.Vectors}
		for _, st := range tr.States {
			bad.States = append(bad.States, append([]Val(nil), st...))
		}
		tc.mutate(bad.States)
		if _, _, err := SimulateFaults(context.Background(), c, list, vecs, 1, BridgeG, nil, bad, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestCampaignRejectsBadVectors pins the input check of every campaign
// and capture entry point: a vector holding a value above X, or of the
// wrong width, is an error before any simulation.
func TestCampaignRejectsBadVectors(t *testing.T) {
	nl := netlist.C17()
	list, c := buildCampaign(t, nl)
	vecs := randomVectors(len(nl.PIs), 8, 2)
	high := append([]Vector(nil), vecs...)
	high[3] = append(Vector(nil), vecs[3]...)
	high[3][1] = 9
	narrow := append([]Vector(nil), vecs...)
	narrow[5] = vecs[5][1:]
	ctx := context.Background()
	good, err := CaptureGoodTraceCtx(ctx, c, vecs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		vecs       []Vector
	}{
		{"value above X", "value 9", high},
		{"narrow vector", "bits", narrow},
	} {
		for _, tr := range []*GoodTrace{nil, good} {
			if res, got, err := SimulateFaults(ctx, c, list, tc.vecs, 2, BridgeG, nil, tr, nil); err == nil || res != nil || got != nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s (traced %v): SimulateFaults = %v, %v, %v; want an error mentioning %q", tc.name, tr != nil, res, got, err, tc.want)
			}
		}
		if _, err := CaptureGoodTraceCtx(ctx, c, tc.vecs, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: CaptureGoodTraceCtx err = %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestGoodTraceMetrics pins the reuse instrumentation: captures count as
// misses, traced campaigns as hits, and the bytes gauge reports the
// trace's footprint.
func TestGoodTraceMetrics(t *testing.T) {
	nl := netlist.C17()
	list, c := buildCampaign(t, nl)
	vecs := randomVectors(len(nl.PIs), 16, 4)
	reg := obs.NewRegistry()

	_, tr, err := SimulateFaults(context.Background(), c, list, vecs, 1, BridgeG, reg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := SimulateFaults(context.Background(), c, list, vecs, 1, BridgeG, reg, tr, nil); err != nil {
			t.Fatal(err)
		}
	}
	if v := reg.Counter("swsim_goodtrace_misses").Value(); v != 1 {
		t.Fatalf("misses = %d, want 1", v)
	}
	if v := reg.Counter("swsim_goodtrace_hits").Value(); v != 3 {
		t.Fatalf("hits = %d, want 3", v)
	}
	if v := reg.Gauge("swsim_goodtrace_bytes").Value(); v != float64(tr.Bytes()) {
		t.Fatalf("bytes gauge = %v, want %d", v, tr.Bytes())
	}
}

// TestDetectedByClampsToVectorsApplied pins the early-stop accounting
// contract: coverage queried beyond the stop point reports the flags as
// of the stop, and a zero VectorsApplied (a Result that never ran the
// vector loop) keeps trivial-verdict detections credited.
func TestDetectedByClampsToVectorsApplied(t *testing.T) {
	r := &Result{
		DetectedAt:     []int{1, 5, 0},
		IDDQAt:         []int{0, 0, 9},
		Undecided:      []bool{false, false, true},
		VectorsApplied: 5,
	}
	// Vector 9 was never simulated: the IDDQ entry beyond the stop (which
	// a real campaign cannot produce) must not be credited at k = 20.
	got := r.DetectedBy(20, true)
	want := []bool{true, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DetectedBy(20) = %v, want %v", got, want)
		}
	}
	// Queries inside the applied range are untouched.
	if got := r.DetectedBy(1, false); !got[0] || got[1] || got[2] {
		t.Fatalf("DetectedBy(1) = %v, want [true false false]", got)
	}
	// VectorsApplied == 0: trivial verdicts stay credited.
	triv := &Result{DetectedAt: []int{1}, IDDQAt: []int{0}}
	if got := triv.DetectedBy(64, false); !got[0] {
		t.Fatal("trivial verdict lost on a Result without VectorsApplied")
	}
}

// TestEqualValsLengthGuard pins the defensive fast-path contract: skewed
// slices never compare equal (and never panic).
func TestEqualValsLengthGuard(t *testing.T) {
	if equalVals([]Val{V0, V1}, []Val{V0}) {
		t.Fatal("skewed slices must not compare equal")
	}
	if !equalVals([]Val{V0, V1}, []Val{V0, V1}) {
		t.Fatal("identical slices must compare equal")
	}
}
