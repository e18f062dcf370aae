package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"defectsim/internal/faultinject"
	"defectsim/internal/netlist"
	"defectsim/internal/obs"
	"defectsim/internal/store"
)

// frontEndCircuits are the designs of the front-end memo oracle: the six
// small circuits netlist.ByName serves for any seed, a seeded random
// circuit and the c432-class benchmark. Each build returns a fresh
// netlist, so a memo hit matches by content, never by pointer.
var frontEndCircuits = []struct {
	name  string
	build func() *netlist.Netlist
	large bool // ~150 s of the oracle under -race together
}{
	{"c17", netlist.C17, false},
	{"adder", func() *netlist.Netlist { return netlist.RippleAdder(8) }, false},
	{"mux", func() *netlist.Netlist { return netlist.MuxTree(3) }, false},
	{"parity", func() *netlist.Netlist { return netlist.ParityTree(12) }, false},
	{"cmp", func() *netlist.Netlist { return netlist.Comparator(8) }, false},
	{"dec", func() *netlist.Netlist { return netlist.Decoder(3) }, false},
	{"random", func() *netlist.Netlist { return netlist.RandomCircuit("random", 1994, 24, 6, 100) }, true},
	{"c432class", func() *netlist.Netlist { return netlist.C432Class(1994) }, true},
}

// runOutputs are the results a memoized front end must leave bit for bit
// unchanged.
type runOutputs struct {
	envelope []byte
	yield    float64
	summary  string
	fig5     string
}

func outputsOf(t *testing.T, p *Pipeline) runOutputs {
	t.Helper()
	env, err := p.EncodeCache()
	if err != nil {
		t.Fatal(err)
	}
	// %v prints every float64 in its shortest exact form, so equal
	// strings mean bitwise-equal fits (NaN included).
	return runOutputs{env, p.Yield, p.Summary(), fmt.Sprintf("%+v", *Figure5(p))}
}

func sameOutputs(t *testing.T, path string, got, want runOutputs) {
	t.Helper()
	if !bytes.Equal(got.envelope, want.envelope) {
		t.Errorf("%s: EncodeCache bytes differ from the memo-less run", path)
	}
	if got.yield != want.yield {
		t.Errorf("%s: Yield = %v, memo-less %v", path, got.yield, want.yield)
	}
	if got.summary != want.summary {
		t.Errorf("%s: Summary differs:\n%s\nmemo-less:\n%s", path, got.summary, want.summary)
	}
	if got.fig5 != want.fig5 {
		t.Errorf("%s: Figure5 differs:\n%s\nmemo-less:\n%s", path, got.fig5, want.fig5)
	}
}

func frontEndOutcome(reg *obs.Registry, outcome string) int64 {
	return reg.CounterVec("pipeline_frontend_total", "outcome").With(outcome).Value()
}

// TestFrontEndMemoBitwise is the memo's oracle: on every circuit, a run
// served from a memo warmed under another seed — fresh, as a store hit and
// as a peer adoption (DecodeCached) — produces the same envelope bytes,
// yield, summary and Figure 5 fit as a run without the memo.
func TestFrontEndMemoBitwise(t *testing.T) {
	ctx := context.Background()
	for _, c := range frontEndCircuits {
		t.Run(c.name, func(t *testing.T) {
			if raceEnabled && c.large {
				t.Skip("same code paths as the small circuits; the plain tier runs it")
			}
			cfg := smallConfig()
			cfg.Seed = 2
			ref, err := Run(c.build(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := outputsOf(t, ref)

			memo := NewFrontEnds(nil)
			warm := cfg
			warm.Seed, warm.FrontEnds = 1, memo
			if _, err := Run(c.build(), warm); err != nil {
				t.Fatal(err)
			}
			withMemo := func() Config {
				hc := cfg
				hc.FrontEnds, hc.Obs = memo, obs.New()
				return hc
			}

			hc := withMemo()
			p, err := Run(c.build(), hc)
			if err != nil {
				t.Fatal(err)
			}
			if n := frontEndOutcome(hc.Obs.Metrics(), "hit"); n != 1 {
				t.Fatalf("new-seed run counted %d front-end hits, want 1", n)
			}
			sameOutputs(t, "RunCtx", outputsOf(t, p), want)

			fs, err := store.NewFS(t.TempDir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.Put(ctx, CacheKey(ref.Netlist.Name, cfg), want.envelope); err != nil {
				t.Fatal(err)
			}
			hc = withMemo()
			p, hit, err := RunStoredCtx(ctx, c.build(), hc, fs)
			if err != nil || !hit {
				t.Fatalf("RunStoredCtx: hit=%v err=%v, want a store hit", hit, err)
			}
			if n := frontEndOutcome(hc.Obs.Metrics(), "hit"); n != 1 {
				t.Fatalf("store hit counted %d front-end hits, want 1", n)
			}
			sameOutputs(t, "RunStoredCtx hit", outputsOf(t, p), want)

			if p, err = DecodeCached(ctx, c.build(), withMemo(), want.envelope); err != nil {
				t.Fatal(err)
			}
			sameOutputs(t, "DecodeCached", outputsOf(t, p), want)
			if n := len(memo.entries); n != 1 {
				t.Fatalf("memo holds %d front ends, want 1", n)
			}
		})
	}
}

// swapNets returns a copy of nl with nets a and b renumbered into each
// other's index: the same names, gates and logic, another numbering.
func swapNets(nl *netlist.Netlist, a, b int) *netlist.Netlist {
	m := func(x int) int {
		switch x {
		case a:
			return b
		case b:
			return a
		}
		return x
	}
	cp := netlist.New(nl.Name)
	cp.NetNames = append([]string(nil), nl.NetNames...)
	cp.NetNames[a], cp.NetNames[b] = cp.NetNames[b], cp.NetNames[a]
	for _, g := range nl.Gates {
		ins := make([]int, len(g.Inputs))
		for i, in := range g.Inputs {
			ins[i] = m(in)
		}
		cp.Gates = append(cp.Gates, netlist.Gate{Type: g.Type, Inputs: ins, Out: m(g.Out)})
	}
	for _, pi := range nl.PIs {
		cp.PIs = append(cp.PIs, m(pi))
	}
	for _, po := range nl.POs {
		cp.POs = append(cp.POs, m(po))
	}
	return cp
}

// TestFrontEndKey pins what the memo key sees: the seed that ByName
// ignores does not split it; the net numbering, which .bench text cannot
// show, does; so do the target yield and every defect density.
func TestFrontEndKey(t *testing.T) {
	cfg := smallConfig()
	a1, _ := netlist.ByName("adder", 1)
	a2, _ := netlist.ByName("adder", 2)
	if newFrontEndKey(a1, cfg) != newFrontEndKey(a2, cfg) {
		t.Fatal(`ByName("adder", 1) and ByName("adder", 2) have different front-end keys`)
	}
	seeded := cfg
	seeded.Seed, seeded.RandomVectors, seeded.BacktrackLimit = 99, 7, 3
	if newFrontEndKey(a1, cfg) != newFrontEndKey(a1, seeded) {
		t.Fatal("seed or test budgets changed the front-end key")
	}

	c17 := netlist.C17()
	swapped := swapNets(c17, 0, 2)
	var b1, b2 bytes.Buffer
	if err := netlist.WriteBench(&b1, c17); err != nil {
		t.Fatal(err)
	}
	if err := netlist.WriteBench(&b2, swapped); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatalf("the renumbered c17 prints differently; the test needs a swap .bench cannot show:\n%s\n%s", b1.String(), b2.String())
	}
	if newFrontEndKey(c17, cfg) == newFrontEndKey(swapped, cfg) {
		t.Fatal("c17 with two nets renumbered has the same front-end key")
	}

	fleet := obs.NewRegistry()
	memo := NewFrontEnds(fleet)
	mcfg := cfg
	mcfg.FrontEnds = memo
	p1, err := Run(c17, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Run(swapped, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(p1.Faults, p2.Faults) {
		t.Fatal("renumbered c17 extracted the same fault list; the swap shows nothing")
	}
	ref, err := Run(swapNets(netlist.C17(), 0, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p2.Faults, ref.Faults) {
		t.Fatal("renumbered c17 through the memo: fault list differs from a memo-less run")
	}

	yield := mcfg
	yield.TargetYield = 0.8
	if _, err := Run(netlist.C17(), yield); err != nil {
		t.Fatal(err)
	}
	density := mcfg
	density.Stats.Classes[0].Density *= 1.5
	if _, err := Run(netlist.C17(), density); err != nil {
		t.Fatal(err)
	}
	if hits, misses := frontEndOutcome(fleet, "hit"), frontEndOutcome(fleet, "miss"); hits != 0 || misses != 4 {
		t.Fatalf("front-end lookups: %d hits, %d misses; want 0 and 4 (c17, renumbered, yield, density)", hits, misses)
	}
	if _, err := Run(netlist.C17(), density); err != nil {
		t.Fatal(err)
	}
	if hits := frontEndOutcome(fleet, "hit"); hits != 1 || len(memo.entries) != 4 {
		t.Fatalf("repeat of the density run: %d hits, %d entries; want 1 and 4", hits, len(memo.entries))
	}
}

// TestFrontEndFailuresStoreNothing: a front end cut short — by an
// injected extraction failure, by cancellation mid-front-end, by an
// expired extract budget — fails the run at that stage and leaves the
// memo empty; the next clean run stores it.
func TestFrontEndFailuresStoreNothing(t *testing.T) {
	injected := errors.New("injected extraction fault")
	cases := []struct {
		name    string
		hook    func(cancel context.CancelFunc) faultinject.Hook
		budgets map[string]time.Duration
		want    error
	}{
		{"injected", func(context.CancelFunc) faultinject.Hook { return faultinject.Fail(injected) }, nil, injected},
		{"cancelled", func(cancel context.CancelFunc) faultinject.Hook {
			return func(ctx context.Context) error {
				cancel() // layout and lvs are done; the run dies in extract
				<-ctx.Done()
				return ctx.Err()
			}
		}, nil, context.Canceled},
		{"extract-budget", func(context.CancelFunc) faultinject.Hook { return faultinject.Stall },
			map[string]time.Duration{"extract": 20 * time.Millisecond}, context.DeadlineExceeded},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			memo := NewFrontEnds(nil)
			cfg := smallConfig()
			cfg.FrontEnds, cfg.StageBudgets = memo, tc.budgets
			restore := faultinject.Set(faultinject.HookExtractFaults, tc.hook(cancel))
			_, err := RunCtx(ctx, netlist.C17(), cfg)
			restore()
			var pe *PipelineError
			if !errors.As(err, &pe) || pe.Stage != "extract" || !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want an extract-stage failure wrapping %v", err, tc.want)
			}
			if n := len(memo.entries); n != 0 {
				t.Fatalf("a cut front end was memoized (%d entries)", n)
			}
			cfg.StageBudgets = nil
			if _, err := RunCtx(context.Background(), netlist.C17(), cfg); err != nil {
				t.Fatal(err)
			}
			if n := len(memo.entries); n != 1 {
				t.Fatalf("clean run left %d entries, want 1", n)
			}
		})
	}
}

// frontEndDigest hashes every exported byte of a memoized front end.
func frontEndDigest(t *testing.T, fe *frontEnd) [sha256.Size]byte {
	t.Helper()
	data, err := json.Marshal(struct {
		Layout, Faults, Circuit, StuckAt, Weights any
		Yield                                     float64
	}{fe.layout, fe.faults, fe.circuit, fe.stuckAt, fe.weights, fe.yield})
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(data)
}

// TestFrontEndSharedReadOnly: the studies that read a pipeline — every
// standard study and the n-detect study — leave the shared front end of a
// memo hit untouched.
func TestFrontEndSharedReadOnly(t *testing.T) {
	ctx := context.Background()
	memo := NewFrontEnds(nil)
	cfg := smallConfig()
	cfg.FrontEnds = memo
	if _, err := Run(netlist.C17(), cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 7
	p, err := Run(netlist.C17(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fe := memo.entries[0]
	if p.Layout != fe.layout || p.Faults != fe.faults || p.Circuit != fe.circuit || &p.StuckAt[0] != &fe.stuckAt[0] {
		t.Fatal("the hit does not share the memoized front end")
	}
	before := frontEndDigest(t, fe)
	if _, err := RunStudies(ctx, p, StandardStudies(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := RunNDetectStudy(ctx, p, 3); err != nil {
		t.Fatal(err)
	}
	if frontEndDigest(t, fe) != before {
		t.Fatal("a study mutated the shared front end")
	}
}

// TestFrontEndHitRecordsExtractMetrics: a hit's run report carries the
// same extraction counters and weight histogram as the miss that built the
// front end, and both sides count their lookup outcome.
func TestFrontEndHitRecordsExtractMetrics(t *testing.T) {
	fleet := obs.NewRegistry()
	memo := NewFrontEnds(fleet)
	run := func(seed int64) *obs.Registry {
		cfg := smallConfig()
		cfg.Seed, cfg.FrontEnds, cfg.Obs = seed, memo, obs.New()
		p, err := Run(netlist.C17(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range StageNames[:6] {
			if got := p.Report.Stages[0].Children[i].Name; got != name {
				t.Fatalf("seed %d: stage %d is %q, want %q", seed, i, got, name)
			}
		}
		return cfg.Obs.Metrics()
	}
	miss, hit := run(1), run(2)
	if miss.Counter("extract_bridge_faults").Value() == 0 {
		t.Fatal("the miss recorded no extraction metrics")
	}
	for _, name := range []string{"extract_bridge_faults", "extract_open_input_faults", "extract_open_driver_faults"} {
		if m, h := miss.Counter(name).Value(), hit.Counter(name).Value(); m != h {
			t.Errorf("%s: miss %d, hit %d", name, m, h)
		}
	}
	hm, hh := miss.Histogram("extract_fault_weight", nil), hit.Histogram("extract_fault_weight", nil)
	_, cm := hm.Buckets()
	_, ch := hh.Buckets()
	if hm.Count() != hh.Count() || hm.Sum() != hh.Sum() || !reflect.DeepEqual(cm, ch) {
		t.Errorf("extract_fault_weight: miss n=%d sum=%v %v, hit n=%d sum=%v %v",
			hm.Count(), hm.Sum(), cm, hh.Count(), hh.Sum(), ch)
	}
	if y1, y2 := miss.Gauge("pipeline_yield").Value(), hit.Gauge("pipeline_yield").Value(); y1 != y2 {
		t.Errorf("pipeline_yield: miss %v, hit %v", y1, y2)
	}
	for _, c := range []struct {
		reg        *obs.Registry
		hit, miss  int64
		registryOf string
	}{{miss, 0, 1, "miss run"}, {hit, 1, 0, "hit run"}, {fleet, 1, 1, "memo owner"}} {
		if h, m := frontEndOutcome(c.reg, "hit"), frontEndOutcome(c.reg, "miss"); h != c.hit || m != c.miss {
			t.Errorf("%s: pipeline_frontend_total hit=%d miss=%d, want %d/%d", c.registryOf, h, m, c.hit, c.miss)
		}
	}
}

// TestFrontEndsEvictLRU: the memo holds at most frontEndsCap designs and
// evicts the least recently used one.
func TestFrontEndsEvictLRU(t *testing.T) {
	memo := NewFrontEnds(nil)
	key := func(i int) frontEndKey { return frontEndKey{byte(i)} }
	for i := 0; i <= frontEndsCap; i++ {
		memo.put(&frontEnd{key: key(i)})
		if i == 0 {
			continue
		}
		if memo.get(key(0)) == nil { // keep entry 0 the most recent
			t.Fatalf("entry 0 evicted after %d puts", i+1)
		}
	}
	if n := len(memo.entries); n != frontEndsCap {
		t.Fatalf("memo holds %d entries, want the cap %d", n, frontEndsCap)
	}
	if memo.get(key(1)) != nil {
		t.Fatal("the least recently used entry survived")
	}
	memo.put(&frontEnd{key: key(0), yield: 1})
	if memo.get(key(0)).yield != 0 {
		t.Fatal("a second put of a key replaced the shared entry")
	}
}

// TestPipelineSwitchMemoFollowsEntry: a run the memo served reaches its
// entry's design memo only while the memo holds the entry, so evicting
// the entry frees the design memo even while the run's Pipeline is
// retained; a miss uses the shared switch-level memo, a run without a
// memo none.
func TestPipelineSwitchMemoFollowsEntry(t *testing.T) {
	memo := NewFrontEnds(nil)
	cfg := smallConfig()
	cfg.FrontEnds = memo
	miss, err := Run(netlist.C17(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := Run(netlist.C17(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FrontEnds = nil
	none, err := Run(netlist.C17(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	design := memo.entries[0].sw
	if design == nil || design == memo.sw || hit.switchMemo() != design || miss.switchMemo() != memo.sw || none.switchMemo() != nil {
		t.Fatal("the hit does not use the entry's design memo, the miss the shared memo, or the memo-less run none")
	}
	for i := 1; i <= frontEndsCap; i++ {
		memo.put(&frontEnd{key: frontEndKey{byte(i)}})
	}
	if hit.switchMemo() != memo.sw {
		t.Fatal("a retained run still reaches the design memo of an evicted entry")
	}
}

// TestFrontEndsConcurrent shares one memo among 8 goroutines running two
// designs under four seeds; every run matches its memo-less reference.
// CI runs it under -race -count=10.
func TestFrontEndsConcurrent(t *testing.T) {
	builds := []func() *netlist.Netlist{netlist.C17, func() *netlist.Netlist { return netlist.Decoder(3) }}
	cfgOf := func(g int) Config {
		cfg := smallConfig()
		cfg.Seed, cfg.RandomVectors, cfg.Workers = int64(1+g/2), 16, 1
		return cfg
	}
	const goroutines = 8
	want := make([][]byte, goroutines)
	for g := range want {
		p, err := Run(builds[g%2](), cfgOf(g))
		if err != nil {
			t.Fatal(err)
		}
		if want[g], err = p.EncodeCache(); err != nil {
			t.Fatal(err)
		}
	}
	fleet := obs.NewRegistry()
	memo := NewFrontEnds(fleet)
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cfg := cfgOf(g)
			cfg.FrontEnds, cfg.Obs = memo, obs.New()
			p, err := Run(builds[g%2](), cfg)
			if err == nil {
				var got []byte
				if got, err = p.EncodeCache(); err == nil && !bytes.Equal(got, want[g]) {
					err = fmt.Errorf("envelope differs from the memo-less run")
				}
			}
			errs[g] = err
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
	if n := len(memo.entries); n != 2 {
		t.Fatalf("memo holds %d front ends, want 2", n)
	}
	if h, m := frontEndOutcome(fleet, "hit"), frontEndOutcome(fleet, "miss"); h+m != goroutines || m < 2 {
		t.Fatalf("lookups: %d hits + %d misses, want %d with at least 2 misses", h, m, goroutines)
	}
}
