package experiments

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"sync"
	"testing"

	"defectsim/internal/netlist"
	"defectsim/internal/obs"
)

// switchMemoConfig is one of the DefaultConfig runs the shared
// switch-level memo is pinned on: a netlist.ByName circuit and seed.
type switchMemoConfig struct {
	circuit string
	seed    int64
}

func (c switchMemoConfig) String() string { return fmt.Sprintf("%s/seed=%d", c.circuit, c.seed) }

// switchMemoConfigs are the small circuits and the random circuit at seeds
// 1, 3 and 1994, and c432-class at 1994, 3 and 7; under -race only the
// six small circuits.
func switchMemoConfigs() []switchMemoConfig {
	var out []switchMemoConfig
	circuits := []string{"c17", "adder", "mux", "parity", "cmp", "dec"}
	if !raceEnabled {
		circuits = append(circuits, "random")
	}
	for _, name := range circuits {
		for _, seed := range []int64{1, 3, 1994} {
			out = append(out, switchMemoConfig{name, seed})
		}
	}
	if !raceEnabled {
		for _, seed := range []int64{1994, 3, 7} {
			out = append(out, switchMemoConfig{"c432", seed})
		}
	}
	return out
}

// envelopeDigest runs c's pipeline with the front-end memo fe (nil: none)
// and digests its EncodeCache bytes.
func envelopeDigest(c switchMemoConfig, fe *FrontEnds) ([sha256.Size]byte, error) {
	nl, err := netlist.ByName(c.circuit, c.seed)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	cfg := DefaultConfig()
	cfg.Seed, cfg.FrontEnds = c.seed, fe
	p, err := Run(nl, cfg)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	data, err := p.EncodeCache()
	return sha256.Sum256(data), err
}

// TestSharedSwitchMemoBitwise runs every configuration through one
// FrontEnds, four at a time, in list order and then reversed — the
// campaigns of misses and hits publishing into and reading the one class
// table concurrently, the small circuits' repeats building and sharing
// their designs' fault plans and CCC tables — and requires each run's
// envelope to equal that of a run without a memo.
func TestSharedSwitchMemoBitwise(t *testing.T) {
	configs := switchMemoConfigs()
	want := map[switchMemoConfig][sha256.Size]byte{}
	for _, c := range configs {
		d, err := envelopeDigest(c, nil)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		want[c] = d
	}
	reversed := slices.Clone(configs)
	slices.Reverse(reversed)
	reg := obs.NewRegistry()
	fe := NewFrontEnds(reg)
	for _, order := range [][]switchMemoConfig{configs, reversed} {
		work := make(chan switchMemoConfig)
		var wg sync.WaitGroup
		var mu sync.Mutex
		var failed []string
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for c := range work {
					got, err := envelopeDigest(c, fe)
					if err == nil && got != want[c] {
						err = fmt.Errorf("envelope differs from the run without a memo")
					}
					if err != nil {
						mu.Lock()
						failed = append(failed, fmt.Sprintf("%v: %v", c, err))
						mu.Unlock()
					}
				}
			}()
		}
		for _, c := range order {
			work <- c
		}
		close(work)
		wg.Wait()
		if len(failed) > 0 {
			t.Fatalf("%d of %d runs:\n%v", len(failed), len(order), failed)
		}
	}
	if reg.Gauge("swsim_class_table_entries").Value() == 0 || reg.Gauge("swsim_seed_classes").Value() == 0 {
		t.Fatal("no campaign published into the shared class table")
	}
}

// TestSharedSwitchMemoSolveCounts pins what a warm memo changes in a
// campaign's solve counts: nothing but the split between class-table
// replays and relaxations. The cmp design under seed 3 after seed 1
// relaxes only the seed states seed 1's vectors never reached, and a
// repeat of seed 3 relaxes none.
func TestSharedSwitchMemoSolveCounts(t *testing.T) {
	type counts struct{ seed, class, relax int64 }
	run := func(seed int64, fe *FrontEnds) counts {
		t.Helper()
		nl, err := netlist.ByName("cmp", seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Seed, cfg.FrontEnds, cfg.Obs = seed, fe, obs.New()
		if _, err := Run(nl, cfg); err != nil {
			t.Fatal(err)
		}
		v := cfg.Obs.Metrics().CounterVec("swsim_ccc_solves", "path")
		return counts{v.With("seed").Value(), v.With("class").Value(), v.With("relax").Value()}
	}
	private := run(3, nil)
	fe := NewFrontEnds(nil)
	run(1, fe)
	warm := run(3, fe)
	again := run(3, fe)
	for _, got := range []counts{warm, again} {
		if got.seed != private.seed || got.class+got.relax != private.class+private.relax {
			t.Fatalf("warm memo %+v, private %+v; want the same seed count and class + relax", got, private)
		}
	}
	if 8*warm.relax > private.relax || again.relax != 0 {
		t.Fatalf("cmp seed 3 relaxed %d seed groups after seed 1 and %d on its repeat (private run: %d); want under an eighth and 0",
			warm.relax, again.relax, private.relax)
	}
	t.Logf("cmp seed 3: private %+v, after seed 1 %+v", private, warm)
}
