package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"defectsim/internal/faultinject"
	"defectsim/internal/netlist"
	"defectsim/internal/obs"
)

// TestRunCtxCancelDuringATPG pins the cancellation-latency contract: a
// run stalled inside the ATPG stage must return within ~100ms of
// cancellation, as a *PipelineError naming the stage and wrapping
// context.Canceled.
func TestRunCtxCancelDuringATPG(t *testing.T) {
	started := make(chan struct{})
	var once bool
	restore := faultinject.Set(faultinject.HookATPGFault, func(ctx context.Context) error {
		if !once {
			once = true
			close(started)
		}
		return faultinject.Stall(ctx)
	})
	defer restore()

	cfg := smallConfig()
	cfg.RandomVectors = 0 // every fault goes through the deterministic loop
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	type outcome struct {
		p   *Pipeline
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		p, err := RunCtx(ctx, netlist.C17(), cfg)
		done <- outcome{p, err}
	}()

	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("pipeline never reached the ATPG stage")
	}
	cancel()
	start := time.Now()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled run did not return within 2s")
	}
	if lat := time.Since(start); lat > 100*time.Millisecond {
		t.Fatalf("cancellation latency %v exceeds 100ms", lat)
	}
	if out.err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	var pe *PipelineError
	if !errors.As(out.err, &pe) {
		t.Fatalf("error %T is not a *PipelineError: %v", out.err, out.err)
	}
	if pe.Stage != "atpg" {
		t.Fatalf("PipelineError.Stage = %q, want atpg", pe.Stage)
	}
	if !errors.Is(out.err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", out.err)
	}
	if out.p != nil {
		t.Fatal("cancelled run must not return a pipeline")
	}
}

// TestRunCtxATPGBudgetDegrades pins graceful degradation: an exhausted
// ATPG stage budget yields a complete, usable pipeline whose partial test
// set accounts aborted faults in the coverage denominator.
func TestRunCtxATPGBudgetDegrades(t *testing.T) {
	restore := faultinject.Set(faultinject.HookATPGFault, faultinject.Sleep(5*time.Millisecond))
	defer restore()

	cfg := smallConfig()
	cfg.RandomVectors = 0
	cfg.Obs = obs.New()
	cfg.StageBudgets = map[string]time.Duration{"atpg": 20 * time.Millisecond}

	p, err := RunCtx(context.Background(), netlist.C17(), cfg)
	if err != nil {
		t.Fatalf("budget exhaustion must degrade, not fail: %v", err)
	}
	if !p.Degraded() {
		t.Fatal("run is not marked degraded")
	}
	found := false
	for _, d := range p.Degradations {
		if d.Stage == "atpg" && strings.Contains(d.Reason, "budget exhausted") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no atpg budget degradation recorded: %+v", p.Degradations)
	}
	if !p.TestSet.Incomplete {
		t.Fatal("partial test set is not marked Incomplete")
	}
	det, unt, ab := p.TestSet.Counts()
	if ab == 0 {
		t.Fatal("budget-starved ATPG aborted no faults")
	}
	if det+unt+ab != len(p.StuckAt) {
		t.Fatalf("counts %d+%d+%d do not partition %d faults", det, unt, ab, len(p.StuckAt))
	}
	// Aborted faults stay in the coverage denominator (paper eq. 6).
	want := float64(det) / float64(len(p.StuckAt)-unt)
	if got := p.TestSet.Coverage(true); got != want {
		t.Fatalf("Coverage(true) = %v, want %v", got, want)
	}
	// The rest of the pipeline still ran on the partial set.
	if p.SwitchRes == nil || p.Ks == nil {
		t.Fatal("downstream stages did not run on the degraded result")
	}
	if p.Report == nil {
		t.Fatal("degraded run has no report")
	}
	if len(p.Report.Events) == 0 {
		t.Fatal("degradation not surfaced in the run report events")
	}
	if !strings.Contains(p.Summary(), "degraded") {
		t.Fatal("degradation not surfaced in Summary")
	}
}

// TestRunCtxSwitchSimBudgetDegrades: an exhausted switch-sim budget keeps
// the vectors applied so far and marks unfinished faults undecided.
func TestRunCtxSwitchSimBudgetDegrades(t *testing.T) {
	restore := faultinject.Set(faultinject.HookSwitchSimVector, faultinject.Sleep(5*time.Millisecond))
	defer restore()

	cfg := smallConfig()
	cfg.StageBudgets = map[string]time.Duration{"switch-sim": 25 * time.Millisecond}

	p, err := RunCtx(context.Background(), netlist.C17(), cfg)
	if err != nil {
		t.Fatalf("switch-sim budget exhaustion must degrade, not fail: %v", err)
	}
	if !p.Degraded() {
		t.Fatal("run is not marked degraded")
	}
	if p.SwitchRes.VectorsApplied >= len(p.TestSet.Patterns) {
		t.Fatalf("VectorsApplied = %d, want < %d (early stop)", p.SwitchRes.VectorsApplied, len(p.TestSet.Patterns))
	}
	undecided := 0
	for _, u := range p.SwitchRes.Undecided {
		if u {
			undecided++
		}
	}
	for i, u := range p.SwitchRes.Undecided {
		if u && p.SwitchRes.DetectedAt[i] > 0 {
			t.Fatalf("fault %d both undecided and detected", i)
		}
	}
	found := false
	for _, d := range p.Degradations {
		if d.Stage == "switch-sim" && strings.Contains(d.Reason, "budget exhausted") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no switch-sim degradation recorded: %+v", p.Degradations)
	}
	_ = undecided // may be zero if every live fault was already detected
}

// TestRunCtxPanicIsolation: a panic inside a stage surfaces as a
// *PipelineError naming the stage, never as a process crash.
func TestRunCtxPanicIsolation(t *testing.T) {
	restore := faultinject.Set(faultinject.HookSwitchSimVector, faultinject.Panic("injected switch-sim panic"))
	defer restore()

	cfg := smallConfig()
	p, err := RunCtx(context.Background(), netlist.C17(), cfg)
	if err == nil {
		t.Fatal("panicking stage returned nil error")
	}
	if p != nil {
		t.Fatal("panicking run must not return a pipeline")
	}
	var pe *PipelineError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T is not a *PipelineError", err)
	}
	if pe.Stage != "switch-sim" {
		t.Fatalf("PipelineError.Stage = %q, want switch-sim", pe.Stage)
	}
	if !strings.Contains(err.Error(), "panic") || !strings.Contains(err.Error(), "injected switch-sim panic") {
		t.Fatalf("panic cause not preserved: %v", err)
	}
}

// TestRunCtxDeadlineFails: the global deadline is a hard stop, not a
// degradation — unlike a stage budget.
func TestRunCtxDeadlineFails(t *testing.T) {
	restore := faultinject.Set(faultinject.HookATPGFault, faultinject.Stall)
	defer restore()

	cfg := smallConfig()
	cfg.RandomVectors = 0
	cfg.Deadline = 30 * time.Millisecond
	start := time.Now()
	_, err := RunCtx(context.Background(), netlist.C17(), cfg)
	if err == nil {
		t.Fatal("deadline expiry returned nil error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error does not wrap context.DeadlineExceeded: %v", err)
	}
	var pe *PipelineError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T is not a *PipelineError", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("deadline expiry took %v to surface", el)
	}
}

// TestRunCtxErrorCarriesProgress: a traced failed run attaches the
// counter snapshot to the error so callers can see partial progress.
func TestRunCtxErrorCarriesProgress(t *testing.T) {
	restore := faultinject.Set(faultinject.HookSwitchSimVector, faultinject.Fail(errors.New("injected failure")))
	defer restore()

	cfg := smallConfig()
	cfg.Obs = obs.New()
	_, err := RunCtx(context.Background(), netlist.C17(), cfg)
	var pe *PipelineError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T is not a *PipelineError: %v", err, err)
	}
	if pe.Stage != "switch-sim" {
		t.Fatalf("Stage = %q, want switch-sim", pe.Stage)
	}
	if len(pe.Progress) == 0 {
		t.Fatal("traced failure carries no progress counters")
	}
	seen := map[string]bool{}
	for _, c := range pe.Progress {
		seen[c.Name] = true
	}
	// ATPG finished before the failing stage, so its counters must be there.
	if !seen["atpg_deterministic_patterns"] && !seen["atpg_backtracks_total"] {
		t.Fatalf("progress snapshot misses upstream counters: %+v", pe.Progress)
	}
}

// TestConfigValidate pins the up-front configuration checks.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"negative vectors", func(c *Config) { c.RandomVectors = -1 }, "RandomVectors"},
		{"negative backtracks", func(c *Config) { c.BacktrackLimit = -5 }, "BacktrackLimit"},
		{"negative yield", func(c *Config) { c.TargetYield = -0.1 }, "TargetYield"},
		{"negative workers", func(c *Config) { c.Workers = -2 }, "Workers"},
		{"yield above one", func(c *Config) { c.TargetYield = 1.5 }, "TargetYield"},
		{"zero stats", func(c *Config) { c.Stats = DefaultConfig().Stats; c.Stats.MaxSize = 0 }, "Stats"},
		{"negative deadline", func(c *Config) { c.Deadline = -time.Second }, "Deadline"},
		{"unknown stage budget", func(c *Config) {
			c.StageBudgets = map[string]time.Duration{"warp-drive": time.Second}
		}, "unknown stage"},
		{"non-positive budget", func(c *Config) {
			c.StageBudgets = map[string]time.Duration{"atpg": 0}
		}, "must be > 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("Validate accepted a broken config")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if _, rerr := Run(netlist.C17(), cfg); rerr == nil {
				t.Fatal("Run accepted a config Validate rejects")
			}
		})
	}
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("DefaultConfig fails validation: %v", err)
	}
	cfg.TargetYield = 0 // documented: disables scaling
	if err := cfg.Validate(); err != nil {
		t.Fatalf("zero TargetYield must validate: %v", err)
	}
	cfg.Workers = 4 // explicit pool size
	if err := cfg.Validate(); err != nil {
		t.Fatalf("positive Workers must validate: %v", err)
	}
	cfg.StageBudgets = map[string]time.Duration{"atpg": time.Hour, "switch-sim": time.Hour}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid stage budgets rejected: %v", err)
	}
}

// TestRunCachedCorruptionFallback pins the cache-hardening contract:
// every corruption mode falls back to a fresh run (no error), records the
// fallback, and rewrites a healthy cache.
func TestRunCachedCorruptionFallback(t *testing.T) {
	nl := netlist.RippleAdder(3)
	cfg := smallConfig()
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.json")

	if _, _, err := RunCachedCtx(context.Background(), nl, cfg, path); err != nil {
		t.Fatal(err)
	}
	healthy, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	corruptions := []struct {
		name    string
		corrupt func(t *testing.T)
	}{
		{"garbage", func(t *testing.T) {
			if err := os.WriteFile(path, []byte("not json at all"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated", func(t *testing.T) {
			if err := os.WriteFile(path, healthy[:len(healthy)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"checksum mismatch", func(t *testing.T) {
			// Flip one byte inside the payload without breaking JSON:
			// patterns hold only 0/1 digits, so turn a "0" into a "1"
			// somewhere after the checksum field.
			data := append([]byte(nil), healthy...)
			at := strings.Index(string(data), `"patterns"`)
			if at < 0 {
				t.Fatal("no patterns field in cache payload")
			}
			for i := at; i < len(data); i++ {
				if data[i] == '0' {
					data[i] = '1'
					break
				}
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"version skew", func(t *testing.T) {
			data := []byte(strings.Replace(string(healthy), fmt.Sprintf(`"version":%d`, cacheVersion), `"version":99`, 1))
			if string(data) == string(healthy) {
				t.Fatal("version field not found for skewing")
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			tc.corrupt(t)
			c := cfg
			c.Obs = obs.New()
			p, hit, err := RunCachedCtx(context.Background(), nl, c, path)
			if err != nil {
				t.Fatalf("corrupt cache must fall back, not fail: %v", err)
			}
			if hit {
				t.Fatal("corrupt cache reported a hit")
			}
			found := false
			for _, d := range p.Degradations {
				if d.Stage == "cache" {
					found = true
				}
			}
			if !found {
				t.Fatalf("no cache degradation recorded: %+v", p.Degradations)
			}
			counters := map[string]int64{}
			for _, cs := range p.Report.Counters {
				counters[cs.Name] = cs.Value
			}
			if counters["pipeline_cache_corrupt"] != 1 {
				t.Fatalf("pipeline_cache_corrupt = %d, want 1", counters["pipeline_cache_corrupt"])
			}
			// The rewrite restored a healthy cache.
			if _, hit, err := RunCachedCtx(context.Background(), nl, cfg, path); err != nil || !hit {
				t.Fatalf("refreshed cache must hit (hit=%v err=%v)", hit, err)
			}
		})
	}
}

// TestRunCachedSaveFailureDegrades: an unwritable cache path degrades the
// run instead of failing it.
func TestRunCachedSaveFailureDegrades(t *testing.T) {
	nl := netlist.RippleAdder(3)
	cfg := smallConfig()
	path := filepath.Join(t.TempDir(), "no-such-dir", "cache.json")
	p, hit, err := RunCachedCtx(context.Background(), nl, cfg, path)
	if err != nil {
		t.Fatalf("unwritable cache must degrade, not fail: %v", err)
	}
	if hit {
		t.Fatal("phantom cache hit")
	}
	found := false
	for _, d := range p.Degradations {
		if d.Stage == "cache" && strings.Contains(d.Reason, "write failed") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no cache-write degradation recorded: %+v", p.Degradations)
	}
}

// TestRunCtxCleanRunUnchanged: without injection, budgets or deadlines,
// the hardened path produces the exact same results as before.
func TestRunCtxCleanRunUnchanged(t *testing.T) {
	cfg := smallConfig()
	p1, err := Run(netlist.C17(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := RunCtx(context.Background(), netlist.C17(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Degraded() || p2.Degraded() {
		t.Fatal("clean run reports degradations")
	}
	if p1.TestSet.Incomplete || p2.TestSet.Incomplete {
		t.Fatal("clean run has incomplete test set")
	}
	if got, want := p2.TestSet.Coverage(true), p1.TestSet.Coverage(true); got != want {
		t.Fatalf("coverage differs: %v vs %v", got, want)
	}
	c1, c2 := p1.ThetaCurve(false), p2.ThetaCurve(false)
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("Θ curve differs at %d", i)
		}
	}
	if p1.SwitchRes.VectorsApplied != len(p1.TestSet.Patterns) {
		t.Fatalf("clean run applied %d/%d vectors", p1.SwitchRes.VectorsApplied, len(p1.TestSet.Patterns))
	}
}
