package experiments

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"defectsim/internal/faultinject"
	"defectsim/internal/netlist"
	"defectsim/internal/obs"
)

func TestRunCachedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.json")
	nl := netlist.RippleAdder(3)
	cfg := smallConfig()

	p1, hit, err := RunCachedCtx(context.Background(), nl, cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first run cannot hit the cache")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal("cache file missing")
	}

	p2, hit, err := RunCachedCtx(context.Background(), netlist.RippleAdder(3), cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("second run must hit the cache")
	}
	// Every derived curve must be identical.
	c1, c2 := p1.ThetaCurve(false), p2.ThetaCurve(false)
	if len(c1) != len(c2) {
		t.Fatal("curve length mismatch")
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("Θ curve differs at %d: %+v vs %+v", i, c1[i], c2[i])
		}
	}
	t1, t2 := p1.TCurve(), p2.TCurve()
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatal("T curve differs")
		}
	}
	if p1.Yield != p2.Yield {
		t.Fatal("yield differs")
	}
	f1, f2 := Figure5(p1), Figure5(p2)
	if f1.Fitted != f2.Fitted {
		t.Fatalf("fit differs: %+v vs %+v", f1.Fitted, f2.Fitted)
	}
	assertSameRun(t, "cache hit", p1, p2)
	// A study that re-simulates on the restored results matches the fresh
	// run's.
	gs := []float64{20, 1.5}
	st1, err := RunResistiveBridgeStudy(context.Background(), p1, gs)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := RunResistiveBridgeStudy(context.Background(), p2, gs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st1, st2) {
		t.Fatalf("resistive sweep on the cache hit %+v, on the fresh run %+v", st2, st1)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := DecodeCached(context.Background(), netlist.RippleAdder(3), cfg, data)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, "DecodeCached", p1, p3)
}

// TestRunCachedDegradedNotSaved pins the cache-poisoning guard: a run cut
// short by a stage budget holds partial results and must never be written
// to the result cache — the key excludes execution budgets, so a later
// unconstrained request would hit the partial data and be served it as
// complete. The degraded run is delivered but not persisted; the next
// unconstrained run misses, completes in full, and populates the cache.
func TestRunCachedDegradedNotSaved(t *testing.T) {
	restore := faultinject.Set(faultinject.HookATPGFault, faultinject.Sleep(5*time.Millisecond))
	defer restore()

	dir := t.TempDir()
	path := filepath.Join(dir, "cache.json")
	cfg := smallConfig()
	cfg.RandomVectors = 0
	cfg.Obs = obs.New()
	cfg.StageBudgets = map[string]time.Duration{"atpg": 20 * time.Millisecond}

	p, hit, err := RunCachedCtx(context.Background(), netlist.C17(), cfg, path)
	if err != nil {
		t.Fatalf("budget exhaustion must degrade, not fail: %v", err)
	}
	if hit {
		t.Fatal("first run cannot hit the cache")
	}
	if !p.ResultDegraded() {
		t.Fatalf("run is not result-degraded (degradations: %+v)", p.Degradations)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("degraded run was written to the result cache")
	}
	if got := cfg.Obs.Metrics().Counter("pipeline_cache_save_skipped_degraded").Value(); got != 1 {
		t.Fatalf("pipeline_cache_save_skipped_degraded = %d, want 1", got)
	}
	// EncodeCache itself refuses degraded pipelines (defense in depth for
	// any future direct caller).
	if _, err := p.EncodeCache(); err == nil {
		t.Fatal("EncodeCache accepted a result-degraded run")
	}

	// The same result-determining config without budgets: a miss (never a
	// hit on partial data), a complete run, and a populated cache.
	restore()
	cfg2 := smallConfig()
	cfg2.RandomVectors = 0
	cfg2.Obs = obs.New()
	p2, hit, err := RunCachedCtx(context.Background(), netlist.C17(), cfg2, path)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("unconstrained run hit a cache that must not have been written")
	}
	if p2.Degraded() {
		t.Fatalf("unconstrained run degraded: %+v", p2.Degradations)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal("complete run did not populate the cache")
	}

	// And the populated cache now serves complete, undegraded hits.
	p3, hit, err := RunCachedCtx(context.Background(), netlist.C17(), cfg2, path)
	if err != nil || !hit {
		t.Fatalf("complete-run cache must hit (hit=%v err=%v)", hit, err)
	}
	if p3.Degraded() {
		t.Fatalf("cache hit reports degradation: %+v", p3.Degradations)
	}
	if len(p3.TestSet.Patterns) != len(p2.TestSet.Patterns) {
		t.Fatalf("cache hit has %d patterns, fresh complete run had %d",
			len(p3.TestSet.Patterns), len(p2.TestSet.Patterns))
	}
}

func TestRunCachedInvalidation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.json")
	cfg := smallConfig()
	if _, _, err := RunCachedCtx(context.Background(), netlist.RippleAdder(3), cfg, path); err != nil {
		t.Fatal(err)
	}
	// Different circuit: miss.
	if _, hit, err := RunCachedCtx(context.Background(), netlist.MuxTree(2), cfg, path); err != nil || hit {
		t.Fatalf("different circuit must miss (hit=%v err=%v)", hit, err)
	}
	// Different config: miss.
	cfg2 := cfg
	cfg2.Seed++
	if _, hit, err := RunCachedCtx(context.Background(), netlist.MuxTree(2), cfg2, path); err != nil || hit {
		t.Fatal("different config must miss")
	}
	// Corrupt file: miss, then refreshed.
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := RunCachedCtx(context.Background(), netlist.RippleAdder(3), cfg, path); err != nil || hit {
		t.Fatal("corrupt cache must miss")
	}
	if _, hit, err := RunCachedCtx(context.Background(), netlist.RippleAdder(3), cfg, path); err != nil || !hit {
		t.Fatal("refreshed cache must hit")
	}
}
