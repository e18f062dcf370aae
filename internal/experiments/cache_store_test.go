package experiments

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"defectsim/internal/faultinject"
	"defectsim/internal/netlist"
	"defectsim/internal/obs"
	"defectsim/internal/store"
)

// TestSaveEnvelopeIsStoreCompatible pins the wire contract between the
// experiments cache and the store layer: every byte stream EncodeCache
// produces, and the cache file RunCached writes, must pass
// store.VerifyEnvelope, or remote peers would reject locally-valid
// results.
func TestSaveEnvelopeIsStoreCompatible(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	p, _, err := RunCached(netlist.C17(), smallConfig(), path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := p.EncodeCache()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.VerifyEnvelope(data); err != nil {
		t.Fatalf("EncodeCache output fails store.VerifyEnvelope: %v", err)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.VerifyEnvelope(onDisk); err != nil {
		t.Fatalf("cache file fails store.VerifyEnvelope: %v", err)
	}
}

// TestSaveCrashBeforeRenameKeepsOldCache is the fsync-ordering
// regression test for the durable atomic write: the cache.write hook
// fires after the temp file is written and synced but before the rename
// commits, so an injected crash there must leave the destination on its
// previous (complete, valid) content with the temp file already holding
// the full new bytes.
func TestSaveCrashBeforeRenameKeepsOldCache(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	cfg := smallConfig()
	p, _, err := RunCached(netlist.C17(), cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := p.EncodeCache()
	if err != nil {
		t.Fatal(err)
	}

	boom := errors.New("crash before rename")
	var tmpAtHook []byte
	restore := faultinject.Set(faultinject.HookCacheWrite, func(ctx context.Context) error {
		tmpAtHook, _ = os.ReadFile(faultinject.TargetFrom(ctx))
		return boom
	})
	defer restore()
	if err := (fileStore{path: path}).Put(context.Background(), "", data); !errors.Is(err, boom) {
		t.Fatalf("Put = %v, want the injected crash", err)
	}
	if got, _ := os.ReadFile(path); string(got) != string(before) {
		t.Fatal("aborted Put changed the destination file")
	}
	// The sync-before-rename ordering: at hook time the temp file already
	// held the complete envelope (it verifies end to end).
	if err := store.VerifyEnvelope(tmpAtHook); err != nil {
		t.Fatalf("temp file at crash point is not a complete envelope: %v", err)
	}
}

// TestRunCachedTruncatedMidEnvelope pins the corrupt-fallback path for
// the realistic failure: a cache file cut short mid-envelope (torn disk,
// partial copy). The truncated file must read as corrupt — never as a
// hit, never as an error — and the fresh run must rewrite it.
func TestRunCachedTruncatedMidEnvelope(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	cfg := smallConfig()
	nl := netlist.C17()
	if _, _, err := RunCached(nl, cfg, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate inside the payload: still ASCII JSON prefix, no longer a
	// parseable envelope.
	if err := os.WriteFile(path, data[:len(data)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}

	cfg.Obs = obs.New()
	p, hit, err := RunCachedCtx(context.Background(), nl, cfg, path)
	if err != nil {
		t.Fatalf("truncated cache must fall back, not fail: %v", err)
	}
	if hit {
		t.Fatal("truncated cache served a hit")
	}
	if got := cfg.Obs.Metrics().Counter("pipeline_cache_corrupt").Value(); got != 1 {
		t.Fatalf("pipeline_cache_corrupt = %d, want 1", got)
	}
	found := false
	for _, d := range p.Degradations {
		if d.Stage == "cache" {
			found = true
		}
	}
	if !found {
		t.Fatalf("corrupt fallback not recorded as a cache degradation: %+v", p.Degradations)
	}
	// The fresh run refreshed the file: next call hits a valid envelope.
	if refreshed, err := os.ReadFile(path); err != nil || store.VerifyEnvelope(refreshed) != nil {
		t.Fatalf("fresh run did not rewrite a valid cache file (err=%v)", err)
	}
	cfg2 := smallConfig()
	if _, hit, err := RunCached(nl, cfg2, path); err != nil || !hit {
		t.Fatalf("refreshed cache must hit (hit=%v err=%v)", hit, err)
	}
}

// TestRunStoredRoundTrip exercises the store-backed engine against the
// FS backend: miss → run → persisted under the circuit's CacheKey; a
// second call is a hit with identical simulation results.
func TestRunStoredRoundTrip(t *testing.T) {
	fs, err := store.NewFS(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	nl := netlist.C17()
	ctx := context.Background()

	p1, hit, err := RunStoredCtx(ctx, nl, cfg, fs)
	if err != nil || hit {
		t.Fatalf("first RunStoredCtx: hit=%v err=%v", hit, err)
	}
	key := CacheKey(nl.Name, cfg)
	if ok, _ := fs.Stat(ctx, key); !ok {
		t.Fatal("run not persisted under its cache key")
	}
	p2, hit, err := RunStoredCtx(ctx, netlist.C17(), cfg, fs)
	if err != nil || !hit {
		t.Fatalf("second RunStoredCtx: hit=%v err=%v", hit, err)
	}
	if len(p1.TestSet.Patterns) != len(p2.TestSet.Patterns) || p1.Yield != p2.Yield {
		t.Fatal("stored hit differs from the original run")
	}

	// The persisted envelope round-trips through the forward-path decoder.
	data, err := fs.Get(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := DecodeCached(ctx, netlist.C17(), cfg, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(p3.TestSet.Patterns) != len(p1.TestSet.Patterns) {
		t.Fatal("DecodeCached differs from the original run")
	}
	// And the decoder refuses bytes for a different config.
	other := cfg
	other.Seed++
	if _, err := DecodeCached(ctx, netlist.C17(), other, data); err == nil {
		t.Fatal("DecodeCached accepted an envelope for a different config")
	}
}

// TestRunStoredDegradedNotPersisted extends the cache-poisoning guard to
// store backends: a budget-degraded run is returned but never written.
func TestRunStoredDegradedNotPersisted(t *testing.T) {
	restore := faultinject.Set(faultinject.HookATPGFault, faultinject.Sleep(5*time.Millisecond))
	defer restore()
	fs, err := store.NewFS(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.RandomVectors = 0
	cfg.Obs = obs.New()
	cfg.StageBudgets = map[string]time.Duration{"atpg": 20 * time.Millisecond}
	ctx := context.Background()

	p, hit, err := RunStoredCtx(ctx, netlist.C17(), cfg, fs)
	if err != nil || hit {
		t.Fatalf("degraded RunStoredCtx: hit=%v err=%v", hit, err)
	}
	if !p.ResultDegraded() {
		t.Fatalf("run is not result-degraded: %+v", p.Degradations)
	}
	if ok, _ := fs.Stat(ctx, CacheKey("c17", cfg)); ok {
		t.Fatal("degraded run was persisted to the store")
	}
	if got := cfg.Obs.Metrics().Counter("pipeline_cache_save_skipped_degraded").Value(); got != 1 {
		t.Fatalf("pipeline_cache_save_skipped_degraded = %d, want 1", got)
	}
}
