package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"defectsim/internal/faultinject"
	"defectsim/internal/layout"
	"defectsim/internal/netlist"
	"defectsim/internal/obs"
	"defectsim/internal/store"
	"defectsim/internal/switchsim"
)

// TestSaveEnvelopeIsStoreCompatible pins the wire contract between the
// experiments cache and the store layer: every byte stream EncodeCache
// produces, and the cache file RunCachedCtx writes, must pass
// store.VerifyEnvelope, or remote peers would reject locally-valid
// results.
func TestSaveEnvelopeIsStoreCompatible(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	p, _, err := RunCachedCtx(context.Background(), netlist.C17(), smallConfig(), path)
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
	p, _, err := RunCachedCtx(context.Background(), netlist.C17(), cfg, path)
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
	if _, _, err := RunCachedCtx(context.Background(), nl, cfg, path); err != nil {
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
	if _, hit, err := RunCachedCtx(context.Background(), nl, cfg2, path); err != nil || !hit {
		t.Fatalf("refreshed cache must hit (hit=%v err=%v)", hit, err)
	}
}

// TestRunStoredRoundTrip exercises the store-backed engine against the
// FS backend: miss → run → persisted under the circuit's CacheKey; a
// second call is a hit, and the hit and the forward-path decoder both
// rebuild the cold run bit for bit.
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
	assertSameRun(t, "stored hit", p1, p2)

	// The persisted envelope round-trips through the forward-path decoder.
	data, err := fs.Get(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := DecodeCached(ctx, netlist.C17(), cfg, data)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, "DecodeCached", p1, p3)
	// And the decoder refuses bytes for a different config.
	other := cfg
	other.Seed++
	if _, err := DecodeCached(ctx, netlist.C17(), other, data); err == nil {
		t.Fatal("DecodeCached accepted an envelope for a different config")
	}
}

// assertSameRun pins a pipeline rebuilt from the result store against the
// cold run that stored it: equal envelope bytes and deeply equal
// artifacts. The layout is left out: its metal1 shapes come out in map
// order, so two builds of one netlist differ in shape order (the
// extracted faults do not).
func assertSameRun(t *testing.T, what string, cold, got *Pipeline) {
	t.Helper()
	want, err := cold.EncodeCache()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := got.EncodeCache()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, want) {
		t.Errorf("%s: EncodeCache bytes differ from the cold run's", what)
	}
	for _, c := range []struct {
		field     string
		got, want any
	}{
		{"Faults", got.Faults, cold.Faults},
		{"StuckAt", got.StuckAt, cold.StuckAt},
		{"Circuit", got.Circuit, cold.Circuit},
		{"TestSet", got.TestSet, cold.TestSet},
		{"SwitchRes", got.SwitchRes, cold.SwitchRes},
		{"Ks", got.Ks, cold.Ks},
		{"Yield", got.Yield, cold.Yield},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s: %s differs from the cold run", what, c.field)
		}
	}
}

// reseal rewrites the payload of a cache envelope through mutate and seals
// it again: the checksum verifies, whatever the contents now say.
func reseal(t testing.TB, env []byte, mutate func(cf *cacheFile)) []byte {
	t.Helper()
	_, payload, err := store.Open(env)
	if err != nil {
		t.Fatal(err)
	}
	var cf cacheFile
	if err := json.Unmarshal(payload, &cf); err != nil {
		t.Fatal(err)
	}
	mutate(&cf)
	if payload, err = json.Marshal(&cf); err != nil {
		t.Fatal(err)
	}
	out, err := store.Seal(cacheVersion, payload)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// inconsistentPayloads are checksum-valid payloads whose contents
// disagree with the pipeline the front end rebuilds.
var inconsistentPayloads = []struct {
	name   string
	mutate func(cf *cacheFile)
}{
	{"untestable empty", func(cf *cacheFile) { cf.Untestable = []bool{} }},
	{"aborted short", func(cf *cacheFile) { cf.Aborted = cf.Aborted[1:] }},
	{"iddq_at long", func(cf *cacheFile) { cf.IDDQAt = append(cf.IDDQAt, 1) }},
	{"sa_detected_at short", func(cf *cacheFile) { cf.SADetectedAt = cf.SADetectedAt[1:] }},
	{"sw_detected_at long", func(cf *cacheFile) { cf.SwDetectedAt = append(cf.SwDetectedAt, 1) }},
	{"undecided empty", func(cf *cacheFile) { cf.Undecided = []bool{} }},
	{"fault lists of another build", func(cf *cacheFile) {
		cf.NumFaults++
		cf.SwDetectedAt = append(cf.SwDetectedAt, 0)
		cf.IDDQAt = append(cf.IDDQAt, 0)
		cf.Undecided = append(cf.Undecided, false)
	}},
	{"num_stuck_at off", func(cf *cacheFile) { cf.NumStuckAt-- }},
	{"pattern narrow", func(cf *cacheFile) { cf.Patterns[0] = cf.Patterns[0][1:] }},
	{"pattern wide", func(cf *cacheFile) {
		last := len(cf.Patterns) - 1
		cf.Patterns[last] = append(cf.Patterns[last], 0)
	}},
	{"pattern bit not 0/1", func(cf *cacheFile) { cf.Patterns[0][0] = 2 }},
	{"random_count over patterns", func(cf *cacheFile) { cf.RandomCount = len(cf.Patterns) + 1 }},
	{"random_count negative", func(cf *cacheFile) { cf.RandomCount = -1 }},
}

// TestInconsistentPayloadIsCorrupt pins the restore checks: an envelope
// whose checksum verifies but whose contents disagree with the rebuilt
// front end is never served. DecodeCached returns an error; RunStoredCtx
// counts the entry corrupt, records a "cache" degradation, and the fresh
// run rewrites the entry with the cold run's bytes.
func TestInconsistentPayloadIsCorrupt(t *testing.T) {
	ctx := context.Background()
	cfg := smallConfig()
	cold, err := RunCtx(ctx, netlist.C17(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	env, err := cold.EncodeCache()
	if err != nil {
		t.Fatal(err)
	}
	key := CacheKey("c17", cfg)
	for _, tc := range inconsistentPayloads {
		t.Run(tc.name, func(t *testing.T) {
			poisoned := reseal(t, env, tc.mutate)
			if _, err := DecodeCached(ctx, netlist.C17(), cfg, poisoned); err == nil {
				t.Fatal("DecodeCached accepted an inconsistent payload")
			}

			fs, err := store.NewFS(t.TempDir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.Put(ctx, key, poisoned); err != nil {
				t.Fatal(err)
			}
			c := cfg
			c.Obs = obs.New()
			p, hit, err := RunStoredCtx(ctx, netlist.C17(), c, fs)
			if err != nil || hit {
				t.Fatalf("RunStoredCtx: hit=%v err=%v", hit, err)
			}
			if got := c.Obs.Metrics().Counter("pipeline_cache_corrupt").Value(); got != 1 {
				t.Fatalf("pipeline_cache_corrupt = %d, want 1", got)
			}
			if len(p.Degradations) != 1 || p.Degradations[0].Stage != "cache" {
				t.Fatalf("degradations = %+v, want one cache fallback", p.Degradations)
			}
			if got, err := fs.Get(ctx, key); err != nil || !bytes.Equal(got, env) {
				t.Fatalf("fresh run did not rewrite the entry with the cold run's bytes (err=%v)", err)
			}
		})
	}
}

// goodTraceRows returns the good_trace rows a version-3 entry of p once
// carried: the fault-free machine's state before the first vector and
// after each, one byte per net.
func goodTraceRows(p *Pipeline) [][]byte {
	m := switchsim.NewMachine(p.Circuit)
	row := func() []byte {
		out := make([]byte, p.Circuit.NumNets)
		for n := range out {
			out[n] = byte(m.Val(n))
		}
		return out
	}
	rows := [][]byte{row()}
	for _, vec := range p.Vectors() {
		m.Apply(vec)
		rows = append(rows, row())
	}
	return rows
}

// withGoodTrace reseals env with a good_trace field holding rows, the
// field version-3 entries carried before the campaign stepped its own
// fault-free machine.
func withGoodTrace(t testing.TB, env []byte, rows [][]byte) []byte {
	t.Helper()
	_, payload, err := store.Open(env)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(payload, &fields); err != nil {
		t.Fatal(err)
	}
	if fields["good_trace"], err = json.Marshal(rows); err != nil {
		t.Fatal(err)
	}
	if payload, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	out, err := store.Seal(cacheVersion, payload)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// legacyTraces are the good_trace rows an entry may carry: the fault-free
// machine's states, and three shapes no fault-free machine produces.
var legacyTraces = []struct {
	name   string
	mutate func(rows [][]byte)
}{
	{"valid rows", func([][]byte) {}},
	{"value 9", func(rows [][]byte) {
		for _, row := range rows[1:] {
			for n := 2; n < len(row); n++ {
				row[n] = 9
			}
		}
	}},
	{"GND at V1", func(rows [][]byte) {
		for _, row := range rows {
			row[layout.NetGND] = byte(switchsim.V1)
		}
	}},
	{"first state not the reset state", func(rows [][]byte) {
		copy(rows[0], rows[1])
	}},
}

// TestPoisonedGoodTraceDropped pins that entries written with a
// good_trace field keep serving whatever it holds: the payload parser
// ignores the field, so the store hit restores the cold run's results and
// the n-detect study on it equals the cold run's.
func TestPoisonedGoodTraceDropped(t *testing.T) {
	ctx := context.Background()
	cfg := smallConfig()
	cfg.RandomVectors = 4
	cold, err := RunCtx(ctx, netlist.C17(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	env, err := cold.EncodeCache()
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunNDetectStudy(ctx, cold, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range legacyTraces {
		t.Run(tc.name, func(t *testing.T) {
			rows := goodTraceRows(cold)
			tc.mutate(rows)
			p, err := DecodeCached(ctx, netlist.C17(), cfg, withGoodTrace(t, env, rows))
			if err != nil {
				t.Fatalf("DecodeCached: %v", err)
			}
			assertSameRun(t, tc.name, cold, p)
			got, err := RunNDetectStudy(ctx, p, 4)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n-detect study on the hit: Θ(n) = %v, the cold run's is %v", got.Theta, want.Theta)
			}
		})
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

// FuzzDecodeCached fuzzes the restore behind every store hit. The fuzzed
// bytes are a cache payload, sealed so the checksum always verifies: on
// c17, DecodeCached must either refuse the payload or return a pipeline
// whose every read of the result works, including a study that simulates
// on top of the restored results. A short random prefix keeps the
// payloads small, so minimizing an input (each valid one reruns the c17
// front end) stays cheap.
func FuzzDecodeCached(f *testing.F) {
	ctx := context.Background()
	cfg := smallConfig()
	cfg.RandomVectors = 8
	cold, err := RunCtx(ctx, netlist.C17(), cfg)
	if err != nil {
		f.Fatal(err)
	}
	env, err := cold.EncodeCache()
	if err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{env}
	for _, tc := range inconsistentPayloads {
		seeds = append(seeds, reseal(f, env, tc.mutate))
	}
	for _, tc := range legacyTraces {
		rows := goodTraceRows(cold)
		tc.mutate(rows)
		seeds = append(seeds, withGoodTrace(f, env, rows))
	}
	for _, seed := range seeds {
		_, payload, err := store.Open(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		data, err := store.Seal(cacheVersion, payload)
		if err != nil {
			return // not JSON: the envelope cannot carry it
		}
		p, err := DecodeCached(ctx, netlist.C17(), cfg, data)
		if err != nil {
			return
		}
		p.TestSet.Coverage(true)
		p.TestSet.Counts()
		p.ThetaCurve(true)
		p.GammaCurve()
		for _, k := range []int{0, 1, len(p.TestSet.Patterns), len(p.TestSet.Patterns) + 1} {
			p.SwitchRes.DetectedBy(k, true)
		}
		Figure5(p)
		_ = p.Summary()
		_, _ = RunNDetectStudy(ctx, p, 2)
	})
}
