package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"defectsim/internal/faultinject"
	"defectsim/internal/obs"
)

// testKey returns a distinct valid 32-hex key per seed.
func testKey(seed byte) string {
	sum := sha256.Sum256([]byte{seed})
	return hex.EncodeToString(sum[:16])
}

// testEnvelope seals the given payload as a version-3 envelope.
func testEnvelope(t *testing.T, payload string) []byte {
	t.Helper()
	data, err := Seal(3, []byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestValidKey(t *testing.T) {
	if !ValidKey(testKey(1)) {
		t.Fatalf("ValidKey rejected %q", testKey(1))
	}
	for _, bad := range []string{
		"", "short", strings.Repeat("g", 32), strings.Repeat("A", 32),
		"../" + strings.Repeat("a", 29), strings.Repeat("a", 33),
	} {
		if ValidKey(bad) {
			t.Errorf("ValidKey accepted %q", bad)
		}
	}
}

// TestVerifyEnvelope covers the damage Open, and so VerifyEnvelope, must
// catch: each rejected input would otherwise reach the payload decoder
// as a plausible result.
func TestVerifyEnvelope(t *testing.T) {
	good := testEnvelope(t, `{"circuit":"c17"}`)
	if err := VerifyEnvelope(good); err != nil {
		t.Fatalf("valid envelope rejected: %v", err)
	}
	emptySum := sha256.Sum256(nil)
	for name, data := range map[string][]byte{
		"truncated": good[:len(good)-1],
		// Corrupt the payload under an unchanged checksum.
		"flipped byte":     bytes.Replace(good, []byte(`"c17"`), []byte(`"c18"`), 1),
		"missing checksum": []byte(`{"version":3,"payload":{"circuit":"c17"}}`),
		// The checksum of zero bytes matches an absent payload, so only
		// the emptiness check stands between this and an accepted blob.
		"empty payload": []byte(`{"version":3,"checksum":"` + hex.EncodeToString(emptySum[:]) + `"}`),
	} {
		if _, _, err := Open(data); err == nil {
			t.Errorf("%s: Open accepted %s", name, data)
		}
	}
}

// TestSealWireFormat pins the envelope bytes. Existing cache directories
// and peers running other builds exchange exactly these blobs, so the
// field order, the field names and the checksum encoding must not drift.
func TestSealWireFormat(t *testing.T) {
	payload := `{"circuit":"c17","dl":[0.5,1e-3]}`
	want := `{"version":3,` +
		`"checksum":"5867ec86635fb72cf6201288a3ffed04c7f27926492debdeb5c7ab103970dc48",` +
		`"payload":{"circuit":"c17","dl":[0.5,1e-3]}}`
	got, err := Seal(3, []byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("Seal = %s\nwant   %s", got, want)
	}
	version, body, err := Open(got)
	if err != nil || version != 3 || string(body) != payload {
		t.Fatalf("Open(Seal) = %d, %s, %v", version, body, err)
	}
}

func TestFSRoundTrip(t *testing.T) {
	reg := obs.New().Metrics()
	fs, err := NewFS(t.TempDir(), NewMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	key := testKey(2)
	data := testEnvelope(t, `{"n":1}`)

	if _, err := fs.Get(ctx, key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get on empty store: %v, want ErrNotFound", err)
	}
	if ok, err := fs.Stat(ctx, key); err != nil || ok {
		t.Fatalf("Stat on empty store = %v, %v", ok, err)
	}
	if err := fs.Put(ctx, key, data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Get(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatalf("Get returned %q, want %q", got, data)
	}
	if ok, err := fs.Stat(ctx, key); err != nil || !ok {
		t.Fatalf("Stat after Put = %v, %v", ok, err)
	}
	// Idempotent re-put.
	if err := fs.Put(ctx, key, data); err != nil {
		t.Fatalf("re-Put: %v", err)
	}
	if _, err := fs.Get(ctx, "../../etc/passwd"); err == nil {
		t.Fatal("traversal key accepted")
	}
}

func TestFSConcurrentSameKeyPuts(t *testing.T) {
	fs, err := NewFS(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	key := testKey(3)
	data := testEnvelope(t, `{"big":"payload"}`)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fs.Put(ctx, key, data); err != nil {
				t.Errorf("Put: %v", err)
			}
		}()
	}
	wg.Wait()
	got, err := fs.Get(ctx, key)
	if err != nil || string(got) != string(data) {
		t.Fatalf("after concurrent puts: %q, %v", got, err)
	}
}

func TestAtomicWriteInjectedCrashLeavesTargetUntouched(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "entry.json")
	if err := AtomicWrite(path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("crash before rename")
	var sawTmp string
	var tmpBytes []byte
	restore := faultinject.Set(faultinject.HookCacheWrite, func(ctx context.Context) error {
		sawTmp = faultinject.TargetFrom(ctx)
		tmpBytes, _ = os.ReadFile(sawTmp)
		return boom
	})
	defer restore()
	if err := AtomicWrite(path, []byte("new content")); !errors.Is(err, boom) {
		t.Fatalf("AtomicWrite = %v, want injected error", err)
	}
	// The hook fires after write+fsync: the temp file must already hold
	// the complete new bytes (the sync-before-rename ordering), and the
	// aborted commit must leave the destination on its old content with
	// the temp file cleaned up.
	if string(tmpBytes) != "new content" {
		t.Fatalf("temp file at hook time held %q, want complete new bytes", tmpBytes)
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Fatalf("destination after aborted write = %q, want old content", got)
	}
	if _, err := os.Stat(sawTmp); !os.IsNotExist(err) {
		t.Fatalf("temp file not cleaned up: %v", err)
	}
}

func TestFSStoreHooks(t *testing.T) {
	fs, err := NewFS(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("store injected")
	restore := faultinject.Set(faultinject.HookStoreGet, faultinject.ForTarget("fs", faultinject.Fail(boom)))
	defer restore()
	if _, err := fs.Get(context.Background(), testKey(4)); !errors.Is(err, boom) {
		t.Fatalf("hooked Get = %v, want injected error", err)
	}
}

// failingStore errors every operation — the dead-remote stand-in.
type failingStore struct{ err error }

func (f failingStore) Get(context.Context, string) ([]byte, error) { return nil, f.err }
func (f failingStore) Put(context.Context, string, []byte) error   { return f.err }
func (f failingStore) Stat(context.Context, string) (bool, error)  { return false, f.err }
func (f failingStore) Name() string                                { return "failing" }

// memStore is a map-backed Store for composition tests.
type memStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMemStore() *memStore { return &memStore{m: map[string][]byte{}} }

func (s *memStore) Get(_ context.Context, key string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.m[key]; ok {
		return d, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
}

func (s *memStore) Put(_ context.Context, key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = append([]byte(nil), data...)
	return nil
}

func (s *memStore) Stat(_ context.Context, key string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.m[key]
	return ok, nil
}

func (s *memStore) Name() string { return "mem" }

// newOneRemote layers local over remote the way dlprojd -store-remote
// does: Replicated over OneRemote.
func newOneRemote(t *testing.T, local, remote Store, m *Metrics) *Replicated {
	t.Helper()
	r, err := NewReplicated(local, OneRemote(remote), m)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestOneRemoteHitBackfillsLocal(t *testing.T) {
	local, remote := newMemStore(), newMemStore()
	r := newOneRemote(t, local, remote, NewMetrics(obs.New().Metrics()))
	ctx := context.Background()
	key := testKey(5)
	data := testEnvelope(t, `{"from":"remote"}`)
	if err := remote.Put(ctx, key, data); err != nil {
		t.Fatal(err)
	}
	got, err := r.Get(ctx, key)
	if err != nil || string(got) != string(data) {
		t.Fatalf("one-remote Get = %q, %v", got, err)
	}
	if ok, _ := local.Stat(ctx, key); !ok {
		t.Fatal("remote hit did not backfill the local tier")
	}
}

func TestOneRemoteDegradesToLocalOnRemoteFailure(t *testing.T) {
	local := newMemStore()
	reg := obs.New().Metrics()
	r := newOneRemote(t, local, failingStore{err: errors.New("remote down")}, NewMetrics(reg))
	ctx := context.Background()
	key := testKey(6)
	data := testEnvelope(t, `{"local":"only"}`)

	// Put must succeed (local tier) despite the dead remote.
	if err := r.Put(ctx, key, data); err != nil {
		t.Fatalf("Put with dead remote: %v", err)
	}
	if got, err := r.Get(ctx, key); err != nil || string(got) != string(data) {
		t.Fatalf("Get of local entry = %q, %v", got, err)
	}
	// A miss with a dead remote is a miss, not an error.
	if _, err := r.Get(ctx, testKey(7)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get with dead remote = %v, want ErrNotFound", err)
	}
	if ok, err := r.Stat(ctx, testKey(7)); err != nil || ok {
		t.Fatalf("Stat with dead remote = %v, %v, want false, nil", ok, err)
	}
	// The failed copy to the remote was counted as dropped.
	rep := reg.CounterVec("store_replicate_total", "peer", "outcome")
	if got := rep.With("remote", "dropped").Value(); got != 1 {
		t.Fatalf("store_replicate_total{remote,dropped} = %d, want 1", got)
	}
}
