package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"defectsim/internal/obs"
)

// fakeReplicaSet is a static placement oracle: every key gets the same
// ordered owner list, served by a fixed store per remote owner.
type fakeReplicaSet struct {
	self   string
	owners []string
	stores map[string]Store
}

func (f *fakeReplicaSet) Self() string                   { return f.self }
func (f *fakeReplicaSet) Owners(string) []string         { return append([]string(nil), f.owners...) }
func (f *fakeReplicaSet) ReplicaStore(name string) Store { return f.stores[name] }

func newReplicated(t *testing.T, rs *fakeReplicaSet) (*Replicated, *memStore, *obs.Registry) {
	t.Helper()
	reg := obs.New().Metrics()
	local := newMemStore()
	r, err := NewReplicated(local, rs, NewMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	return r, local, reg
}

func TestReplicatedPutFansOut(t *testing.T) {
	b := newMemStore()
	rs := &fakeReplicaSet{self: "a", owners: []string{"a", "b"}, stores: map[string]Store{"b": b}}
	r, local, reg := newReplicated(t, rs)
	ctx := context.Background()
	key := testKey(30)
	data := testEnvelope(t, `{"fan":"out"}`)

	if err := r.Put(ctx, key, data); err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]Store{"local": local, "replica": b} {
		got, err := st.Get(ctx, key)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s copy after Put = %q, %v", name, got, err)
		}
	}
	rep := reg.CounterVec("store_replicate_total", "peer", "outcome")
	if got := rep.With("b", "ok").Value(); got != 1 {
		t.Fatalf("store_replicate_total{b,ok} = %d, want 1", got)
	}
}

// TestReplicatedPutDropsFailedCopyOwnerReadRepairs: a fan-out that fails
// — a dead replica, or one shedding the write with 429 — never fails the
// Put; the copy is dropped and counted, and the recovered owner's first
// read repairs its own local copy from the writer.
func TestReplicatedPutDropsFailedCopyOwnerReadRepairs(t *testing.T) {
	srv := newStoreServer()
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	srv.failStatus.Store(http.StatusTooManyRequests)
	srv.failLeft.Store(1 << 30)
	shedding := newHTTPStore(t, ts, obs.New().Metrics())

	ctx := context.Background()
	for i, tc := range []struct {
		name    string
		replica Store
	}{
		{"dead", failingStore{err: errors.New("replica down")}},
		{"shedding", shedding},
	} {
		key := testKey(byte(31 + i))
		data := testEnvelope(t, fmt.Sprintf(`{"dropped":%q}`, tc.name))

		// Owner b is the primary and unusable; writer a computes as
		// stand-in. Put succeeds on the local copy alone.
		rs := &fakeReplicaSet{self: "a", owners: []string{"b", "a"}, stores: map[string]Store{"b": tc.replica}}
		r, writer, reg := newReplicated(t, rs)
		if err := r.Put(ctx, key, data); err != nil {
			t.Fatalf("%s: Put = %v, want success on the local copy", tc.name, err)
		}
		rep := reg.CounterVec("store_replicate_total", "peer", "outcome")
		if got := rep.With("b", "dropped").Value(); got != 1 {
			t.Fatalf("%s: store_replicate_total{b,dropped} = %d, want 1", tc.name, got)
		}
		if got := rep.With("b", "ok").Value(); got != 0 {
			t.Fatalf("%s: store_replicate_total{b,ok} = %d, want 0", tc.name, got)
		}

		// b comes back empty: its first Get misses locally, walks the
		// owners, finds the writer's copy and repairs itself.
		brs := &fakeReplicaSet{self: "b", owners: []string{"b", "a"}, stores: map[string]Store{"a": writer}}
		rb, bLocal, breg := newReplicated(t, brs)
		got, err := rb.Get(ctx, key)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s: recovered owner Get = %q, %v", tc.name, got, err)
		}
		if lv, err := bLocal.Get(ctx, key); err != nil || !bytes.Equal(lv, data) {
			t.Fatalf("%s: recovered owner local copy = %q, %v", tc.name, lv, err)
		}
		rr := breg.CounterVec("store_read_repair_total", "target", "outcome")
		if got := rr.With("self", "ok").Value(); got != 1 {
			t.Fatalf("%s: store_read_repair_total{self,ok} = %d, want 1", tc.name, got)
		}
	}
	if got := srv.puts.Load(); got != 0 {
		t.Fatalf("shedding peer accepted %d puts, want 0", got)
	}
}

func TestReplicatedGetReadRepairs(t *testing.T) {
	b, c := newMemStore(), newMemStore()
	rs := &fakeReplicaSet{self: "a", owners: []string{"b", "a", "c"}, stores: map[string]Store{"b": b, "c": c}}
	r, local, reg := newReplicated(t, rs)
	ctx := context.Background()
	key := testKey(34)
	data := testEnvelope(t, `{"repair":"walk"}`)

	// Only the last-ranked owner has the copy; b cleanly misses.
	if err := c.Put(ctx, key, data); err != nil {
		t.Fatal(err)
	}
	got, err := r.Get(ctx, key)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	// The hit read-repaired both the local tier and the missing owner.
	if lv, err := local.Get(ctx, key); err != nil || !bytes.Equal(lv, data) {
		t.Fatalf("local copy after read-repair = %q, %v", lv, err)
	}
	if bv, err := b.Get(ctx, key); err != nil || !bytes.Equal(bv, data) {
		t.Fatalf("owner b after read-repair = %q, %v", bv, err)
	}
	rr := reg.CounterVec("store_read_repair_total", "target", "outcome")
	if got := rr.With("self", "ok").Value(); got != 1 {
		t.Fatalf("store_read_repair_total{self,ok} = %d, want 1", got)
	}
	if got := rr.With("b", "ok").Value(); got != 1 {
		t.Fatalf("store_read_repair_total{b,ok} = %d, want 1", got)
	}

	// A clean miss everywhere is ErrNotFound.
	if _, err := r.Get(ctx, testKey(35)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing everywhere = %v, want ErrNotFound", err)
	}
}

// TestReplicatedGetHealsCorruptLocal: a torn local copy is treated as a
// miss, overwritten by the first verified replica copy.
func TestReplicatedGetHealsCorruptLocal(t *testing.T) {
	b := newMemStore()
	rs := &fakeReplicaSet{self: "a", owners: []string{"a", "b"}, stores: map[string]Store{"b": b}}
	r, local, reg := newReplicated(t, rs)
	ctx := context.Background()
	key := testKey(36)
	data := testEnvelope(t, `{"good":"copy"}`)

	if err := b.Put(ctx, key, data); err != nil {
		t.Fatal(err)
	}
	// Corrupt local bytes under the same key (a crash-torn write).
	if err := local.Put(ctx, key, []byte(`{"version":3,"checksum":"bad"`)); err != nil {
		t.Fatal(err)
	}
	got, err := r.Get(ctx, key)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get with corrupt local = %q, %v", got, err)
	}
	if lv, _ := local.Get(ctx, key); !bytes.Equal(lv, data) {
		t.Fatalf("local copy not healed: %q", lv)
	}
	rr := reg.CounterVec("store_read_repair_total", "target", "outcome")
	if got := rr.With("self", "corrupt_local").Value(); got != 1 {
		t.Fatalf("store_read_repair_total{self,corrupt_local} = %d, want 1", got)
	}

	// A corrupt REPLICA copy is skipped, not served: corrupt b, good c.
	c := newMemStore()
	rs2 := &fakeReplicaSet{self: "a", owners: []string{"b", "c", "a"}, stores: map[string]Store{"b": b, "c": c}}
	r2, _, _ := newReplicated(t, rs2)
	key2 := testKey(37)
	data2 := testEnvelope(t, `{"second":"copy"}`)
	if err := b.Put(ctx, key2, []byte("torn bytes")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(ctx, key2, data2); err != nil {
		t.Fatal(err)
	}
	if got, err := r2.Get(ctx, key2); err != nil || !bytes.Equal(got, data2) {
		t.Fatalf("Get skipping corrupt replica = %q, %v", got, err)
	}
}

func TestReplicatedStatWalksOwners(t *testing.T) {
	b := newMemStore()
	rs := &fakeReplicaSet{self: "a", owners: []string{"a", "b"}, stores: map[string]Store{"b": b}}
	r, _, _ := newReplicated(t, rs)
	ctx := context.Background()
	key := testKey(41)
	if ok, err := r.Stat(ctx, key); err != nil || ok {
		t.Fatalf("Stat missing = %v, %v", ok, err)
	}
	if err := b.Put(ctx, key, testEnvelope(t, `{"s":1}`)); err != nil {
		t.Fatal(err)
	}
	if ok, err := r.Stat(ctx, key); err != nil || !ok {
		t.Fatalf("Stat with replica copy = %v, %v, want true", ok, err)
	}
}

// TestHTTPPutThrottledSurfacesTyped pins the HTTP store client's 429
// contract: a final 429 from a peer's store API fails the Put and is
// counted as store_ops_total{http,put,throttled}, but — unlike a
// transport failure — never counts against the peer's breaker. The
// contrast case uses the partial-response injector: short reads are real
// failures and do open the breaker.
func TestHTTPPutThrottledSurfacesTyped(t *testing.T) {
	srv := newStoreServer()
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	reg := obs.New().Metrics()
	h, err := NewHTTP(ts.URL, HTTPOptions{
		MaxAttempts:       1, // single attempt: no Retry-After sleeps in the test
		BaseDelay:         time.Millisecond,
		MaxDelay:          2 * time.Millisecond,
		PerAttemptTimeout: 2 * time.Second,
		BreakerThreshold:  2,
		BreakerCooldown:   time.Minute,
		Metrics:           NewMetrics(reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	key := testKey(42)
	data := testEnvelope(t, `{"shed":"put"}`)

	// Three consecutive 429s with Retry-After: 2 — well past the breaker
	// threshold if they counted as failures.
	srv.failStatus.Store(http.StatusTooManyRequests)
	srv.retryAfter.Store(2)
	srv.failLeft.Store(3)
	for i := 0; i < 3; i++ {
		if err := h.Put(ctx, key, data); err == nil {
			t.Fatalf("Put #%d against shedding peer succeeded", i)
		}
	}
	ops := reg.CounterVec("store_ops_total", "backend", "op", "outcome")
	if got := ops.With("http", "put", "throttled").Value(); got != 3 {
		t.Fatalf("store_ops_total{http,put,throttled} = %d, want 3", got)
	}
	if st := h.Breaker().State(); st != BreakerClosed {
		t.Fatalf("breaker after 429s = %v, want closed (shedding is not death)", st)
	}
	// The peer stops shedding: the same Put goes straight through.
	if err := h.Put(ctx, key, data); err != nil {
		t.Fatalf("Put after shed window: %v", err)
	}

	// Contrast: partial responses (the injector advertises full
	// Content-Length, sends half) ARE transport failures and open the
	// breaker at the same threshold the 429s never touched.
	srv.partialLeft.Store(2)
	for i := 0; i < 2; i++ {
		if _, err := h.Get(ctx, key); err == nil {
			t.Fatalf("Get #%d with partial response succeeded", i)
		}
	}
	if st := h.Breaker().State(); st != BreakerOpen {
		t.Fatalf("breaker after partial responses = %v, want open", st)
	}
}

// TestOneRemoteBackfillRaceHammer drives concurrent misses, hits and
// puts through a local store layered over one remote so -race can catch
// backfill races: every successful Get must return a complete, verified
// envelope.
func TestOneRemoteBackfillRaceHammer(t *testing.T) {
	local, remote := newMemStore(), newMemStore()
	r := newOneRemote(t, local, remote, NewMetrics(obs.New().Metrics()))
	ctx := context.Background()
	const keys = 8
	want := make(map[string][]byte, keys)
	for i := 0; i < keys; i++ {
		k := testKey(byte(50 + i))
		want[k] = testEnvelope(t, fmt.Sprintf(`{"hammer":%d}`, i))
		// Seed only the remote tier: every first Get races its backfill
		// against the other readers and the writers.
		if err := remote.Put(ctx, k, want[k]); err != nil {
			t.Fatal(err)
		}
	}
	keyAt := func(i int) string { return testKey(byte(50 + i%keys)) }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := keyAt(g + i)
				switch (g + i) % 3 {
				case 0:
					if err := r.Put(ctx, k, want[k]); err != nil {
						t.Errorf("Put %s: %v", k, err)
					}
				case 1:
					if _, err := r.Stat(ctx, k); err != nil {
						t.Errorf("Stat %s: %v", k, err)
					}
				default:
					got, err := r.Get(ctx, k)
					if err != nil {
						t.Errorf("Get %s: %v", k, err)
						continue
					}
					if !bytes.Equal(got, want[k]) {
						t.Errorf("Get %s returned torn or foreign bytes", k)
					}
					if err := VerifyEnvelope(got); err != nil {
						t.Errorf("Get %s returned unverifiable envelope: %v", k, err)
					}
				}
			}
		}()
	}
	wg.Wait()
	// Every key ended fully backfilled into the local tier.
	for k, data := range want {
		got, err := local.Get(ctx, k)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("local tier after hammer: %s = %q, %v", k, got, err)
		}
	}
}
