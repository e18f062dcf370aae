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
// ordered owner list, and each owner's store can be swapped mid-test to
// simulate death and recovery.
type fakeReplicaSet struct {
	self   string
	owners []string

	mu     sync.Mutex
	stores map[string]Store
}

func (f *fakeReplicaSet) Self() string           { return f.self }
func (f *fakeReplicaSet) Owners(string) []string { return append([]string(nil), f.owners...) }
func (f *fakeReplicaSet) ReplicaStore(name string) Store {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stores[name]
}

func (f *fakeReplicaSet) setStore(name string, st Store) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if st == nil {
		delete(f.stores, name)
		return
	}
	f.stores[name] = st
}

// throttledStore sheds every Put with a 429-shaped Throttled error.
type throttledStore struct {
	*memStore
	retryAfter time.Duration
}

func (s *throttledStore) Put(_ context.Context, key string, _ []byte) error {
	return &Throttled{Key: key, RetryAfter: s.retryAfter}
}

func newReplicated(t *testing.T, rs *fakeReplicaSet, withSpool bool) (*Replicated, *memStore, *obs.Registry) {
	t.Helper()
	reg := obs.New().Metrics()
	m := NewMetrics(reg)
	local := newMemStore()
	var sp *Spool
	if withSpool {
		var err error
		sp, err = NewSpool(t.TempDir(), 0, m)
		if err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewReplicated(local, rs, sp, m)
	if err != nil {
		t.Fatal(err)
	}
	return r, local, reg
}

func TestReplicatedPutFansOut(t *testing.T) {
	b := newMemStore()
	rs := &fakeReplicaSet{self: "a", owners: []string{"a", "b"}, stores: map[string]Store{"b": b}}
	r, local, reg := newReplicated(t, rs, true)
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
	if r.Spool().Depth() != 0 {
		t.Fatalf("healthy fan-out left %d hints", r.Spool().Depth())
	}
}

func TestReplicatedPutSpoolsOnFailureAndReplays(t *testing.T) {
	rs := &fakeReplicaSet{self: "a", owners: []string{"a", "b"}, stores: map[string]Store{
		"b": failingStore{err: errors.New("replica down")},
	}}
	r, _, reg := newReplicated(t, rs, true)
	ctx := context.Background()
	key := testKey(31)
	data := testEnvelope(t, `{"hint":"me"}`)

	// The replica is dead: Put still succeeds (local copy is the source of
	// truth) and the failed fan-out becomes a durable hint.
	if err := r.Put(ctx, key, data); err != nil {
		t.Fatalf("Put with dead replica: %v", err)
	}
	rep := reg.CounterVec("store_replicate_total", "peer", "outcome")
	if got := rep.With("b", "spooled").Value(); got != 1 {
		t.Fatalf("store_replicate_total{b,spooled} = %d, want 1", got)
	}
	if got := r.Spool().Depth(); got != 1 {
		t.Fatalf("spool depth = %d, want 1", got)
	}
	if got := reg.Gauge("store_hint_spool_depth").Value(); got != 1 {
		t.Fatalf("store_hint_spool_depth = %v, want 1", got)
	}

	// Replay against the still-dead replica: the error stops the drain and
	// the hint stays queued.
	if replayed, remaining := r.Replay(ctx); replayed != 0 || remaining != 1 {
		t.Fatalf("Replay against dead replica = %d, %d, want 0, 1", replayed, remaining)
	}

	// The replica recovers: replay pushes the envelope and clears the hint.
	b := newMemStore()
	rs.setStore("b", b)
	replayed, remaining := r.Replay(ctx)
	if replayed != 1 || remaining != 0 {
		t.Fatalf("Replay after recovery = %d, %d, want 1, 0", replayed, remaining)
	}
	got, err := b.Get(ctx, key)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("replica copy after replay = %q, %v", got, err)
	}
	hr := reg.CounterVec("store_hints_replayed_total", "peer", "outcome")
	if got := hr.With("b", "ok").Value(); got != 1 {
		t.Fatalf("store_hints_replayed_total{b,ok} = %d, want 1", got)
	}
	if got := reg.Gauge("store_hint_spool_depth").Value(); got != 0 {
		t.Fatalf("store_hint_spool_depth after drain = %v, want 0", got)
	}
}

// TestReplicatedThrottledDefersHint pins satellite semantics: a 429 from
// a replica is back-pressure, not death — the hint is deferred by
// Retry-After (floored at 1s) and replay skips it until that instant.
func TestReplicatedThrottledDefersHint(t *testing.T) {
	rs := &fakeReplicaSet{self: "a", owners: []string{"a", "b"}, stores: map[string]Store{
		"b": &throttledStore{memStore: newMemStore(), retryAfter: 5 * time.Second},
	}}
	r, _, reg := newReplicated(t, rs, true)
	base := time.Now()
	r.now = func() time.Time { return base }
	ctx := context.Background()
	key := testKey(32)
	data := testEnvelope(t, `{"shed":"me"}`)

	if err := r.Put(ctx, key, data); err != nil {
		t.Fatalf("Put against throttling replica: %v", err)
	}
	rep := reg.CounterVec("store_replicate_total", "peer", "outcome")
	if got := rep.With("b", "throttled").Value(); got != 1 {
		t.Fatalf("store_replicate_total{b,throttled} = %d, want 1", got)
	}
	hints := r.Spool().Pending("b")
	if len(hints) != 1 {
		t.Fatalf("pending hints = %v, want one", hints)
	}
	if want := base.Add(5 * time.Second); !hints[0].NotBefore.Equal(want) {
		t.Fatalf("hint NotBefore = %v, want %v", hints[0].NotBefore, want)
	}

	// Replay before NotBefore: the hint is skipped, still pending, and no
	// Put reaches the shedding peer.
	rs.setStore("b", newMemStore())
	if replayed, remaining := r.Replay(ctx); replayed != 0 || remaining != 1 {
		t.Fatalf("early Replay = %d, %d, want 0, 1", replayed, remaining)
	}
	// Past NotBefore the hint drains.
	r.now = func() time.Time { return base.Add(6 * time.Second) }
	if replayed, remaining := r.Replay(ctx); replayed != 1 || remaining != 0 {
		t.Fatalf("due Replay = %d, %d, want 1, 0", replayed, remaining)
	}

	// The 1s floor: a zero Retry-After still defers by one second.
	rs.setStore("b", &throttledStore{memStore: newMemStore()})
	key2 := testKey(33)
	if err := r.Put(ctx, key2, testEnvelope(t, `{"floor":1}`)); err != nil {
		t.Fatal(err)
	}
	h2 := r.Spool().Pending("b")
	if len(h2) != 1 || !h2[0].NotBefore.Equal(base.Add(6*time.Second).Add(time.Second)) {
		t.Fatalf("floored hint = %+v, want NotBefore now+1s", h2)
	}
}

func TestReplicatedGetReadRepairs(t *testing.T) {
	b, c := newMemStore(), newMemStore()
	rs := &fakeReplicaSet{self: "a", owners: []string{"b", "a", "c"}, stores: map[string]Store{"b": b, "c": c}}
	r, local, reg := newReplicated(t, rs, true)
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
	r, local, reg := newReplicated(t, rs, true)
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
	r2, _, _ := newReplicated(t, rs2, true)
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

func TestReplicatedReplayDropsDepartedAndMissing(t *testing.T) {
	b := newMemStore()
	rs := &fakeReplicaSet{self: "a", owners: []string{"a", "b"}, stores: map[string]Store{"b": b}}
	r, local, reg := newReplicated(t, rs, true)
	ctx := context.Background()

	// A hint for a peer that has left the membership: dropped outright.
	if err := r.Spool().Add("gone", testKey(38), time.Time{}); err != nil {
		t.Fatal(err)
	}
	// A hint whose envelope no longer exists locally: dropped too.
	if err := r.Spool().Add("b", testKey(39), time.Time{}); err != nil {
		t.Fatal(err)
	}
	// A live hint that must drain.
	key := testKey(40)
	data := testEnvelope(t, `{"live":"hint"}`)
	if err := local.Put(ctx, key, data); err != nil {
		t.Fatal(err)
	}
	if err := r.Spool().Add("b", key, time.Time{}); err != nil {
		t.Fatal(err)
	}

	replayed, remaining := r.Replay(ctx)
	if replayed != 1 || remaining != 0 {
		t.Fatalf("Replay = %d, %d, want 1, 0", replayed, remaining)
	}
	hr := reg.CounterVec("store_hints_replayed_total", "peer", "outcome")
	if got := hr.With("gone", "dropped_member").Value(); got != 1 {
		t.Fatalf("dropped_member = %d, want 1", got)
	}
	if got := hr.With("b", "dropped_missing").Value(); got != 1 {
		t.Fatalf("dropped_missing = %d, want 1", got)
	}
	if got, err := b.Get(ctx, key); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("live hint not delivered: %q, %v", got, err)
	}
}

func TestReplicatedStatWalksOwners(t *testing.T) {
	b := newMemStore()
	rs := &fakeReplicaSet{self: "a", owners: []string{"a", "b"}, stores: map[string]Store{"b": b}}
	r, _, _ := newReplicated(t, rs, false)
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

// TestHTTPPutThrottledSurfacesTyped pins the satellite contract on the
// HTTP store client: a final 429 from a peer's store API surfaces as a
// typed *Throttled carrying Retry-After, and — unlike a transport
// failure — never counts against the peer's breaker. The contrast case
// uses the partial-response injector: short reads are real failures and
// do open the breaker.
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
		err := h.Put(ctx, key, data)
		th, ok := AsThrottled(err)
		if !ok {
			t.Fatalf("Put #%d against shedding peer = %v, want *Throttled", i, err)
		}
		if th.Key != key || th.RetryAfter != 2*time.Second {
			t.Fatalf("Throttled = %+v, want key %s retry-after 2s", th, key)
		}
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
