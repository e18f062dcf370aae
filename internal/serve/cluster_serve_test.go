package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"defectsim/internal/cluster"
	"defectsim/internal/experiments"
	"defectsim/internal/faultinject"
	"defectsim/internal/obs"
	"defectsim/internal/store"
)

// The multi-node tests run a real ring in one process: each node is a
// full Server behind its own httptest listener, with cluster clients
// dialing the others over loopback HTTP. Fault injection at the network
// hook (HookNetRequest) kills peers the way the real world does — at the
// transport — so forwarding, failover and breaker recovery are exercised
// end to end under -race.

// fleetNode is one in-process cluster member.
type fleetNode struct {
	name string
	dir  string // the node's FS store root
	s    *Server
	ts   *httptest.Server
}

// host returns the node's loopback host:port — the HookNetRequest target
// that identifies traffic to this node.
func (n *fleetNode) host() string { return strings.TrimPrefix(n.ts.URL, "http://") }

// fleetOptions are cluster client timings scaled for loopback tests:
// fast retries, a 2-failure breaker, sub-second cooldown.
func fleetOptions() cluster.Options {
	return cluster.Options{
		MaxAttempts:       2,
		BaseDelay:         time.Millisecond,
		MaxDelay:          5 * time.Millisecond,
		PerAttemptTimeout: 5 * time.Second,
		BreakerThreshold:  2,
		BreakerCooldown:   150 * time.Millisecond,
		PollInterval:      2 * time.Millisecond,
	}
}

// newFleet starts n Servers wired into one consistent-hash ring. The
// listeners must exist before the cluster views (each needs every peer's
// URL), so each httptest server starts on a late-bound handler installed
// once its Server is built.
func newFleet(t *testing.T, n int) []*fleetNode {
	return newFleetRF(t, n, 1)
}

// newFleetRF is newFleet with a replication factor.
func newFleetRF(t *testing.T, n, rf int) []*fleetNode {
	t.Helper()
	nodes := make([]*fleetNode, n)
	handlers := make([]atomic.Value, n) // of http.Handler
	for i := range nodes {
		i := i
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h, _ := handlers[i].Load().(http.Handler)
			if h == nil {
				http.Error(w, "node starting", http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		}))
		nodes[i] = &fleetNode{name: fmt.Sprintf("node-%d", i), dir: t.TempDir(), ts: ts}
	}
	for i, nd := range nodes {
		var specs []cluster.PeerSpec
		for j, other := range nodes {
			if j != i {
				specs = append(specs, cluster.PeerSpec{Name: other.name, URL: other.ts.URL})
			}
		}
		tr := obs.New()
		opts := fleetOptions()
		opts.RF = rf
		cl, err := cluster.New(nd.name, specs, tr.Metrics(), opts)
		if err != nil {
			t.Fatalf("cluster.New(%s): %v", nd.name, err)
		}
		nd.s = New(Config{
			Workers:    2,
			QueueDepth: 8,
			CacheDir:   nd.dir,
			Cluster:    cl,
			Obs:        tr,
		})
		handlers[i].Store(nd.s.Handler())
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			nd.s.Drain(ctx)
			cancel()
			nd.ts.Close()
		}
	})
	return nodes
}

// bodyOwnedBy searches seeds from seedBase up for a c17 submission whose
// cache key the ring assigns to wantOwner, returning the request body and
// the key. Seed bases keep concurrent call sites from colliding on a key.
func bodyOwnedBy(t *testing.T, ring *cluster.Ring, limits Config, wantOwner string, seedBase int64) (string, string) {
	t.Helper()
	for seed := seedBase; seed < seedBase+4096; seed++ {
		body := fmt.Sprintf(`{"circuit":"c17","random_vectors":48,"seed":%d}`, seed)
		_, cfg, nl, err := DecodeRequest([]byte(body), limits)
		if err != nil {
			t.Fatalf("DecodeRequest: %v", err)
		}
		key := experiments.CacheKey(nl.Name, cfg)
		if ring.Owner(key) == wantOwner {
			return body, key
		}
	}
	t.Fatalf("no seed in [%d, %d) produced a key owned by %s", seedBase, seedBase+4096, wantOwner)
	return "", ""
}

func jobEvents(t *testing.T, ts *httptest.Server, id string) []JobEvent {
	t.Helper()
	code, data := get(t, ts.URL+"/v1/pipeline/"+id+"/events?poll=1&wait_ms=0")
	if code != http.StatusOK {
		t.Fatalf("events %s = %d: %s", id, code, data)
	}
	return decode[pollEventsResponse](t, data).Events
}

func hasEvent(evs []JobEvent, typ string) bool {
	for _, ev := range evs {
		if ev.Type == typ {
			return true
		}
	}
	return false
}

// TestClusterForwardSmoke runs a two-node ring: a submission landing on
// the non-owner is forwarded to the owner, executed there, fetched back
// through the owner's store API, and backfilled locally; a batch mixing
// locally- and remotely-owned items completes on both sides.
func TestClusterForwardSmoke(t *testing.T) {
	nodes := newFleet(t, 2)
	n0, n1 := nodes[0], nodes[1]
	ctx := context.Background()

	body, key := bodyOwnedBy(t, n0.s.cfg.Cluster.Ring(), n0.s.cfg, n1.name, 1)
	st := submitJob(t, n0.ts, body)
	code, data := waitResult(t, n0.ts, st.ID)
	if code != http.StatusOK {
		t.Fatalf("forwarded job result = %d: %s", code, data)
	}
	res := decode[jobResult](t, data)
	if res.Degraded {
		t.Fatalf("forwarded job degraded: %v", res.Degradations)
	}
	if !res.CacheHit {
		t.Fatalf("forwarded job not marked as an adopted (cache-hit) result")
	}
	evs := jobEvents(t, n0.ts, st.ID)
	if !hasEvent(evs, EventForwarded) {
		t.Fatalf("job events missing %q: %+v", EventForwarded, evs)
	}
	if hasEvent(evs, EventForwardFallback) {
		t.Fatalf("healthy forward fell back to local: %+v", evs)
	}

	// The owner computed it; both stores hold the envelope afterwards.
	if runs := n1.s.Metrics().Counter("serve_pipeline_runs").Value(); runs < 1 {
		t.Fatalf("owner ran %d pipelines, want >= 1", runs)
	}
	for _, nd := range nodes {
		if ok, err := nd.s.Store().Stat(ctx, key); err != nil || !ok {
			t.Fatalf("%s store missing key %s (ok=%v err=%v)", nd.name, key, ok, err)
		}
	}
	fwd := n0.s.Metrics().CounterVec("cluster_forward_total", "peer", "outcome")
	if got := fwd.With(n1.name, "ok").Value(); got != 1 {
		t.Fatalf("cluster_forward_total{%s,ok} = %d, want 1", n1.name, got)
	}

	// Batch across the ring: one item owned here, one owned by the peer.
	localBody, _ := bodyOwnedBy(t, n0.s.cfg.Cluster.Ring(), n0.s.cfg, n0.name, 500)
	remoteBody, _ := bodyOwnedBy(t, n0.s.cfg.Cluster.Ring(), n0.s.cfg, n1.name, 1000)
	bcode, _, bdata := post(t, n0.ts.URL+"/v1/pipeline:batch",
		fmt.Sprintf(`{"items":[%s,%s]}`, localBody, remoteBody))
	if bcode != http.StatusOK {
		t.Fatalf("batch = %d: %s", bcode, bdata)
	}
	bresp := decode[batchResponse](t, bdata)
	for _, it := range bresp.Items {
		if it.Status != "accepted" || it.Job == nil {
			t.Fatalf("batch item %d = %+v, want accepted", it.Index, it)
		}
		if code, data := waitResult(t, n0.ts, it.Job.ID); code != http.StatusOK {
			t.Fatalf("batch item %d result = %d: %s", it.Index, code, data)
		}
	}
	// n0 built the c17 front end once, adopting the first result; the
	// batch's local run and its second adoption shared it.
	fe := n0.s.Metrics().CounterVec("pipeline_frontend_total", "outcome")
	if h, m := fe.With("hit").Value(), fe.With("miss").Value(); h != 2 || m != 1 {
		t.Fatalf("n0 pipeline_frontend_total hit=%d miss=%d, want 2 and 1", h, m)
	}
}

// TestClusterPeerKillFailover kills the owning peer at the network and
// verifies the submitting node falls back to a local run (the job still
// succeeds), the peer's breaker opens, and — once the network heals and
// the cooldown elapses — the half-open probe closes it and forwarding
// resumes.
func TestClusterPeerKillFailover(t *testing.T) {
	nodes := newFleet(t, 2)
	n0, n1 := nodes[0], nodes[1]
	br := n0.s.cfg.Cluster.Peer(n1.name).Breaker()
	var mu sync.Mutex
	var transitions []store.BreakerState
	br.OnChange(func(_, to store.BreakerState) {
		mu.Lock()
		transitions = append(transitions, to)
		mu.Unlock()
	})

	// Kill node-1: every network attempt against it fails at the transport.
	restore := faultinject.Set(faultinject.HookNetRequest,
		faultinject.ForTarget(n1.host(), faultinject.Fail(errors.New("injected: peer down"))))
	body, key := bodyOwnedBy(t, n0.s.cfg.Cluster.Ring(), n0.s.cfg, n1.name, 2000)
	st := submitJob(t, n0.ts, body)
	code, data := waitResult(t, n0.ts, st.ID)
	if code != http.StatusOK {
		t.Fatalf("failover job result = %d: %s", code, data)
	}
	if res := decode[jobResult](t, data); res.Degraded {
		t.Fatalf("failover job degraded: %v", res.Degradations)
	}
	if !hasEvent(jobEvents(t, n0.ts, st.ID), EventForwardFallback) {
		t.Fatalf("failover job has no %q event", EventForwardFallback)
	}
	if got := br.State(); got != store.BreakerOpen {
		t.Fatalf("breaker after peer kill = %v, want open", got)
	}
	if ok, err := n0.s.Store().Stat(context.Background(), key); err != nil || !ok {
		t.Fatalf("fallback run not persisted locally (ok=%v err=%v)", ok, err)
	}
	fb := n0.s.Metrics().CounterVec("cluster_fallback_local_total", "reason")
	if got := fb.With("submit_error").Value(); got != 1 {
		t.Fatalf("cluster_fallback_local_total{submit_error} = %d, want 1", got)
	}

	// Heal the network; after the cooldown the next forward is the
	// half-open probe and must close the breaker.
	restore()
	time.Sleep(250 * time.Millisecond) // > BreakerCooldown
	body2, _ := bodyOwnedBy(t, n0.s.cfg.Cluster.Ring(), n0.s.cfg, n1.name, 3000)
	st2 := submitJob(t, n0.ts, body2)
	if code, data := waitResult(t, n0.ts, st2.ID); code != http.StatusOK {
		t.Fatalf("post-recovery job result = %d: %s", code, data)
	}
	if !hasEvent(jobEvents(t, n0.ts, st2.ID), EventForwarded) {
		t.Fatalf("post-recovery job was not forwarded")
	}
	if got := br.State(); got != store.BreakerClosed {
		t.Fatalf("breaker after recovery = %v, want closed", got)
	}
	mu.Lock()
	seq := append([]store.BreakerState(nil), transitions...)
	mu.Unlock()
	want := []store.BreakerState{store.BreakerOpen, store.BreakerHalfOpen, store.BreakerClosed}
	if len(seq) != len(want) {
		t.Fatalf("breaker transitions = %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("breaker transitions = %v, want %v", seq, want)
		}
	}
}

// TestClusterChaos is the acceptance chaos run: a three-node ring serving
// a campaign of jobs while one peer is killed mid-run at the network and
// later recovers. Every job must reach a terminal (done) state, every
// persisted envelope on every node must be bitwise-identical to a
// single-node reference execution, the dead peer's breaker must open and
// then half-open/close on recovery, and no store may hold anything but
// complete, verified envelopes.
func TestClusterChaos(t *testing.T) {
	nodes := newFleet(t, 3)
	n0, victim := nodes[0], nodes[1]
	ring := n0.s.cfg.Cluster.Ring()
	limits := n0.s.cfg
	ctx := context.Background()

	// Reference envelopes: the exact bytes a single-node execution of each
	// campaign body persists (the cache payload is deterministic given the
	// result-determining config).
	refEnv := map[string][]byte{}
	reference := func(body string) {
		t.Helper()
		key, env := envelopeFor(t, body, limits)
		refEnv[key] = env
	}

	submitAndWait := func(body string) jobStatus {
		t.Helper()
		st := submitJob(t, n0.ts, body)
		if code, data := waitResult(t, n0.ts, st.ID); code != http.StatusOK {
			t.Fatalf("job %s result = %d: %s", st.ID, code, data)
		}
		return st
	}

	br := n0.s.cfg.Cluster.Peer(victim.name).Breaker()
	var mu sync.Mutex
	var transitions []store.BreakerState
	br.OnChange(func(_, to store.BreakerState) {
		mu.Lock()
		transitions = append(transitions, to)
		mu.Unlock()
	})

	// Phase A — healthy ring: one job per owner, all submitted to node-0,
	// exercising local execution and forwarding to both peers.
	bodySelf, _ := bodyOwnedBy(t, ring, limits, nodes[0].name, 100)
	bodyPeer2, _ := bodyOwnedBy(t, ring, limits, nodes[2].name, 200)
	bodyVictimA, _ := bodyOwnedBy(t, ring, limits, victim.name, 300)
	for _, body := range []string{bodySelf, bodyPeer2, bodyVictimA} {
		reference(body)
		submitAndWait(body)
	}
	fwd := n0.s.Metrics().CounterVec("cluster_forward_total", "peer", "outcome")
	if got := fwd.With(victim.name, "ok").Value(); got != 1 {
		t.Fatalf("phase A: cluster_forward_total{%s,ok} = %d, want 1", victim.name, got)
	}

	// Phase B — kill the victim mid-campaign, and mid-job: the forwarded
	// submission reaches it (one network exchange succeeds), then the
	// network dies under the status polls. The job must fall back to a
	// local run and still finish; two transport failures open the breaker.
	restore := faultinject.Set(faultinject.HookNetRequest,
		faultinject.ForTarget(victim.host(),
			faultinject.After(2, faultinject.Fail(errors.New("injected: peer died mid-run")))))
	bodyVictimB, _ := bodyOwnedBy(t, ring, limits, victim.name, 400)
	reference(bodyVictimB)
	stB := submitAndWait(bodyVictimB)
	if !hasEvent(jobEvents(t, n0.ts, stB.ID), EventForwardFallback) {
		t.Fatalf("phase B: mid-run peer death did not fall back locally")
	}
	if got := br.State(); got != store.BreakerOpen {
		t.Fatalf("phase B: breaker = %v, want open", got)
	}
	// With the breaker open, further victim-owned jobs fail fast to local
	// runs without burning timeouts.
	bodyVictimC, _ := bodyOwnedBy(t, ring, limits, victim.name, 500)
	reference(bodyVictimC)
	submitAndWait(bodyVictimC)
	fb := n0.s.Metrics().CounterVec("cluster_fallback_local_total", "reason")
	if got := fb.With("poll_error").Value() + fb.With("submit_error").Value(); got < 2 {
		t.Fatalf("phase B: local fallbacks = %d, want >= 2", got)
	}

	// Phase C — recovery: heal the network, wait out the cooldown, and
	// forward again. The half-open probe must close the breaker.
	restore()
	time.Sleep(250 * time.Millisecond) // > BreakerCooldown
	bodyVictimD, _ := bodyOwnedBy(t, ring, limits, victim.name, 600)
	reference(bodyVictimD)
	stD := submitAndWait(bodyVictimD)
	if !hasEvent(jobEvents(t, n0.ts, stD.ID), EventForwarded) {
		t.Fatalf("phase C: post-recovery job was not forwarded")
	}
	if got := br.State(); got != store.BreakerClosed {
		t.Fatalf("phase C: breaker = %v, want closed", got)
	}
	mu.Lock()
	seq := append([]store.BreakerState(nil), transitions...)
	mu.Unlock()
	// The breaker may flap (a half-open probe against the still-dead peer
	// re-opens it) depending on how phase B's local runs land against the
	// cooldown; what must hold is: it opened first, it half-opened at some
	// point, and it ended closed.
	if len(seq) < 3 || seq[0] != store.BreakerOpen || seq[len(seq)-1] != store.BreakerClosed {
		t.Fatalf("breaker transitions = %v, want open first and closed last", seq)
	}
	sawHalfOpen := false
	for _, st := range seq {
		if st == store.BreakerHalfOpen {
			sawHalfOpen = true
		}
	}
	if !sawHalfOpen {
		t.Fatalf("breaker transitions = %v, never half-opened", seq)
	}

	// Every key the campaign produced must be present on the submitting
	// node, bitwise-identical to the single-node reference.
	for key, want := range refEnv {
		got, err := n0.s.Store().Get(ctx, key)
		if err != nil {
			t.Fatalf("node-0 store get %s: %v", key, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("node-0 envelope for %s differs from single-node reference", key)
		}
	}
	// And no store anywhere may hold anything else: every file on every
	// node is a campaign key whose bytes verify and match the reference —
	// in particular, no degraded or partial run was ever persisted.
	for _, nd := range nodes {
		entries, err := os.ReadDir(nd.dir)
		if err != nil {
			t.Fatalf("read %s store dir: %v", nd.name, err)
		}
		for _, e := range entries {
			key := strings.TrimSuffix(e.Name(), ".json")
			want, known := refEnv[key]
			if !known {
				t.Fatalf("%s store holds non-campaign entry %s", nd.name, e.Name())
			}
			data, err := os.ReadFile(filepath.Join(nd.dir, e.Name()))
			if err != nil {
				t.Fatalf("read %s/%s: %v", nd.name, e.Name(), err)
			}
			if err := store.VerifyEnvelope(data); err != nil {
				t.Fatalf("%s store entry %s fails verification: %v", nd.name, e.Name(), err)
			}
			if !bytes.Equal(data, want) {
				t.Fatalf("%s envelope for %s differs from single-node reference", nd.name, key)
			}
		}
	}
}
