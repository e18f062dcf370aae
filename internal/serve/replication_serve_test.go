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
	"sync/atomic"
	"testing"
	"time"

	"defectsim/internal/cluster"
	"defectsim/internal/experiments"
	"defectsim/internal/faultinject"
	"defectsim/internal/obs"
	"defectsim/internal/store"
)

// bodyWithOwners searches seeds from seedBase up for a c17 submission
// whose rf=2 replica set is exactly [primary, secondary], returning the
// request body and the key.
func bodyWithOwners(t *testing.T, ring *cluster.Ring, limits Config, primary, secondary string, seedBase int64) (string, string) {
	t.Helper()
	for seed := seedBase; seed < seedBase+8192; seed++ {
		body := fmt.Sprintf(`{"circuit":"c17","random_vectors":48,"seed":%d}`, seed)
		_, cfg, nl, err := DecodeRequest([]byte(body), limits)
		if err != nil {
			t.Fatalf("DecodeRequest: %v", err)
		}
		key := experiments.CacheKey(nl.Name, cfg)
		owners := ring.OwnersFor(key, 2)
		if len(owners) == 2 && owners[0] == primary && owners[1] == secondary {
			return body, key
		}
	}
	t.Fatalf("no seed in [%d, %d) produced owners [%s, %s]", seedBase, seedBase+8192, primary, secondary)
	return "", ""
}

func computedRuns(nd *fleetNode) int64 {
	return nd.s.Metrics().Counter("serve_pipeline_computed_total").Value()
}

// TestClusterReplicaChaos is the rf=2 acceptance chaos run on a
// three-node ring: a key's primary owner is killed mid-campaign, and the
// fleet must degrade to "fetch from replica" — never "re-simulate" — then
// heal itself. Phases:
//
//	A. healthy: a forwarded job computes on its primary and fans out to
//	   the secondary — rf copies exist when the job settles.
//	B. primary killed: the same key is served from the secondary's
//	   replica copy (replica_hit, zero new computes); a NEW key owned by
//	   the dead node is computed by the surviving replica, whose copy for
//	   the corpse is dropped.
//	C. recovery: the breaker closes, the NEW key is resubmitted, and the
//	   revived primary read-repairs it from the replica instead of
//	   recomputing — every copy on every owner is bitwise identical to a
//	   single-node run.
func TestClusterReplicaChaos(t *testing.T) {
	nodes := newFleetRF(t, 3, 2)
	n0, victim, rep := nodes[0], nodes[1], nodes[2]
	ring := n0.s.cfg.Cluster.Ring()
	limits := n0.s.cfg
	ctx := context.Background()

	submitAndWait := func(body string) (jobStatus, jobResult) {
		t.Helper()
		st := submitJob(t, n0.ts, body)
		code, data := waitResult(t, n0.ts, st.ID)
		if code != http.StatusOK {
			t.Fatalf("job %s result = %d: %s", st.ID, code, data)
		}
		res := decode[jobResult](t, data)
		if res.Degraded {
			t.Fatalf("job %s degraded: %v", st.ID, res.Degradations)
		}
		return st, res
	}

	// Phase A — healthy: keyA's replica set is [victim, rep]; submitted
	// through n0 it forwards to the victim, which computes and fans out.
	bodyA, keyA := bodyWithOwners(t, ring, limits, victim.name, rep.name, 100)
	refKeyA, refA := envelopeFor(t, bodyA, limits)
	if refKeyA != keyA {
		t.Fatalf("reference key %s != submission key %s", refKeyA, keyA)
	}
	submitAndWait(bodyA)
	for _, nd := range []*fleetNode{victim, rep} {
		got, err := nd.s.Store().Get(ctx, keyA)
		if err != nil || !bytes.Equal(got, refA) {
			t.Fatalf("phase A: %s copy of %s = %v (err %v), want reference bytes", nd.name, keyA, len(got), err)
		}
	}
	if c := computedRuns(victim); c != 1 {
		t.Fatalf("phase A: victim computed %d pipelines, want 1", c)
	}
	if c := computedRuns(n0) + computedRuns(rep); c != 0 {
		t.Fatalf("phase A: non-owners computed %d pipelines, want 0", c)
	}

	// Phase B — kill the primary at the network. Re-submitting keyA must
	// be served from the replica's copy: no node simulates anything.
	restore := faultinject.Set(faultinject.HookNetRequest,
		faultinject.ForTarget(victim.host(), faultinject.Fail(errors.New("injected: owner killed"))))
	stB, resB := submitAndWait(bodyA)
	if !resB.CacheHit {
		t.Fatalf("phase B: replica-served job not marked as adopted result")
	}
	if !hasEvent(jobEvents(t, n0.ts, stB.ID), EventReplicaFetch) {
		t.Fatalf("phase B: job events missing %q", EventReplicaFetch)
	}
	fwd := n0.s.Metrics().CounterVec("cluster_forward_total", "peer", "outcome")
	if got := fwd.With(rep.name, "replica_hit").Value(); got != 1 {
		t.Fatalf("phase B: cluster_forward_total{%s,replica_hit} = %d, want 1", rep.name, got)
	}
	if c := computedRuns(n0) + computedRuns(victim) + computedRuns(rep); c != 1 {
		t.Fatalf("phase B: fleet computed %d pipelines total, want still 1 (no re-simulation)", c)
	}

	// Still phase B: a NEW key owned by [victim, rep]. The dead primary
	// cannot take it; the replica computes it as stand-in and its copy
	// for the corpse is dropped.
	bodyB, keyB := bodyWithOwners(t, ring, limits, victim.name, rep.name, 4000)
	_, refB := envelopeFor(t, bodyB, limits)
	submitAndWait(bodyB)
	if c := computedRuns(rep); c != 1 {
		t.Fatalf("phase B: replica computed %d pipelines, want 1 (stand-in for dead owner)", c)
	}
	if got := fwd.With(rep.name, "ok").Value(); got != 1 {
		t.Fatalf("phase B: cluster_forward_total{%s,ok} = %d, want 1", rep.name, got)
	}
	repl := rep.s.Metrics().CounterVec("store_replicate_total", "peer", "outcome")
	if got := repl.With(victim.name, "dropped").Value(); got != 1 {
		t.Fatalf("phase B: store_replicate_total{%s,dropped} = %d, want 1", victim.name, got)
	}
	if ok, _ := victim.s.Store().Stat(ctx, keyB); ok {
		t.Fatalf("phase B: dead owner has %s before recovery", keyB)
	}

	// Phase C — revive the owner. Probes through n0's client half-open
	// its breaker once the cooldown has passed; a successful one closes
	// it. Resubmitted, keyB forwards to the revived primary, whose store
	// walk finds the replica's copy and read-repairs its own.
	restore()
	victimPeer := n0.s.cfg.Cluster.Peer(victim.name)
	deadline := time.Now().Add(15 * time.Second)
	for victimPeer.Breaker().State() != store.BreakerClosed {
		if time.Now().After(deadline) {
			t.Fatalf("phase C: n0's breaker for %s still %v", victim.name, victimPeer.Breaker().State())
		}
		_, _ = victimPeer.Store().Stat(ctx, keyB)
		time.Sleep(10 * time.Millisecond)
	}
	stC, _ := submitAndWait(bodyB)
	if !hasEvent(jobEvents(t, n0.ts, stC.ID), EventForwarded) {
		t.Fatalf("phase C: resubmitted job was not forwarded to the revived primary")
	}
	rr := victim.s.Metrics().CounterVec("store_read_repair_total", "target", "outcome")
	if got := rr.With("self", "ok").Value(); got < 1 {
		t.Fatalf("phase C: victim store_read_repair_total{self,ok} = %d, want >= 1", got)
	}

	// Convergence: every owner holds every campaign key, bitwise-identical
	// to the single-node reference; the fleet computed each key exactly
	// once, and the submitting node never computed at all.
	for _, probe := range []struct {
		key string
		ref []byte
	}{{keyA, refA}, {keyB, refB}} {
		for _, nd := range []*fleetNode{victim, rep} {
			got, err := nd.s.Store().Get(ctx, probe.key)
			if err != nil {
				t.Fatalf("converged %s missing %s: %v", nd.name, probe.key, err)
			}
			if !bytes.Equal(got, probe.ref) {
				t.Fatalf("%s envelope for %s differs from single-node reference", nd.name, probe.key)
			}
			if err := store.VerifyEnvelope(got); err != nil {
				t.Fatalf("%s envelope for %s fails verification: %v", nd.name, probe.key, err)
			}
		}
	}
	if c := computedRuns(n0); c != 0 {
		t.Fatalf("submitting node computed %d pipelines, want 0", c)
	}
	if c := computedRuns(victim) + computedRuns(rep); c != 2 {
		t.Fatalf("fleet computed %d pipelines for 2 distinct keys, want exactly 2", c)
	}
}

// TestClusterMembershipReloadZeroDrops grows a live ring under load: a
// node serving in-flight jobs reloads its peers file (via the loopback
// HTTP endpoint) to admit a new member. Every job submitted before and
// during the swap must reach done undegraded, and post-reload
// submissions must forward to the new member.
func TestClusterMembershipReloadZeroDrops(t *testing.T) {
	// Three real servers; node-0's membership starts as {node-0, node-1}
	// from a peers file and learns node-2 mid-campaign.
	names := []string{"node-0", "node-1", "node-2"}
	nodes := make([]*fleetNode, 3)
	handlers := make([]atomic.Value, 3)
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
		nodes[i] = &fleetNode{name: names[i], dir: t.TempDir(), ts: ts}
	}
	peersPath := filepath.Join(t.TempDir(), "peers.conf")
	writePeers := func(s string) {
		t.Helper()
		if err := os.WriteFile(peersPath, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writePeers("node-1=" + nodes[1].ts.URL + "\n")
	for i, nd := range nodes {
		tr := obs.New()
		var specs []cluster.PeerSpec
		if i == 0 {
			specs = []cluster.PeerSpec{{Name: "node-1", URL: nodes[1].ts.URL}}
		} else {
			for j, other := range nodes {
				if j != i {
					specs = append(specs, cluster.PeerSpec{Name: other.name, URL: other.ts.URL})
				}
			}
		}
		cl, err := cluster.New(nd.name, specs, tr.Metrics(), fleetOptions())
		if err != nil {
			t.Fatalf("cluster.New(%s): %v", nd.name, err)
		}
		cfg := Config{Workers: 2, QueueDepth: 16, CacheDir: nd.dir, Cluster: cl, Obs: tr}
		if i == 0 {
			cfg.Membership = cluster.NewMembership(cl, peersPath, "")
		}
		nd.s = New(cfg)
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
	n0 := nodes[0]

	// Slow every pipeline a little so the reload genuinely lands while
	// jobs are queued and running.
	restore := faultinject.Set(faultinject.HookGateSimBlock, faultinject.Sleep(5*time.Millisecond))
	defer restore()

	// A campaign of distinct jobs, submitted before the swap.
	var ids []string
	for seed := int64(0); seed < 10; seed++ {
		body := fmt.Sprintf(`{"circuit":"c17","random_vectors":48,"seed":%d}`, 9000+seed)
		ids = append(ids, submitJob(t, n0.ts, body).ID)
	}

	// Mid-flight: admit node-2 through the peers file + reload endpoint.
	writePeers("node-1=" + nodes[1].ts.URL + "\nnode-2=" + nodes[2].ts.URL + "\n")
	code, _, data := post(t, n0.ts.URL+"/v1/cluster/reload", "")
	if code != http.StatusOK {
		t.Fatalf("cluster reload = %d: %s", code, data)
	}
	ch := decode[cluster.MembershipChange](t, data)
	if len(ch.Joined) != 1 || ch.Joined[0] != "node-2" || len(ch.Left) != 0 {
		t.Fatalf("reload change = %+v, want joined [node-2]", ch)
	}
	if len(ch.Nodes) != 3 {
		t.Fatalf("reload nodes = %v, want all three", ch.Nodes)
	}
	if got := n0.s.cfg.Cluster.Ring().Len(); got != 3 {
		t.Fatalf("ring after reload has %d nodes, want 3", got)
	}

	// Zero dropped: every in-flight job settles done and clean.
	for _, id := range ids {
		code, data := waitResult(t, n0.ts, id)
		if code != http.StatusOK {
			t.Fatalf("job %s after reload = %d: %s", id, code, data)
		}
		if res := decode[jobResult](t, data); res.Degraded {
			t.Fatalf("job %s degraded across reload: %v", id, res.Degradations)
		}
	}

	// The new member takes traffic: a key it owns under the new ring
	// forwards to it. (Campaign jobs still queued at swap time may already
	// have forwarded there — the counter must at least grow by this one.)
	fwd := n0.s.Metrics().CounterVec("cluster_forward_total", "peer", "outcome")
	fwdBefore := fwd.With("node-2", "ok").Value()
	body, _ := bodyOwnedBy(t, n0.s.cfg.Cluster.Ring(), n0.s.cfg, "node-2", 20000)
	st := submitJob(t, n0.ts, body)
	if code, data := waitResult(t, n0.ts, st.ID); code != http.StatusOK {
		t.Fatalf("post-reload job = %d: %s", code, data)
	}
	if !hasEvent(jobEvents(t, n0.ts, st.ID), EventForwarded) {
		t.Fatalf("post-reload job for node-2 was not forwarded")
	}
	if got := fwd.With("node-2", "ok").Value(); got <= fwdBefore {
		t.Fatalf("cluster_forward_total{node-2,ok} = %d, want > %d", got, fwdBefore)
	}

	// A half-written peers file must be rejected (422) and change nothing.
	writePeers("node-1=" + nodes[1].ts.URL + "\ngarbage\n")
	code, _, data = post(t, n0.ts.URL+"/v1/cluster/reload", "")
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("reload of invalid file = %d: %s", code, data)
	}
	if got := n0.s.cfg.Cluster.Ring().Len(); got != 3 {
		t.Fatalf("failed reload changed the ring: %d nodes", got)
	}

	// Nodes without a membership source 404 the endpoint.
	code, _, _ = post(t, nodes[1].ts.URL+"/v1/cluster/reload", "")
	if code != http.StatusNotFound {
		t.Fatalf("reload without membership source = %d, want 404", code)
	}
}

func TestRequestFromLoopback(t *testing.T) {
	cases := map[string]bool{
		"127.0.0.1:4312": true,
		"[::1]:9":        true,
		"10.0.0.9:1234":  false,
		"8.8.8.8:53":     false,
		"not-an-addr":    false,
		"":               false,
	}
	for addr, want := range cases {
		r := &http.Request{RemoteAddr: addr}
		if got := requestFromLoopback(r); got != want {
			t.Errorf("requestFromLoopback(%q) = %v, want %v", addr, got, want)
		}
	}
}

// TestReadyzRingStateAndReloadWindow: /readyz reports the ring (node
// count, rf, members), and answers 503 "reloading" while a membership
// swap is mid-flight.
func TestReadyzRingStateAndReloadWindow(t *testing.T) {
	nodes := newFleetRF(t, 2, 2)
	n0 := nodes[0]

	code, data := get(t, n0.ts.URL+"/readyz")
	if code != http.StatusOK {
		t.Fatalf("readyz = %d: %s", code, data)
	}
	body := decode[readyzBody](t, data)
	if body.Status != "ready" || body.Ring == nil {
		t.Fatalf("readyz body = %+v, want ready with ring block", body)
	}
	if body.Ring.Self != "node-0" || body.Ring.Nodes != 2 || body.Ring.RF != 2 {
		t.Fatalf("readyz ring = %+v, want self node-0, 2 nodes, rf 2", body.Ring)
	}
	if len(body.Ring.Members) != 2 || body.Ring.Members[0] != "node-0" || body.Ring.Members[1] != "node-1" {
		t.Fatalf("readyz members = %v", body.Ring.Members)
	}

	// Hold a reload between view build and swap: readyz must flip to 503
	// "reloading" for the duration, then recover.
	hold := make(chan struct{})
	entered := make(chan struct{})
	restore := faultinject.Set(faultinject.HookMembershipReload,
		faultinject.ForTarget("node-0", func(context.Context) error {
			close(entered)
			<-hold
			return nil
		}))
	defer restore()
	done := make(chan error, 1)
	go func() {
		_, _, err := n0.s.cfg.Cluster.Reload([]cluster.PeerSpec{{Name: "node-1", URL: nodes[1].ts.URL}})
		done <- err
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("reload never reached the swap window")
	}
	code, data = get(t, n0.ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("readyz mid-reload = %d: %s", code, data)
	}
	if body := decode[readyzBody](t, data); body.Status != "reloading" {
		t.Fatalf("readyz mid-reload status = %q, want reloading", body.Status)
	}
	close(hold)
	if err := <-done; err != nil {
		t.Fatalf("reload: %v", err)
	}
	if code, _ := get(t, n0.ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after reload = %d, want 200", code)
	}
}
