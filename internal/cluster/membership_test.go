package cluster

import (
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"defectsim/internal/faultinject"
	"defectsim/internal/obs"
	"defectsim/internal/store"
)

func TestParsePeersFile(t *testing.T) {
	// A fleet-shared file: every node lists every member, including this
	// one ("node-a") — the self entry is skipped, not an error.
	data := []byte(`# fleet membership
node-a = http://a:8447
node-b = http://b:8447
node-c=http://c:8447   # trailing comment

node-d=http://d:8447
`)
	specs, err := ParsePeersFile(data, "node-a", "http://a:8447")
	if err != nil {
		t.Fatal(err)
	}
	want := []PeerSpec{
		{"node-b", "http://b:8447"},
		{"node-c", "http://c:8447"},
		{"node-d", "http://d:8447"},
	}
	if len(specs) != len(want) {
		t.Fatalf("ParsePeersFile = %v, want %v", specs, want)
	}
	for i := range want {
		if specs[i] != want[i] {
			t.Fatalf("ParsePeersFile = %v, want %v", specs, want)
		}
	}
	// An empty (or comment-only) file is a valid single-node membership.
	if specs, err := ParsePeersFile([]byte("# nobody\n\n"), "", ""); err != nil || specs != nil {
		t.Fatalf("comment-only file = %v, %v, want nil, nil", specs, err)
	}
}

// TestParsePeersFileErrors pins the line numbers and messages operators
// see when a hand-edited peers file is wrong.
func TestParsePeersFileErrors(t *testing.T) {
	cases := []struct {
		name     string
		in       string
		selfName string
		selfURL  string
		wantErr  string
	}{
		{
			name:    "bad entry with line number",
			in:      "node-b=http://b:1\njust-a-name\n",
			wantErr: `cluster: peers file line 2: bad entry "just-a-name" (want name=url)`,
		},
		{
			name:    "duplicate name with line number",
			in:      "b=http://b:1\n\nb=http://c:1\n",
			wantErr: `cluster: peers file line 3: duplicate peer name "b"`,
		},
		{
			name:    "duplicate address",
			in:      "b=http://shared:1\nc=HTTP://shared:1/\n",
			wantErr: `cluster: peers file line 2: duplicate peer address "HTTP://shared:1/" shared by "b" and "c"`,
		},
		{
			// Only the *self* entry may use the self address; a different
			// name claiming it is a misconfigured fleet.
			name:     "other peer claims self address",
			in:       "a=http://self:8447\nb=http://self:8447/\n",
			selfName: "a",
			selfURL:  "http://self:8447",
			wantErr:  `cluster: peers file line 2: peer "b" uses this node's own address "http://self:8447/"`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParsePeersFile([]byte(tc.in), tc.selfName, tc.selfURL)
			if err == nil {
				t.Fatalf("ParsePeersFile(%q) accepted", tc.in)
			}
			if err.Error() != tc.wantErr {
				t.Fatalf("error = %q, want %q", err, tc.wantErr)
			}
		})
	}
}

// FuzzParsePeersFile fuzzes the peers-file parser: it must never panic,
// and any accepted membership must be internally consistent — unique
// names, unique normalized addresses, never the self name or address.
func FuzzParsePeersFile(f *testing.F) {
	f.Add([]byte("node-b=http://b:8447\nnode-c=http://c:8447\n"), "node-a", "http://a:8447")
	f.Add([]byte("node-a=http://a:8447\nnode-b=http://b:8447\n"), "node-a", "http://a:8447")
	f.Add([]byte("# comment\nn=http://x:1 # trailing\n\n"), "", "")
	f.Add([]byte("b=http://shared:1\nc=HTTP://SHARED:1/\n"), "", "")
	f.Add([]byte("b=http://self:8447/"), "a", "http://self:8447")
	f.Add([]byte("just-a-name\n"), "", "")
	f.Add([]byte("=http://x\nname=\n"), "", "")
	f.Add([]byte(" b = http://b:1 \r\n"), "", "")
	f.Add([]byte("a=u,a=u"), "", "")
	f.Fuzz(func(t *testing.T, data []byte, selfName, selfURL string) {
		specs, err := ParsePeersFile(data, selfName, selfURL)
		if err != nil {
			return
		}
		names := map[string]bool{}
		addrs := map[string]bool{}
		for _, sp := range specs {
			if sp.Name == "" || sp.URL == "" {
				t.Fatalf("accepted empty name or url: %+v", sp)
			}
			if selfName != "" && sp.Name == selfName {
				t.Fatalf("accepted self entry %q", sp.Name)
			}
			if names[sp.Name] {
				t.Fatalf("accepted duplicate name %q", sp.Name)
			}
			names[sp.Name] = true
			addr := normalizeAddr(sp.URL)
			if addrs[addr] {
				t.Fatalf("accepted duplicate address %q", sp.URL)
			}
			addrs[addr] = true
			if selfURL != "" && addr == normalizeAddr(selfURL) {
				t.Fatalf("accepted self address %q", sp.URL)
			}
		}
	})
}

func reloadCounters(t *testing.T, reg *obs.Registry) (ok, errs, joins, leaves int64) {
	t.Helper()
	rel := reg.CounterVec("cluster_membership_reloads_total", "outcome")
	chg := reg.CounterVec("cluster_membership_changes_total", "change")
	return rel.With("ok").Value(), rel.With("error").Value(),
		chg.With("join").Value(), chg.With("leave").Value()
}

func TestClusterReloadJoinLeave(t *testing.T) {
	reg := obs.New().Metrics()
	c, err := New("node-a", []PeerSpec{{"node-b", "http://b:1"}}, reg, Options{RF: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("cluster_membership_nodes").Value(); got != 2 {
		t.Fatalf("initial cluster_membership_nodes = %v, want 2", got)
	}

	// Join node-c, keep node-b.
	joined, left, err := c.Reload([]PeerSpec{{"node-b", "http://b:1"}, {"node-c", "http://c:1"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(joined) != 1 || joined[0] != "node-c" || len(left) != 0 {
		t.Fatalf("Reload join = %v / %v, want [node-c] / []", joined, left)
	}
	if got := c.Ring().Len(); got != 3 {
		t.Fatalf("ring after join has %d nodes, want 3", got)
	}
	if c.Peer("node-c") == nil {
		t.Fatal("joined peer has no client")
	}

	// Leave node-b.
	joined, left, err = c.Reload([]PeerSpec{{"node-c", "http://c:1"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(joined) != 0 || len(left) != 1 || left[0] != "node-b" {
		t.Fatalf("Reload leave = %v / %v, want [] / [node-b]", joined, left)
	}
	if c.Peer("node-b") != nil {
		t.Fatal("departed peer still has a client")
	}
	if c.ReplicaStore("node-b") != nil {
		t.Fatal("departed peer still has a replica store")
	}

	ok, errs, joins, leaves := reloadCounters(t, reg)
	if ok != 2 || errs != 0 || joins != 1 || leaves != 1 {
		t.Fatalf("reload counters ok=%d err=%d join=%d leave=%d, want 2/0/1/1", ok, errs, joins, leaves)
	}
	if got := reg.Gauge("cluster_membership_epoch").Value(); got != 2 {
		t.Fatalf("cluster_membership_epoch = %v, want 2", got)
	}
	if got := reg.Gauge("cluster_membership_nodes").Value(); got != 2 {
		t.Fatalf("cluster_membership_nodes after leave = %v, want 2", got)
	}

	// A reload listing self must fail and leave the view untouched.
	if _, _, err := c.Reload([]PeerSpec{{"node-a", "http://a:1"}}); err == nil {
		t.Fatal("reload with self in peer list accepted")
	}
	if got := c.Ring().Len(); got != 2 {
		t.Fatalf("failed reload changed the ring: %d nodes", got)
	}
	if _, errs2, _, _ := reloadCounters(t, reg); errs2 != 1 {
		t.Fatalf("cluster_membership_reloads_total{error} = %d, want 1", errs2)
	}
}

// TestClusterReloadPreservesPeerState pins the carry-over contract: a
// reload that keeps a peer (same name, same address) keeps its client —
// breaker state and all — so a membership change elsewhere in the fleet
// does not reset failure accounting for healthy or dead peers.
func TestClusterReloadPreservesPeerState(t *testing.T) {
	node := newFakeNode()
	ts := httptest.NewServer(node.handler())
	defer ts.Close()
	c := testCluster(t, ts.URL)
	p := c.Peer("node-b")

	// Open node-b's breaker at the transport.
	restore := faultinject.Set(faultinject.HookNetRequest, faultinject.Fail(errors.New("injected: down")))
	for i := 0; i < 2; i++ {
		_, _ = p.Submit(context.Background(), []byte(`{}`), "")
	}
	restore()
	if st := p.Breaker().State(); st != store.BreakerOpen {
		t.Fatalf("breaker = %v, want open", st)
	}

	// Reload keeping node-b and adding node-c: node-b's client (and its
	// open breaker) must survive the swap.
	joined, _, err := c.Reload([]PeerSpec{{"node-b", ts.URL}, {"node-c", "http://c:1"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(joined) != 1 || joined[0] != "node-c" {
		t.Fatalf("joined = %v, want [node-c]", joined)
	}
	if got := c.Peer("node-b"); got != p {
		t.Fatal("reload rebuilt the unchanged peer's client")
	}
	if st := c.Peer("node-b").Breaker().State(); st != store.BreakerOpen {
		t.Fatalf("breaker after reload = %v, want still open", st)
	}

	// Same name at a NEW address is a different process: the client is
	// rebuilt and the breaker starts closed.
	ts2 := httptest.NewServer(node.handler())
	defer ts2.Close()
	joined, left, err := c.Reload([]PeerSpec{{"node-b", ts2.URL}, {"node-c", "http://c:1"}})
	if err != nil {
		t.Fatal(err)
	}
	// A move is neither a join nor a leave.
	if len(joined) != 0 || len(left) != 0 {
		t.Fatalf("moved peer reported as join/leave: %v / %v", joined, left)
	}
	if got := c.Peer("node-b"); got == p {
		t.Fatal("reload kept the old client across an address change")
	}
	if st := c.Peer("node-b").Breaker().State(); st != store.BreakerClosed {
		t.Fatalf("breaker after address change = %v, want closed (fresh client)", st)
	}
}

// TestClusterReloadingWindow drives the mid-swap state through the
// membership-reload hook: while a reload is held between view build and
// swap, Reloading() reports true (the /readyz 503 window) and in-flight
// lookups still resolve against the old view.
func TestClusterReloadingWindow(t *testing.T) {
	c, err := New("node-a", []PeerSpec{{"node-b", "http://b:1"}}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	entered := make(chan struct{})
	restore := faultinject.Set(faultinject.HookMembershipReload, func(context.Context) error {
		close(entered)
		<-hold
		return nil
	})
	defer restore()

	done := make(chan error, 1)
	go func() {
		_, _, err := c.Reload([]PeerSpec{{"node-b", "http://b:1"}, {"node-c", "http://c:1"}})
		done <- err
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("reload never reached the swap window")
	}
	if !c.Reloading() {
		t.Fatal("Reloading() = false mid-swap")
	}
	// The old view still serves lookups while the swap is held.
	if got := c.Ring().Len(); got != 2 {
		t.Fatalf("mid-swap ring has %d nodes, want old view's 2", got)
	}
	close(hold)
	if err := <-done; err != nil {
		t.Fatalf("reload: %v", err)
	}
	if c.Reloading() {
		t.Fatal("Reloading() = true after swap finished")
	}
	if got := c.Ring().Len(); got != 3 {
		t.Fatalf("post-swap ring has %d nodes, want 3", got)
	}

	// An injected error in the window aborts the swap: old view stays.
	restore2 := faultinject.Set(faultinject.HookMembershipReload,
		faultinject.Fail(errors.New("injected: reload aborted")))
	defer restore2()
	if _, _, err := c.Reload(nil); err == nil {
		t.Fatal("aborted reload reported success")
	}
	if got := c.Ring().Len(); got != 3 {
		t.Fatalf("aborted reload changed the ring: %d nodes", got)
	}
}

func TestMembershipReloadFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "peers.conf")
	writeFile := func(s string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile("node-b=http://b:1\n")
	reg := obs.New().Metrics()
	c, err := New("node-a", []PeerSpec{{"node-b", "http://b:1"}}, reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMembership(c, path, "http://a:1")
	if m.Path() != path {
		t.Fatalf("Path = %q, want %q", m.Path(), path)
	}

	// Rewrite the file with a new member and reload. The fleet-shared
	// form lists this node too; its own entry is skipped.
	writeFile("node-a=http://a:1\nnode-b=http://b:1\nnode-c=http://c:1 # fresh capacity\n")
	ch, err := m.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.Joined) != 1 || ch.Joined[0] != "node-c" || len(ch.Left) != 0 {
		t.Fatalf("change = %+v, want joined [node-c]", ch)
	}
	wantNodes := []string{"node-a", "node-b", "node-c"}
	if len(ch.Nodes) != len(wantNodes) {
		t.Fatalf("change nodes = %v, want %v", ch.Nodes, wantNodes)
	}
	for i := range wantNodes {
		if ch.Nodes[i] != wantNodes[i] {
			t.Fatalf("change nodes = %v, want %v", ch.Nodes, wantNodes)
		}
	}

	// A half-written (invalid) file must not take the view down.
	writeFile("node-b=http://b:1\ngarbage line\n")
	if _, err := m.Reload(); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("invalid file reload = %v, want line-2 parse error", err)
	}
	if got := c.Ring().Len(); got != 3 {
		t.Fatalf("failed file reload changed the ring: %d nodes", got)
	}

	// A missing file is an error, counted, view untouched.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Reload(); err == nil {
		t.Fatal("reload with missing peers file succeeded")
	}
	if got := c.Ring().Len(); got != 3 {
		t.Fatalf("missing-file reload changed the ring: %d nodes", got)
	}
	if _, errs, _, _ := reloadCounters(t, reg); errs != 2 {
		t.Fatalf("cluster_membership_reloads_total{error} = %d, want 2", errs)
	}
}
