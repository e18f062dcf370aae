package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"defectsim/internal/faultinject"
	"defectsim/internal/obs"
	"defectsim/internal/store"
)

// PeerSpec names one remote node and its base URL.
type PeerSpec struct {
	Name string
	URL  string
}

// normalizeAddr canonicalizes a peer base URL for duplicate and
// self-address detection: whitespace and trailing slashes dropped, the
// rest lowercased (base URLs carry scheme/host/port only, so lowercasing
// the whole string is safe).
func normalizeAddr(u string) string {
	return strings.ToLower(strings.TrimRight(strings.TrimSpace(u), "/"))
}

// appendPeer validates one name=url entry against the peers accumulated
// so far and appends it. A duplicate name, a duplicate address, or the
// node's own address is rejected outright — each would otherwise
// silently double-weight vnodes on the ring (two names for one node) or
// make the node forward work to itself.
func appendPeer(specs []PeerSpec, names map[string]bool, addrs map[string]string, name, url, selfURL string) ([]PeerSpec, error) {
	if names[name] {
		return nil, fmt.Errorf("duplicate peer name %q", name)
	}
	addr := normalizeAddr(url)
	if selfURL != "" && addr == normalizeAddr(selfURL) {
		return nil, fmt.Errorf("peer %q uses this node's own address %q", name, url)
	}
	if prev, ok := addrs[addr]; ok {
		return nil, fmt.Errorf("duplicate peer address %q shared by %q and %q", url, prev, name)
	}
	names[name] = true
	addrs[addr] = name
	return append(specs, PeerSpec{Name: name, URL: url}), nil
}

// ParsePeers parses the -peers flag format: a comma-separated list of
// name=url entries, e.g. "node-b=http://10.0.0.2:8447,node-c=http://10.0.0.3:8447".
// The self node is NOT listed (it has no URL to dial); the ring is built
// over self plus every parsed peer. selfURL, when non-empty, is this
// node's own advertised base URL — a peer entry pointing back at it is
// rejected. Duplicate names and duplicate addresses are rejected too.
func ParsePeers(s, selfURL string) ([]PeerSpec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var specs []PeerSpec
	names := map[string]bool{}
	addrs := map[string]string{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		name, url = strings.TrimSpace(name), strings.TrimSpace(url)
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("cluster: bad peer entry %q (want name=url)", part)
		}
		var err error
		if specs, err = appendPeer(specs, names, addrs, name, url, selfURL); err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
	}
	return specs, nil
}

// Options tunes the per-peer clients. The zero value is serviceable.
type Options struct {
	// Client is the shared http.Client for all peers. Default:
	// http.DefaultClient.
	Client *http.Client
	// MaxAttempts / BaseDelay / MaxDelay / PerAttemptTimeout configure each
	// peer's retrying transport (see store.Transport).
	MaxAttempts       int
	BaseDelay         time.Duration
	MaxDelay          time.Duration
	PerAttemptTimeout time.Duration
	// BreakerThreshold consecutive failures open a peer's breaker for
	// BreakerCooldown (defaults from store.NewBreaker: 5 / 15s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// PollInterval is the cadence for polling a forwarded job's status.
	// Default 25ms — cheap against an in-fleet peer, fast enough that
	// forwarding adds negligible latency to a multi-second pipeline run.
	PollInterval time.Duration
	// RF is the replication factor: each key lives on the RF distinct
	// nodes returned by Ring.OwnersFor. 1 (the default) means no
	// replication — the PR-7 single-owner behavior.
	RF int
}

// Metrics is the cluster instrument set. Nil-safe like store.Metrics.
type Metrics struct {
	// Forward counts forwarding outcomes:
	// cluster_forward_total{peer,outcome} with outcome
	// ok/replica_hit/submit_error/poll_error/remote_failed/cancelled.
	Forward *obs.CounterVec
	// Fallback counts jobs that ran locally after a forward was either
	// impossible or failed: cluster_fallback_local_total{reason}.
	Fallback *obs.CounterVec
	// BreakerState mirrors each peer breaker:
	// cluster_peer_breaker_state{peer} (0 closed / 1 open / 2 half-open).
	BreakerState *obs.GaugeVec
	// Reloads counts membership swaps: cluster_membership_reloads_total{outcome}
	// with outcome ok/error.
	Reloads *obs.CounterVec
	// Changes counts per-node membership changes applied by reloads:
	// cluster_membership_changes_total{change} with change join/leave.
	Changes *obs.CounterVec
	// Nodes gauges the current member count (self included):
	// cluster_membership_nodes.
	Nodes *obs.Gauge
	// Epoch gauges the membership generation — bumped on every successful
	// reload, so dashboards can spot a node stuck on an old view:
	// cluster_membership_epoch.
	Epoch *obs.Gauge
}

// NewMetrics registers the cluster instrument families on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Forward:      reg.CounterVec("cluster_forward_total", "peer", "outcome"),
		Fallback:     reg.CounterVec("cluster_fallback_local_total", "reason"),
		BreakerState: reg.GaugeVec("cluster_peer_breaker_state", "peer"),
		Reloads:      reg.CounterVec("cluster_membership_reloads_total", "outcome"),
		Changes:      reg.CounterVec("cluster_membership_changes_total", "change"),
		Nodes:        reg.Gauge("cluster_membership_nodes"),
		Epoch:        reg.Gauge("cluster_membership_epoch"),
	}
}

// ForwardOutcome records one forwarding attempt's outcome.
func (m *Metrics) ForwardOutcome(peer, outcome string) {
	if m == nil {
		return
	}
	m.Forward.With(peer, outcome).Inc()
}

// FallbackLocal records a job that degraded to local execution.
func (m *Metrics) FallbackLocal(reason string) {
	if m == nil {
		return
	}
	m.Fallback.With(reason).Inc()
}

func (m *Metrics) breakerGauge(peer string) *obs.Gauge {
	if m == nil {
		return nil
	}
	return m.BreakerState.With(peer)
}

func (m *Metrics) reload(outcome string) {
	if m == nil {
		return
	}
	m.Reloads.With(outcome).Inc()
}

func (m *Metrics) change(kind string, n int) {
	if m == nil {
		return
	}
	for i := 0; i < n; i++ {
		m.Changes.With(kind).Inc()
	}
}

// view is one immutable membership snapshot: the ring plus the clients
// for every remote member. Lookups load the current view atomically, so
// a reload never blocks — or breaks — an in-flight forwarding or
// replication operation: a job that resolved its peers against the old
// view keeps using those clients until it finishes, while new lookups
// see the new ring immediately.
type view struct {
	ring  *Ring
	peers map[string]*Peer
}

// Cluster is one node's view of the fleet: the ring over all members
// (self included) and a client per remote peer. Membership is dynamic —
// seeded at construction and swapped atomically by Reload.
type Cluster struct {
	self string
	rf   int
	m    *Metrics
	sm   *store.Metrics
	opts Options
	poll time.Duration

	cur atomic.Pointer[view]

	// reloadMu serializes membership swaps; reloading is the /readyz
	// "mid-swap" signal — load balancers stop routing to a node whose
	// view is being replaced.
	reloadMu  sync.Mutex
	reloading atomic.Bool
	epoch     atomic.Int64
}

// New builds the cluster view for node self with the given remote peers.
// Metrics (and the per-peer breaker gauges) register on reg; a nil reg
// disables them.
func New(self string, specs []PeerSpec, reg *obs.Registry, opts Options) (*Cluster, error) {
	if self == "" {
		return nil, fmt.Errorf("cluster: self node name must be non-empty")
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 25 * time.Millisecond
	}
	if opts.RF <= 0 {
		opts.RF = 1
	}
	c := &Cluster{
		self: self,
		rf:   opts.RF,
		m:    NewMetrics(reg),
		sm:   store.NewMetrics(reg),
		opts: opts,
		poll: opts.PollInterval,
	}
	v, _, _, err := c.buildView(nil, specs)
	if err != nil {
		return nil, err
	}
	c.cur.Store(v)
	if c.m != nil {
		c.m.Nodes.Set(float64(v.ring.Len()))
	}
	return c, nil
}

// buildView assembles the membership snapshot for specs, carrying over
// unchanged peers from old so their breaker state (and any in-flight
// requests) survive the swap. Returns the node names that joined and
// left relative to old, sorted.
func (c *Cluster) buildView(old *view, specs []PeerSpec) (*view, []string, []string, error) {
	names := []string{c.self}
	for _, sp := range specs {
		if sp.Name == c.self {
			return nil, nil, nil, fmt.Errorf("cluster: peer list includes self (%q)", c.self)
		}
		names = append(names, sp.Name)
	}
	ring, err := NewRing(names)
	if err != nil {
		return nil, nil, nil, err
	}
	peers := make(map[string]*Peer, len(specs))
	var joined []string
	for _, sp := range specs {
		if old != nil {
			if p := old.peers[sp.Name]; p != nil && normalizeAddr(p.base) == normalizeAddr(sp.URL) {
				peers[sp.Name] = p
				continue
			}
		}
		p, err := c.newPeer(sp)
		if err != nil {
			return nil, nil, nil, err
		}
		peers[sp.Name] = p
		if old != nil && old.peers[sp.Name] != nil {
			continue // same name, new address: a move, not a join
		}
		joined = append(joined, sp.Name)
	}
	var left []string
	if old != nil {
		for name := range old.peers {
			if peers[name] == nil {
				left = append(left, name)
			}
		}
	}
	sort.Strings(joined)
	sort.Strings(left)
	return &view{ring: ring, peers: peers}, joined, left, nil
}

// newPeer builds the client (and breaker) for one remote node.
func (c *Cluster) newPeer(sp PeerSpec) (*Peer, error) {
	br := store.NewBreaker(sp.Name, c.opts.BreakerThreshold, c.opts.BreakerCooldown, c.m.breakerGauge(sp.Name))
	return newPeer(sp.Name, sp.URL, store.HTTPOptions{
		Client:            c.opts.Client,
		MaxAttempts:       c.opts.MaxAttempts,
		BaseDelay:         c.opts.BaseDelay,
		MaxDelay:          c.opts.MaxDelay,
		PerAttemptTimeout: c.opts.PerAttemptTimeout,
		Breaker:           br,
		Metrics:           c.sm,
	})
}

// Reload swaps the membership to specs. The ring is rebuilt, clients for
// unchanged peers are carried over (breaker state included), and the new
// view replaces the old atomically — in-flight operations that resolved
// peers against the old view finish on those clients; new lookups see
// the new ring immediately. Returns the node names that joined and left.
func (c *Cluster) Reload(specs []PeerSpec) (joined, left []string, err error) {
	c.reloadMu.Lock()
	defer c.reloadMu.Unlock()
	c.reloading.Store(true)
	defer c.reloading.Store(false)
	old := c.cur.Load()
	v, joined, left, err := c.buildView(old, specs)
	if err == nil {
		// Test seam: lets chaos tests hold a reload mid-swap (to probe the
		// /readyz unready window) or fail it after validation.
		err = faultinject.Fire(faultinject.WithTarget(context.Background(), c.self), faultinject.HookMembershipReload)
	}
	if err != nil {
		c.m.reload("error")
		return nil, nil, err
	}
	c.cur.Store(v)
	c.m.reload("ok")
	c.m.change("join", len(joined))
	c.m.change("leave", len(left))
	if c.m != nil {
		c.m.Nodes.Set(float64(v.ring.Len()))
		c.m.Epoch.Set(float64(c.epoch.Add(1)))
	}
	return joined, left, nil
}

// Self returns this node's name.
func (c *Cluster) Self() string { return c.self }

// RF returns the replication factor.
func (c *Cluster) RF() int { return c.rf }

// Reloading reports whether a membership swap is in progress.
func (c *Cluster) Reloading() bool { return c.reloading.Load() }

// Ring returns the current membership ring.
func (c *Cluster) Ring() *Ring { return c.cur.Load().ring }

// Metrics returns the cluster instrument set.
func (c *Cluster) Metrics() *Metrics { return c.m }

// PollInterval is the forwarded-job status polling cadence.
func (c *Cluster) PollInterval() time.Duration { return c.poll }

// Owner returns the node owning key on the ring.
func (c *Cluster) Owner(key string) string { return c.Ring().Owner(key) }

// Owners returns the ordered replica set for key — the RF distinct nodes
// (self possibly among them) that should hold its result.
func (c *Cluster) Owners(key string) []string { return c.Ring().OwnersFor(key, c.rf) }

// Peer returns the client for a remote node, or nil for self / unknown
// names.
func (c *Cluster) Peer(name string) *Peer { return c.cur.Load().peers[name] }

// ReplicaStore returns the remote store view of the named node, or nil
// for self, unknown, and departed nodes. This is the store.ReplicaSet
// half of the cluster: store.Replicated composes over it without the
// store package importing cluster.
func (c *Cluster) ReplicaStore(name string) store.Store {
	p := c.Peer(name)
	if p == nil {
		return nil
	}
	return p.Store()
}
