package store

import (
	"context"
	"errors"
	"fmt"
)

// ReplicaSet is the placement oracle Replicated composes over — the
// cluster implements it (see cluster.Cluster.ReplicaStore) without the
// store package importing cluster. It must be safe for concurrent use
// and may change between calls (membership reloads): Replicated resolves
// owners per operation and tolerates a peer disappearing mid-flight.
type ReplicaSet interface {
	// Self returns this node's ring name.
	Self() string
	// Owners returns the ordered replica set (rf distinct node names,
	// primary first) for key. Self may or may not be among them.
	Owners(key string) []string
	// ReplicaStore returns the remote store view of the named node, or
	// nil for self, unknown, and departed nodes.
	ReplicaStore(name string) Store
}

// OneRemote is the static ReplicaSet of a node layered over one shared
// remote store (dlprojd -store-remote): every key is owned by this node
// ("local") and the remote ("remote"), local first.
func OneRemote(remote Store) ReplicaSet { return oneRemote{remote} }

type oneRemote struct{ remote Store }

func (oneRemote) Self() string           { return "local" }
func (oneRemote) Owners(string) []string { return []string{"local", "remote"} }
func (o oneRemote) ReplicaStore(name string) Store {
	if name == "remote" {
		return o.remote
	}
	return nil
}

// Replicated composes the node's local store with the cluster's replica
// placement:
//
//   - Put commits locally first (the node's source of truth), then fans
//     the envelope out to every other owner. A fan-out failure — a dead
//     peer, a 429, a transport error — never fails the Put: the copy is
//     dropped and counted, and the owner converges through read-repair.
//   - Get serves any locally cached copy, else walks the owners in ring
//     order and read-repairs on the way out: the first verified copy is
//     backfilled to the local store and to every earlier-ranked owner
//     that cleanly missed, so a ring that lost a node converges back to
//     rf copies through ordinary reads.
//
// Content addressing does the heavy lifting: a key fully determines its
// bytes, so there is no "stale" copy to reconcile — only present,
// missing, or corrupt — and every repair is an idempotent Put. A lost
// copy therefore costs at most one recompute, never a result.
type Replicated struct {
	local Store
	rs    ReplicaSet
	m     *Metrics
}

// NewReplicated composes local with the replica set; both must be
// non-nil.
func NewReplicated(local Store, rs ReplicaSet, m *Metrics) (*Replicated, error) {
	if local == nil || rs == nil {
		return nil, errors.New("store: replicated needs a local store and a replica set")
	}
	return &Replicated{local: local, rs: rs, m: m}, nil
}

// Name implements Store.
func (r *Replicated) Name() string { return "replicated" }

// Put implements Store: local write first (must succeed), then best-
// effort fan-out to the other owners.
func (r *Replicated) Put(ctx context.Context, key string, data []byte) error {
	if !ValidKey(key) {
		return errBadKey(key)
	}
	if err := r.local.Put(ctx, key, data); err != nil {
		r.m.op(r.Name(), "put", "error")
		return err
	}
	self := r.rs.Self()
	for _, owner := range r.rs.Owners(key) {
		if owner == self {
			continue
		}
		r.replicateTo(ctx, owner, key, data)
	}
	r.m.op(r.Name(), "put", "ok")
	return nil
}

// replicateTo pushes one envelope to one owner; a failed push is dropped.
func (r *Replicated) replicateTo(ctx context.Context, peer, key string, data []byte) {
	st := r.rs.ReplicaStore(peer)
	if st == nil {
		// Unknown or departed owner: nothing to dial — Owners and
		// ReplicaStore race only across a membership swap, and the new
		// owner set will replicate on its own.
		r.m.replicate(peer, "no_client")
		return
	}
	if err := st.Put(ctx, key, data); err != nil {
		r.m.replicate(peer, "dropped")
		return
	}
	r.m.replicate(peer, "ok")
}

// Get implements Store: local copy first (any verified copy is current —
// content addressing), then the owners in ring order; the first hit
// read-repairs the local store and every earlier-ranked owner that
// cleanly missed.
func (r *Replicated) Get(ctx context.Context, key string) ([]byte, error) {
	if !ValidKey(key) {
		return nil, errBadKey(key)
	}
	data, err := r.local.Get(ctx, key)
	if err == nil {
		if VerifyEnvelope(data) == nil {
			r.m.op(r.Name(), "get", "hit")
			return data, nil
		}
		// Corrupt local copy (torn by a crash, bit rot): treat as a miss
		// and let the replica walk overwrite it below.
		r.m.readRepair("self", "corrupt_local")
	} else if !errors.Is(err, ErrNotFound) {
		// A broken local tier is not a miss to paper over: without it the
		// node has no store at all.
		r.m.op(r.Name(), "get", "error")
		return nil, err
	}

	self := r.rs.Self()
	var missed []string // earlier-ranked owners that cleanly missed
	for _, owner := range r.rs.Owners(key) {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if owner == self {
			// Already tried above; the local backfill on a later hit covers
			// this rank.
			continue
		}
		st := r.rs.ReplicaStore(owner)
		if st == nil {
			continue
		}
		data, err := st.Get(ctx, key)
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				missed = append(missed, owner)
			}
			// Unreachable or erroring owner: skip — if it lacks the copy a
			// later read-repair converges it.
			continue
		}
		if VerifyEnvelope(data) != nil {
			continue
		}
		// Read repair: the local cache first (serves the next read), then
		// every owner that missed.
		if lerr := r.local.Put(ctx, key, data); lerr == nil {
			r.m.readRepair("self", "ok")
		} else {
			r.m.readRepair("self", "error")
		}
		for _, mname := range missed {
			r.repairOwner(ctx, mname, key, data)
		}
		r.m.op(r.Name(), "get", "hit")
		return data, nil
	}
	r.m.op(r.Name(), "get", "miss")
	return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
}

// repairOwner backfills one under-replicated owner; a failed push is
// left to the next read.
func (r *Replicated) repairOwner(ctx context.Context, peer, key string, data []byte) {
	st := r.rs.ReplicaStore(peer)
	if st == nil {
		return
	}
	if err := st.Put(ctx, key, data); err != nil {
		r.m.readRepair(peer, "error")
		return
	}
	r.m.readRepair(peer, "ok")
}

// Stat implements Store: local, then each remote owner; errors degrade
// to "absent" for that owner.
func (r *Replicated) Stat(ctx context.Context, key string) (bool, error) {
	if !ValidKey(key) {
		return false, errBadKey(key)
	}
	ok, err := r.local.Stat(ctx, key)
	if err != nil {
		r.m.op(r.Name(), "stat", "error")
		return false, err
	}
	if ok {
		r.m.op(r.Name(), "stat", "hit")
		return true, nil
	}
	self := r.rs.Self()
	for _, owner := range r.rs.Owners(key) {
		if owner == self {
			continue
		}
		st := r.rs.ReplicaStore(owner)
		if st == nil {
			continue
		}
		if ok, err := st.Stat(ctx, key); err == nil && ok {
			r.m.op(r.Name(), "stat", "hit")
			return true, nil
		}
	}
	r.m.op(r.Name(), "stat", "miss")
	return false, nil
}
