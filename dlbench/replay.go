package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"defectsim/internal/experiments"
	"defectsim/internal/netlist"
	"defectsim/internal/par"
	"defectsim/internal/store"
)

// replayer replays, through the layers' public functions, the calls of
// a served request that the server's run report does not time: the
// netlist lookup at submission, the store's miss lookup, the result
// fields with the eq. 11 fit, the envelope encoding and the store write.
// It starts from the envelope the server stored, so it re-runs no
// simulation. Decoding that envelope must give the served result, and
// encoding the decoded pipeline must give the stored bytes back.
type replayer struct {
	ctx context.Context
	tr  *tracer
	// st is the replay's own result store, empty at the start; served
	// is the stopped server's store.
	st, served *store.FS
	// Counts read from the decoded results.
	faults, vectors, aborted, undecided, faultVectors int64
	envelopes                                         []int
}

func newReplayer(ctx context.Context, tr *tracer, dir, serverDir string) (*replayer, error) {
	st, err := store.NewFS(dir, nil)
	if err != nil {
		return nil, err
	}
	served, err := store.NewFS(serverDir, nil)
	if err != nil {
		return nil, err
	}
	return &replayer{ctx: ctx, tr: tr, st: st, served: served}, nil
}

// config is the configuration the server assembles for a request that
// sets only circuit and seed, with dlprojd's default worker count.
func config(seed int64) experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Seed = seed
	cfg.Workers = par.Workers(0)
	return cfg
}

// miss replays one request that missed the store, under a root span
// carrying its request ID. experiments.DecodeCached is not on the miss
// path; it is how the replay gets the pipeline back without simulating,
// and it is the decode every store hit runs.
func (r *replayer) miss(o outcome) error {
	ctx, tr, rid := r.ctx, r.tr, o.rid
	cfg := config(o.e.Seed)
	root := tr.start(0, "replay", rid)
	defer tr.end(root)
	var (
		nl           *netlist.Netlist
		key          string
		stored, data []byte
		p            *experiments.Pipeline
		out          outputs
	)
	steps := []struct {
		name string
		fn   func() error
	}{
		{"netlist.ByName", func() (err error) {
			nl, err = netlist.ByName(o.e.Circuit, o.e.Seed)
			return err
		}},
		{"store.FS.Get", func() error {
			key = experiments.CacheKey(nl.Name, cfg)
			if _, err := r.st.Get(ctx, key); !errors.Is(err, store.ErrNotFound) {
				return fmt.Errorf("miss lookup returned %v", err)
			}
			return nil
		}},
		// Fetching the server's envelope is input to the replay, not a
		// call the server made: no span.
		{"", func() (err error) { stored, err = r.served.Get(ctx, key); return err }},
		{"experiments.DecodeCached", func() (err error) {
			p, err = experiments.DecodeCached(ctx, nl, cfg, stored)
			return err
		}},
		{"experiments.Figure5", func() error { out = outputsOf(p); return nil }},
		{"experiments.EncodeCache", func() (err error) { data, err = p.EncodeCache(); return err }},
		{"store.FS.Put", func() error { return r.st.Put(ctx, key, data) }},
	}
	for _, s := range steps {
		var err error
		if s.name == "" {
			err = s.fn()
		} else {
			err = tr.layer(root, s.name, rid, s.fn)
		}
		if err != nil {
			return fmt.Errorf("replay %s: %s: %w", o.e, s.name, err)
		}
	}
	if err := checkOutputs(o.out, out); err != nil {
		return fmt.Errorf("replay %s: decoded envelope: %w", o.e, err)
	}
	if !bytes.Equal(stored, data) {
		return fmt.Errorf("replay %s: re-encoded envelope differs from the one the server stored (%d vs %d bytes)", o.e, len(data), len(stored))
	}
	r.faults += int64(len(p.Faults.Faults))
	r.vectors += int64(len(p.TestSet.Patterns))
	_, _, aborted := p.TestSet.Counts()
	r.aborted += int64(aborted)
	res := p.SwitchRes
	for i, d := range res.DetectedAt {
		if d == 0 {
			d = res.VectorsApplied
		}
		r.faultVectors += int64(d)
		if res.Undecided[i] {
			r.undecided++
		}
	}
	r.envelopes = append(r.envelopes, len(data))
	return nil
}
