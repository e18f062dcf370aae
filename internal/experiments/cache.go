package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"defectsim/internal/atpg"
	"defectsim/internal/coverage"
	"defectsim/internal/extract"
	"defectsim/internal/fault"
	"defectsim/internal/gatesim"
	"defectsim/internal/layout"
	"defectsim/internal/netlist"
	"defectsim/internal/store"
	"defectsim/internal/switchsim"
	"defectsim/internal/transistor"
)

// cacheFile is the serialized form of a pipeline's expensive simulation
// results. Everything else (layout, extraction, transistor netlist, the
// fault universes) is deterministic and cheap to rebuild, so only the
// vectors and detection data are stored. The payload is sealed in the
// store's checksummed envelope (store.Seal); an entry that fails
// store.Open or carries the wrong version is treated as corrupt: the
// caller falls back to a fresh run and the event is recorded (never an
// error — the cache is an optimization, not a source of truth).
type cacheFile struct {
	Circuit      string      `json:"circuit"`
	Config       cacheConfig `json:"config"`
	NumFaults    int         `json:"num_faults"`
	NumStuckAt   int         `json:"num_stuck_at"`
	Patterns     [][]uint8   `json:"patterns"`
	RandomCount  int         `json:"random_count"`
	SADetectedAt []int       `json:"sa_detected_at"`
	Untestable   []bool      `json:"untestable"`
	Aborted      []bool      `json:"aborted"`
	SwDetectedAt []int       `json:"sw_detected_at"`
	IDDQAt       []int       `json:"iddq_at"`
	Undecided    []bool      `json:"undecided"`
	Oscillations int         `json:"oscillations"`
	// VectorsApplied and GoodUnsettledAt complete the Result record so a
	// cache-restored campaign keeps the early-stop accounting contract
	// (Result.DetectedBy clamps to VectorsApplied).
	VectorsApplied  int `json:"vectors_applied"`
	GoodUnsettledAt int `json:"good_unsettled_at"`
	// GoodTrace persists the fault-free machine's settled states (one row
	// per recorded state, one byte per net) so downstream studies on a
	// cache-hit pipeline skip the good-machine pass too. The enclosing
	// envelope checksum is the invalidation key: the trace is only reused
	// when circuit and config digest match.
	GoodTrace          [][]byte `json:"good_trace,omitempty"`
	GoodTraceUnsettled int      `json:"good_trace_unsettled,omitempty"`
}

type cacheConfig struct {
	Seed           int64   `json:"seed"`
	TargetYield    float64 `json:"target_yield"`
	RandomVectors  int     `json:"random_vectors"`
	BacktrackLimit int     `json:"backtrack_limit"`
	StatsDigest    string  `json:"stats_digest"`
}

// cacheVersion 2 introduced the checksummed envelope; 3 added the full
// switch-level Result record (vectors applied, undecided flags, unsettled
// cutoff) and the persisted good-machine trace.
const cacheVersion = 3

// CacheKey returns the result-cache identity of a run: a short hex digest
// of the circuit name and the result-determining configuration fields
// (seed, yield scaling, vector and backtrack budgets, defect statistics).
// Two complete runs with equal keys produce bitwise-identical simulation
// results — execution-only knobs (Workers, Obs, Deadline, StageBudgets)
// do not participate. Deadline/StageBudgets can still truncate a run to
// partial results, which is why RunCachedCtx never saves a
// result-degraded run under this key (see Pipeline.ResultDegraded). The
// key makes a stable cache file name; the serving layer derives its
// coalescing key from it (adding the execution budgets back in, since
// coalesced submitters share one live run).
func CacheKey(circuit string, cfg Config) string {
	dc := digestConfig(cfg)
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|%d|%g|%d|%d|%s",
		circuit, dc.Seed, dc.TargetYield, dc.RandomVectors, dc.BacktrackLimit, dc.StatsDigest)))
	return hex.EncodeToString(sum[:16])
}

func digestConfig(cfg Config) cacheConfig {
	d := ""
	for _, c := range cfg.Stats.Classes {
		d += fmt.Sprintf("%v:%g:%g;", c.Type, c.Density, c.Size.X0)
	}
	d += fmt.Sprintf("max=%d", cfg.Stats.MaxSize)
	return cacheConfig{
		Seed: cfg.Seed, TargetYield: cfg.TargetYield,
		RandomVectors: cfg.RandomVectors, BacktrackLimit: cfg.BacktrackLimit,
		StatsDigest: d,
	}
}

// EncodeCache serializes the pipeline's simulation results as the
// checksummed cache envelope — the exact bytes every store backend
// persists and store.Open verifies. Result-degraded runs are refused:
// their partial results would be served to later cache hits as if
// complete (cache-load cannot tell the difference — the key deliberately
// excludes execution budgets).
func (p *Pipeline) EncodeCache() ([]byte, error) {
	if p.ResultDegraded() {
		return nil, fmt.Errorf("experiments: refusing to cache a result-degraded run (%d degradations)", len(p.Degradations))
	}
	cf := cacheFile{
		Circuit:         p.Netlist.Name,
		Config:          digestConfig(p.Config),
		NumFaults:       len(p.Faults.Faults),
		NumStuckAt:      len(p.StuckAt),
		RandomCount:     p.TestSet.RandomCount,
		SADetectedAt:    p.TestSet.DetectedAt,
		Untestable:      p.TestSet.Untestable,
		Aborted:         p.TestSet.Aborted,
		SwDetectedAt:    p.SwitchRes.DetectedAt,
		IDDQAt:          p.SwitchRes.IDDQAt,
		Undecided:       p.SwitchRes.Undecided,
		Oscillations:    p.SwitchRes.Oscillations,
		VectorsApplied:  p.SwitchRes.VectorsApplied,
		GoodUnsettledAt: p.SwitchRes.GoodUnsettledAt,
	}
	for _, pat := range p.TestSet.Patterns {
		cf.Patterns = append(cf.Patterns, []uint8(pat))
	}
	p.traceMu.Lock()
	if tr := p.goodTrace; tr.Complete() {
		for _, st := range tr.States {
			row := make([]byte, len(st))
			for i, v := range st {
				row[i] = byte(v)
			}
			cf.GoodTrace = append(cf.GoodTrace, row)
		}
		cf.GoodTraceUnsettled = tr.UnsettledAt
	}
	p.traceMu.Unlock()
	payload, err := json.Marshal(&cf)
	if err != nil {
		return nil, err
	}
	return store.Seal(cacheVersion, payload)
}

// RunCached behaves like Run but reuses the simulation results stored at
// path when they match the circuit and configuration, rebuilding only the
// cheap deterministic artifacts. On a cache miss it runs the full pipeline
// and refreshes the file through store.AtomicWrite, so a crash or a
// concurrent reader never observes a truncated cache. With cfg.Obs set, a
// cache hit still produces a run report (spanning the rebuild stages,
// flagged CacheHit) so a traced run always explains where its results
// came from.
func RunCached(nl *netlist.Netlist, cfg Config, path string) (*Pipeline, bool, error) {
	return RunCachedCtx(context.Background(), nl, cfg, path)
}

// RunCachedCtx is RunCached under a context (see RunCtx for cancellation
// and budget semantics). Cache corruption — an unreadable, truncated,
// checksum-mismatched or version-skewed file — never fails the call: the
// pipeline runs fresh, the file is rewritten, and the fallback is
// recorded as a pipeline_cache_corrupt metric and a "cache" Degradation.
// A failed cache write degrades the same way instead of erroring.
func RunCachedCtx(ctx context.Context, nl *netlist.Netlist, cfg Config, path string) (*Pipeline, bool, error) {
	return RunStoredCtx(ctx, nl, cfg, fileStore{path: path})
}

// RunStoredCtx is the store-backed generalization of RunCachedCtx: the
// result is looked up in (and on a miss, persisted to) any store.Store —
// the local filesystem cache, a remote peer, or a replicated combination.
// The degradation contract is identical: a corrupt or unreadable entry
// falls back to a fresh run (pipeline_cache_corrupt + "cache"
// Degradation), a failed write degrades instead of erroring, and a
// result-degraded run is never persisted to any backend.
func RunStoredCtx(ctx context.Context, nl *netlist.Netlist, cfg Config, st store.Store) (*Pipeline, bool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, false, err
	}
	reg := cfg.Obs.Metrics()
	key := CacheKey(nl.Name, cfg)
	var corrupt string
	switch data, err := st.Get(ctx, key); {
	case err == nil:
		p, ok, c := decodeCache(ctx, nl, cfg, data)
		if ok {
			return p, true, nil
		}
		corrupt = c
	case errors.Is(err, store.ErrNotFound):
		// Ordinary miss.
	default:
		corrupt = fmt.Sprintf("store %s get failed: %v", st.Name(), err)
	}
	if corrupt != "" {
		// Count before the run so the fallback shows up in the run report.
		reg.Counter("pipeline_cache_corrupt").Inc()
	}
	p, err := RunCtx(ctx, nl, cfg)
	if err != nil {
		return nil, false, err
	}
	degradeCache := func(reason string) {
		p.Degradations = append(p.Degradations, Degradation{Stage: "cache", Reason: reason})
		if p.Report != nil {
			p.Report.Events = append(p.Report.Events, Degradation{Stage: "cache", Reason: reason}.String())
		}
	}
	if corrupt != "" {
		degradeCache("fell back to fresh run: " + corrupt)
	}
	if p.ResultDegraded() {
		// A budget- or deadline-degraded run holds partial results (fewer
		// ATPG patterns, undecided faults). Persisting it would let a later
		// request with no budgets hit the cache and receive the partial data
		// as if it were complete — so degraded runs are never saved to any
		// backend; the next unconstrained run misses, runs in full, and
		// populates the store.
		reg.Counter("pipeline_cache_save_skipped_degraded").Inc()
		if p.Report != nil {
			p.Report.Events = append(p.Report.Events, "cache: degraded run not saved (partial results)")
		}
	} else if err := saveTo(ctx, p, st, key); err != nil {
		reg.Counter("pipeline_cache_save_failures").Inc()
		degradeCache("cache write failed: " + err.Error())
	}
	return p, false, nil
}

// saveTo encodes the run and persists it under its cache key.
func saveTo(ctx context.Context, p *Pipeline, st store.Store, key string) error {
	data, err := p.EncodeCache()
	if err != nil {
		return err
	}
	return st.Put(ctx, key, data)
}

// fileStore adapts a single cache-file path to the Store interface so
// RunCachedCtx shares the store-backed engine. The key is ignored: the
// path, chosen by the caller, already encodes the identity (the serving
// layer names files <key>.json; the CLI uses a fixed path per circuit).
type fileStore struct{ path string }

func (f fileStore) Name() string { return "file" }

func (f fileStore) Get(_ context.Context, _ string) ([]byte, error) {
	data, err := os.ReadFile(f.path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", store.ErrNotFound, f.path)
		}
		return nil, err
	}
	return data, nil
}

func (f fileStore) Put(_ context.Context, _ string, data []byte) error {
	return store.AtomicWrite(f.path, data)
}

func (f fileStore) Stat(_ context.Context, _ string) (bool, error) {
	if _, err := os.Stat(f.path); err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	return true, nil
}

// DecodeCached rebuilds a pipeline from envelope bytes fetched out of a
// store backend — the forwarding path uses it to adopt a result computed
// by the key's ring owner. Unlike the cache-miss path it returns an
// error rather than silently falling back: the caller explicitly fetched
// these bytes and needs to know why they were unusable.
func DecodeCached(ctx context.Context, nl *netlist.Netlist, cfg Config, data []byte) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p, ok, corrupt := decodeCache(ctx, nl, cfg, data)
	if ok {
		return p, nil
	}
	if corrupt == "" {
		corrupt = "envelope does not match this circuit/config (different cache key?)"
	}
	return nil, fmt.Errorf("experiments: decode cached result: %s", corrupt)
}

// decodeCache attempts a cache hit from envelope bytes. The corrupt
// return is non-empty when the bytes are unusable (parse failure,
// checksum mismatch, version skew); a clean circuit/config mismatch is an
// ordinary miss with corrupt == "".
func decodeCache(ctx context.Context, nl *netlist.Netlist, cfg Config, data []byte) (p *Pipeline, ok bool, corrupt string) {
	version, payload, err := store.Open(data)
	if err != nil {
		return nil, false, err.Error()
	}
	if version != cacheVersion {
		return nil, false, fmt.Sprintf("cache envelope has version %d, want %d", version, cacheVersion)
	}
	var cf cacheFile
	if err := json.Unmarshal(payload, &cf); err != nil {
		return nil, false, fmt.Sprintf("cache payload does not parse: %v", err)
	}
	if cf.Circuit != nl.Name || cf.Config != digestConfig(cfg) {
		return nil, false, "" // ordinary miss: different circuit or config
	}

	tr := cfg.Obs
	reg := tr.Metrics()
	load := tr.StartSpan("cache-load")
	p = &Pipeline{Config: cfg, Netlist: nl}
	sp := tr.StartSpan("layout")
	p.Layout, err = layout.BuildCtx(ctx, nl, nil)
	sp.End()
	if err != nil {
		load.End()
		return nil, false, ""
	}
	sp = tr.StartSpan("extract")
	p.Faults, err = extract.FaultsCtx(ctx, p.Layout, cfg.Stats, reg)
	sp.End()
	if err != nil {
		load.End()
		return nil, false, ""
	}
	if cfg.TargetYield > 0 && len(p.Faults.Faults) > 0 {
		p.Faults.ScaleToYield(cfg.TargetYield)
	}
	p.Yield = p.Faults.Yield()
	reg.Gauge("pipeline_yield").Set(p.Yield)
	sp = tr.StartSpan("transistor-map")
	p.Circuit = transistor.FromLayout(p.Layout)
	sp.End()
	sp = tr.StartSpan("stuckat-collapse")
	p.StuckAt = fault.StuckAtUniverse(nl)
	sp.End()
	if len(p.Faults.Faults) != cf.NumFaults || len(p.StuckAt) != cf.NumStuckAt ||
		len(cf.SwDetectedAt) != cf.NumFaults || len(cf.SADetectedAt) != cf.NumStuckAt ||
		len(cf.Undecided) != cf.NumFaults {
		load.End()
		return nil, false, "" // stale cache from an older code version
	}
	p.TestSet = &atpg.TestSet{
		RandomCount: cf.RandomCount,
		DetectedAt:  cf.SADetectedAt,
		Untestable:  cf.Untestable,
		Aborted:     cf.Aborted,
	}
	for _, pat := range cf.Patterns {
		p.TestSet.Patterns = append(p.TestSet.Patterns, gatesim.Pattern(pat))
	}
	p.SwitchRes = &switchsim.Result{
		DetectedAt:      cf.SwDetectedAt,
		IDDQAt:          cf.IDDQAt,
		Undecided:       cf.Undecided,
		Oscillations:    cf.Oscillations,
		VectorsApplied:  cf.VectorsApplied,
		GoodUnsettledAt: cf.GoodUnsettledAt,
	}
	// Restore the persisted good trace so downstream studies on this
	// cache-hit pipeline reuse it instead of recapturing. A trace that does
	// not match the rebuilt circuit (or is incomplete) is dropped silently —
	// it is an optimization, and GoodTrace recaptures lazily.
	if len(cf.GoodTrace) > 0 {
		tr := &switchsim.GoodTrace{Vectors: p.Vectors(), UnsettledAt: cf.GoodTraceUnsettled}
		valid := true
		for _, row := range cf.GoodTrace {
			if len(row) != p.Circuit.NumNets {
				valid = false
				break
			}
			st := make([]switchsim.Val, len(row))
			for i, b := range row {
				st[i] = switchsim.Val(b)
			}
			tr.States = append(tr.States, st)
		}
		if valid && tr.Complete() {
			p.goodTrace = tr
			reg.Gauge("swsim_goodtrace_bytes").Set(float64(tr.Bytes()))
		}
	}
	p.Ks = coverage.SampleKs(len(p.TestSet.Patterns), 8)
	if tr != nil {
		reg.Counter("pipeline_cache_hits").Inc()
		reg.Counter("pipeline_vectors").Add(int64(len(p.TestSet.Patterns)))
		load.End()
		p.Report = tr.Report(nl.Name)
		p.Report.CacheHit = true
	}
	return p, true, ""
}
