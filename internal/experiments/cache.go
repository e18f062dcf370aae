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
	"defectsim/internal/gatesim"
	"defectsim/internal/netlist"
	"defectsim/internal/store"
	"defectsim/internal/switchsim"
)

// cacheFile is the serialized form of a pipeline's expensive simulation
// results. Everything else (layout, extraction, transistor netlist, the
// fault universes) is the front end: a pure function of the netlist, the
// defect statistics and the target yield, which a hit rebuilds or takes
// from a FrontEnds memo. Rebuilding it is not cheap — it is most of a
// memo-less c432-class hit — but it needs nothing stored, so only the
// vectors and detection data are. The payload is sealed in the
// store's checksummed envelope (store.Seal); an entry that fails
// store.Open, carries the wrong version or fails the restore checks is
// treated as corrupt: the caller falls back to a fresh run and the event
// is recorded (never an error — the cache is an optimization, not a
// source of truth).
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
// cutoff). Version-3 entries written with the fault-free machine's
// settled states (good_trace, good_trace_unsettled) still restore: the
// payload parser ignores fields it does not know.
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
	payload, err := json.Marshal(&cf)
	if err != nil {
		return nil, err
	}
	return store.Seal(cacheVersion, payload)
}

// RunCachedCtx runs the pipeline like RunCtx but reuses the simulation
// results stored at path when they match the circuit and configuration,
// rebuilding only the deterministic front end. On a cache miss it runs the
// full pipeline and refreshes the file through store.AtomicWrite, so a
// crash or a concurrent reader never observes a truncated cache. With
// cfg.Obs set, a cache hit produces the same run report as a fresh run,
// with cache-load in place of atpg and switch-sim and flagged CacheHit, so
// a traced run always explains where its results came from. Cache
// corruption — an unreadable, truncated, checksum-mismatched,
// version-skewed or inconsistent file — never fails the call: the
// pipeline runs fresh, the file is rewritten, and the fallback is recorded
// as a pipeline_cache_corrupt metric and a "cache" Degradation. A failed
// cache write degrades the same way instead of erroring.
func RunCachedCtx(ctx context.Context, nl *netlist.Netlist, cfg Config, path string) (*Pipeline, bool, error) {
	return RunStoredCtx(ctx, nl, cfg, fileStore{path: path})
}

// RunStoredCtx is the store-backed generalization of RunCachedCtx: the
// result is looked up in (and on a miss, persisted to) any store.Store —
// the local filesystem cache, a remote peer, or a replicated combination.
// The degradation contract is identical: a corrupt or unreadable entry
// falls back to a fresh run (pipeline_cache_corrupt + "cache"
// Degradation), a failed write degrades instead of erroring, and a
// result-degraded run is never persisted to any backend. An entry that
// only fails the restore checks after the front end falls back within
// the same run: atpg and switch-sim follow the front end already built.
func RunStoredCtx(ctx context.Context, nl *netlist.Netlist, cfg Config, st store.Store) (*Pipeline, bool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, false, err
	}
	reg := cfg.Obs.Metrics()
	key := CacheKey(nl.Name, cfg)
	var cf *cacheFile
	corrupt := ""
	fallback := func(reason string) {
		// Counted before the run report is taken, so the fallback shows up
		// in it.
		reg.Counter("pipeline_cache_corrupt").Inc()
		corrupt = reason
	}
	switch data, err := st.Get(ctx, key); {
	case err == nil:
		if cf, err = openCache(nl, cfg, data); err != nil && !errors.Is(err, errCacheMismatch) {
			fallback(err.Error())
		}
	case errors.Is(err, store.ErrNotFound):
		// Ordinary miss.
	default:
		fallback(fmt.Sprintf("store %s get failed: %v", st.Name(), err))
	}
	p, hit, err := run(ctx, nl, cfg, cf, fallback)
	if err != nil {
		return nil, false, err
	}
	if hit {
		return p, true, nil
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
// by the key's ring owner. It runs the same stages as a store hit. Unlike
// the cache-miss path it returns an error rather than silently falling
// back: the caller explicitly fetched these bytes and needs to know why
// they were unusable.
func DecodeCached(ctx context.Context, nl *netlist.Netlist, cfg Config, data []byte) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cf, err := openCache(nl, cfg, data)
	if err == nil {
		var p *Pipeline
		if p, _, err = run(ctx, nl, cfg, cf, nil); err == nil {
			return p, nil
		}
	}
	return nil, fmt.Errorf("experiments: decode cached result: %w", err)
}

// errCacheMismatch marks an intact entry for another circuit or config:
// an ordinary miss, not corruption.
var errCacheMismatch = errors.New("envelope does not match this circuit/config (different cache key?)")

// openCache verifies and parses envelope bytes (store.Open, the version
// check, the payload) and matches them to the run's circuit and config.
// Any error but errCacheMismatch means the bytes are unusable.
func openCache(nl *netlist.Netlist, cfg Config, data []byte) (*cacheFile, error) {
	version, payload, err := store.Open(data)
	if err != nil {
		return nil, err
	}
	if version != cacheVersion {
		return nil, fmt.Errorf("cache envelope has version %d, want %d", version, cacheVersion)
	}
	var cf cacheFile
	if err := json.Unmarshal(payload, &cf); err != nil {
		return nil, fmt.Errorf("cache payload does not parse: %v", err)
	}
	if cf.Circuit != nl.Name || cf.Config != digestConfig(cfg) {
		return nil, errCacheMismatch
	}
	return &cf, nil
}

// restore is the cache-load stage: it installs the payload's simulation
// results on p, whose front end has just been rebuilt. A payload whose
// shapes disagree with that front end — slice lengths against the fault
// lists, pattern widths or bits, the random-prefix count — is refused
// before anything is installed: it would be served as complete and break
// every later read of the result.
func (cf *cacheFile) restore(p *Pipeline) error {
	nf, ns, npi := len(p.Faults.Faults), len(p.StuckAt), len(p.Netlist.PIs)
	for _, c := range []struct {
		field     string
		got, want int
	}{
		{"num_faults", cf.NumFaults, nf},
		{"num_stuck_at", cf.NumStuckAt, ns},
		{"len(sa_detected_at)", len(cf.SADetectedAt), ns},
		{"len(untestable)", len(cf.Untestable), ns},
		{"len(aborted)", len(cf.Aborted), ns},
		{"len(sw_detected_at)", len(cf.SwDetectedAt), nf},
		{"len(iddq_at)", len(cf.IDDQAt), nf},
		{"len(undecided)", len(cf.Undecided), nf},
	} {
		if c.got != c.want {
			return fmt.Errorf("cache payload inconsistent: %s = %d, the rebuilt pipeline needs %d", c.field, c.got, c.want)
		}
	}
	for i, pat := range cf.Patterns {
		if len(pat) != npi {
			return fmt.Errorf("cache payload inconsistent: pattern %d has %d bits, the circuit has %d inputs", i, len(pat), npi)
		}
		for _, b := range pat {
			if b > 1 {
				return fmt.Errorf("cache payload inconsistent: pattern %d holds the value %d", i, b)
			}
		}
	}
	if cf.RandomCount < 0 || cf.RandomCount > len(cf.Patterns) {
		return fmt.Errorf("cache payload inconsistent: random_count %d for %d patterns", cf.RandomCount, len(cf.Patterns))
	}

	p.TestSet = &atpg.TestSet{
		N:            1,
		RandomCount:  cf.RandomCount,
		DetectCounts: make([]int, ns),
		DetectedAt:   cf.SADetectedAt,
		Untestable:   cf.Untestable,
		Aborted:      cf.Aborted,
	}
	for i, d := range cf.SADetectedAt {
		if d > 0 {
			p.TestSet.DetectCounts[i] = 1
		}
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
	return nil
}
