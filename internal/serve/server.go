// Package serve is the hardened serving layer of the defect-level
// projection pipeline: the HTTP/JSON API behind the dlprojd daemon.
//
// The cheap model-equation and fitting endpoints (/v1/dl, /v1/fit,
// /v1/coverage) answer synchronously. Pipeline runs — layout, extraction,
// ATPG, both fault simulations — are minutes of work at the high end, so
// they go through an asynchronous job API (/v1/pipeline submit / status /
// result / cancel) executed on a bounded worker pool.
//
// Robustness is the point of this package, not a garnish:
//
//   - Admission control: a bounded queue between the HTTP handlers and the
//     worker pool. A full queue sheds the submission with 429 and a
//     Retry-After hint — the handler never blocks on the pool.
//   - Deduplication: concurrent submissions with the same coalescing key
//     (experiments.CacheKey — circuit + result-determining config — plus
//     the execution budgets, Deadline and StageBudgets) coalesce onto one
//     job, sharing one pipeline run instead of N identical ones. The
//     budgets participate because coalesced submitters share the live
//     run's fate: a request with different budgets must not inherit
//     another request's degradation or deadline.
//   - Per-request deadlines map onto experiments.Config.Deadline and
//     StageBudgets, so a slow stage degrades the job (or fails it with a
//     typed error) instead of hanging a connection.
//   - Failures surface as structured JSON: a *experiments.PipelineError
//     keeps its stage name and progress-counter snapshot; handler panics
//     are recovered into a 500 JSON error and counted.
//   - Graceful drain: Drain stops admission (readiness flips off), waits
//     out in-flight jobs against a drain budget, cancels whatever remains,
//     and leaves the pool stopped. dlprojd wires this to SIGTERM.
//
// Every queue/shedding/coalescing event is recorded in the obs registry
// exposed at /metrics, and every job carries its own obs run report.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"defectsim/internal/cluster"
	"defectsim/internal/experiments"
	"defectsim/internal/netlist"
	"defectsim/internal/obs"
	"defectsim/internal/par"
	"defectsim/internal/store"
)

// Config parameterizes a Server. The zero value is usable: every field
// has a serving-grade default, applied by New.
type Config struct {
	// QueueDepth bounds the admission queue between the HTTP handlers and
	// the worker pool; a submission finding it full is shed with 429.
	// Default 16.
	QueueDepth int
	// Workers is the number of concurrently executing pipeline jobs.
	// Default 2 (each job is internally fault-parallel already; see
	// SimWorkers).
	Workers int
	// SimWorkers is the per-job experiments.Config.Workers value applied
	// when a request does not choose its own: the worker-pool width of the
	// fault-parallel simulators inside one pipeline run. Default 0
	// (runtime.NumCPU via internal/par).
	SimWorkers int
	// DefaultDeadline bounds a job's wall time when the request does not
	// set deadline_ms. Zero means unlimited.
	DefaultDeadline time.Duration
	// MaxDeadline caps the per-request deadline; requests asking for more
	// are rejected with 400. Zero means uncapped.
	MaxDeadline time.Duration
	// DrainBudget is how long Drain waits for in-flight and queued jobs to
	// finish before cancelling them. Default 10s.
	DrainBudget time.Duration
	// DrainGrace is how long Drain waits for cancelled jobs to unwind
	// after the budget expired (the simulators poll their context at
	// ~100ms granularity). Default 5s.
	DrainGrace time.Duration
	// RetryAfter is the base Retry-After hint attached to shed (429) and
	// draining (503) responses. The served hint scales with the backlog —
	// a full queue on busy workers hints longer waits than a transient
	// spike — up to 8×RetryAfter. Default 1s.
	RetryAfter time.Duration
	// CacheDir, when non-empty, holds one result-cache file per cache key,
	// so repeated submissions of a finished configuration are served from
	// cache. Empty disables the cache (unless Store is set directly).
	CacheDir string
	// Store overrides the result store backend. Nil with a CacheDir builds
	// a store.FS over it; nil without one disables result caching. The
	// serving layer persists every complete run here and serves the
	// /v1/store API from it.
	Store store.Store
	// Cluster, when non-nil, routes pipeline submissions across the peer
	// ring: a job whose cache key is owned by another node is forwarded
	// there (and its result fetched back through the owner's /v1/store
	// API). When the owner is unreachable the replica set is walked —
	// fetching an already-replicated result, then delegating the compute —
	// before falling back to a local run.
	Cluster *cluster.Cluster
	// Membership, when non-nil, is the file-backed membership source
	// behind POST /v1/cluster/reload (and dlprojd's SIGHUP handler).
	Membership *cluster.Membership
	// MaxBatch bounds the items of one /v1/pipeline:batch submission.
	// Default 64.
	MaxBatch int
	// MaxJobs bounds the finished-job records retained for status/result
	// queries; the oldest finished jobs are evicted first. Default 1024.
	MaxJobs int
	// Obs is the server-level tracer/registry behind /metrics. Default
	// obs.New(). (Each job additionally gets its own tracer for its run
	// report.)
	Obs *obs.Tracer
	// Logger receives the structured access log and job lifecycle events.
	// Nil disables logging entirely.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.DrainBudget <= 0 {
		c.DrainBudget = 10 * time.Second
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 5 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.Obs == nil {
		c.Obs = obs.New()
	}
	c.SimWorkers = par.Workers(c.SimWorkers)
	return c
}

// Job states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// job is one asynchronous pipeline run.
type job struct {
	id        string
	key       string // result-cache key (experiments.CacheKey)
	ckey      string // coalescing key: cache key + execution budgets
	circuit   string
	requestID string // correlation ID of the submitting request
	cfg       experiments.Config
	nl        *netlist.Netlist
	events    *eventLog
	// fwdBody is the validated request body, kept for forwarding to the
	// key's ring owner; noForward pins the job to local execution (set on
	// submissions that were themselves forwarded — the anti-loop guard).
	fwdBody   []byte
	noForward bool
	// ndetectN, when > 0, runs the n-detect study (experiments.
	// RunNDetectStudy up to this multiplicity) on the finished pipeline;
	// the study result lands in the mu-guarded study field below.
	ndetectN int

	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	state     string
	submitted time.Time
	started   time.Time
	finished  time.Time
	coalesced int64 // extra submissions sharing this run
	pipe      *experiments.Pipeline
	study     *experiments.NDetectStudy
	cacheHit  bool
	remote    string // peer that computed the adopted result, if any
	err       error
}

func (j *job) snapshot() (state string, err error, p *experiments.Pipeline) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.err, j.pipe
}

// Server owns the job store, the admission queue and the worker pool.
// Create with New, expose via Handler, stop with Drain.
type Server struct {
	cfg     Config
	tr      *obs.Tracer
	reg     *obs.Registry
	logger  *slog.Logger
	started time.Time
	build   BuildInfo

	queue    chan *job
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	baseCtx    context.Context
	baseCancel context.CancelFunc

	// store is the resolved result store (cfg.Store, or an FS store over
	// cfg.CacheDir); nil when caching is disabled. The /v1/store peer API
	// serves this backend directly — peers must see this node's local
	// copies, never a recursive replica walk.
	store store.Store
	// rstore is the store the pipeline runs read and write through: the
	// Replicated composition when the cluster runs with RF > 1, otherwise
	// identical to store.
	rstore store.Store
	// fronts memoizes front ends across this server's jobs: every
	// pipeline call (a local run, a store hit, a peer adoption) reads it
	// from the job's config, so a repeated design is laid out, LVS-checked
	// and extracted once. Per server, not per process: the retained jobs
	// hold these artifacts anyway, and servers in one process (the
	// in-process rings of the tests) stay independent.
	fronts *experiments.FrontEnds

	mu       sync.Mutex
	cond     *sync.Cond // broadcast whenever queued/running change
	jobs     map[string]*job
	order    []string        // submission order, for bounded retention
	inflight map[string]*job // cache key → live (queued/running) job
	queued   int
	running  int
	draining bool

	nextID atomic.Int64

	mQueueDepth   *obs.Gauge
	mInflight     *obs.Gauge
	mDraining     *obs.Gauge
	mUptime       *obs.Gauge
	mShed         *obs.Counter
	mCoalesced    *obs.Counter
	mSubmitted    *obs.Counter
	mRuns         *obs.Counter
	mComputed     *obs.Counter
	mDone         *obs.Counter
	mFailed       *obs.Counter
	mCancelled    *obs.Counter
	mPanics       *obs.Counter
	mRequests     *obs.CounterVec   // serve_requests_total{route,code}
	mReqSeconds   *obs.HistogramVec // serve_request_seconds{route}
	mStageSeconds *obs.HistogramVec // pipeline_stage_seconds{stage}, fleet-level
}

// BuildInfo identifies the running binary, read once from the embedded
// module/VCS metadata (debug.ReadBuildInfo). Served on /healthz and as
// the dlprojd_build_info gauge.
type BuildInfo struct {
	GoVersion string `json:"go_version"`
	Version   string `json:"version,omitempty"`  // main module version
	Revision  string `json:"revision,omitempty"` // vcs.revision
	Modified  bool   `json:"modified,omitempty"` // vcs.modified (dirty tree)
}

func readBuildInfo() BuildInfo {
	b := BuildInfo{}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	b.GoVersion = bi.GoVersion
	b.Version = bi.Main.Version
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			b.Revision = s.Value
		case "vcs.modified":
			b.Modified = s.Value == "true"
		}
	}
	return b
}

// New builds a Server and starts its worker pool. The caller must
// eventually call Drain (even with no traffic) to stop the workers.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	baseCtx, baseCancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		tr:         cfg.Obs,
		reg:        cfg.Obs.Metrics(),
		logger:     cfg.Logger,
		started:    time.Now(),
		build:      readBuildInfo(),
		queue:      make(chan *job, cfg.QueueDepth),
		stop:       make(chan struct{}),
		baseCtx:    baseCtx,
		baseCancel: baseCancel,
		jobs:       map[string]*job{},
		inflight:   map[string]*job{},
	}
	if s.logger == nil {
		s.logger = slog.New(nopLog{})
	}
	s.store = cfg.Store
	if s.store == nil && cfg.CacheDir != "" {
		fs, err := store.NewFS(cfg.CacheDir, store.NewMetrics(cfg.Obs.Metrics()))
		if err != nil {
			// A broken cache dir degrades to uncached serving — the cache is
			// an optimization, not a precondition for answering requests.
			s.logger.Warn("result store disabled", "cache_dir", cfg.CacheDir, "error", err)
		} else {
			s.store = fs
		}
	}
	s.rstore = s.store
	if c := cfg.Cluster; c != nil && c.RF() > 1 && s.store != nil {
		rep, err := store.NewReplicated(s.store, c, store.NewMetrics(cfg.Obs.Metrics()))
		if err != nil {
			s.logger.Warn("replication disabled", "error", err)
		} else {
			s.rstore = rep
		}
	}
	s.fronts = experiments.NewFrontEnds(s.reg)
	s.cond = sync.NewCond(&s.mu)
	s.mQueueDepth = s.reg.Gauge("serve_queue_depth")
	s.mInflight = s.reg.Gauge("serve_inflight")
	s.mDraining = s.reg.Gauge("serve_draining")
	s.mShed = s.reg.Counter("serve_shed_total")
	s.mCoalesced = s.reg.Counter("serve_coalesced_total")
	s.mSubmitted = s.reg.Counter("serve_jobs_submitted")
	s.mRuns = s.reg.Counter("serve_pipeline_runs")
	s.mComputed = s.reg.Counter("serve_pipeline_computed_total")
	s.mDone = s.reg.Counter("serve_jobs_done")
	s.mFailed = s.reg.Counter("serve_jobs_failed")
	s.mCancelled = s.reg.Counter("serve_jobs_cancelled")
	s.mPanics = s.reg.Counter("serve_handler_panics")
	s.mUptime = s.reg.Gauge("serve_uptime_seconds")
	s.mRequests = s.reg.CounterVec("serve_requests_total", "route", "code")
	s.mReqSeconds = s.reg.HistogramVec("serve_request_seconds",
		obs.ExpBuckets(0.0005, 4, 10), "route")
	s.mStageSeconds = s.reg.HistogramVec("pipeline_stage_seconds",
		experiments.StageSecondsBuckets, "stage")
	s.reg.Gauge("serve_queue_capacity").Set(float64(cfg.QueueDepth))
	s.reg.Gauge("serve_workers").Set(float64(cfg.Workers))
	s.reg.GaugeVec("dlprojd_build_info", "go_version", "revision", "version").
		With(s.build.GoVersion, s.build.Revision, s.build.Version).Set(1)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Sentinel admission errors, mapped to HTTP statuses by the handlers.
var (
	// ErrShed rejects a submission because the admission queue is full.
	ErrShed = errors.New("serve: admission queue full, submission shed")
	// ErrDraining rejects a submission because the server is draining.
	ErrDraining = errors.New("serve: draining, not admitting new jobs")
)

// coalesceKey derives the deduplication identity of a submission from its
// result-cache key plus the execution budgets. Two submissions coalesce
// only when they would run the *same* live job: identical results
// (CacheKey) under identical Deadline/StageBudgets. Budgets are excluded
// from the cache key (a complete cached result satisfies any budget) but
// must participate here — a coalesced submitter shares the live run's
// degradation and failure, so a request with a looser deadline must not
// ride a tighter-deadline run, nor vice versa.
func coalesceKey(cacheKey string, cfg experiments.Config) string {
	if cfg.Deadline == 0 && len(cfg.StageBudgets) == 0 {
		return cacheKey
	}
	stages := make([]string, 0, len(cfg.StageBudgets))
	for name := range cfg.StageBudgets {
		stages = append(stages, name)
	}
	sort.Strings(stages)
	var b strings.Builder
	fmt.Fprintf(&b, "%s|dl=%d", cacheKey, cfg.Deadline)
	for _, name := range stages {
		fmt.Fprintf(&b, "|%s=%d", name, cfg.StageBudgets[name])
	}
	return b.String()
}

// submission is one decoded, validated pipeline request on its way into
// the admission queue.
type submission struct {
	circuit   string
	nl        *netlist.Netlist
	cfg       experiments.Config
	requestID string
	// body is the raw (already validated) request body, retained so the
	// job can be forwarded verbatim to its ring owner.
	body []byte
	// noForward pins execution to this node (set on requests that carry
	// the forwarded marker — the anti-loop guard).
	noForward bool
	// ndetect, when > 0, makes the job an n-detect study up to this
	// multiplicity on top of the pipeline run.
	ndetect int
}

// submit admits a decoded request: it either coalesces onto an identical
// live job, enqueues a new one, or fails with ErrShed / ErrDraining.
// It never blocks on the worker pool.
func (s *Server) submit(sub submission) (j *job, coalesced bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.admitLocked(sub)
}

// admitLocked is submit's body under an already-held s.mu — the batch
// endpoint admits many decoded submissions in one critical section
// instead of bouncing the lock per item.
func (s *Server) admitLocked(sub submission) (j *job, coalesced bool, err error) {
	circuit, nl, cfg, requestID := sub.circuit, sub.nl, sub.cfg, sub.requestID
	key := experiments.CacheKey(circuit, cfg)
	ckey := coalesceKey(key, cfg)
	if sub.ndetect > 0 {
		// An n-detect study and a plain pipeline run with the same
		// configuration are different jobs; studies with different n are
		// too. The cache key is untouched — the underlying pipeline result
		// remains shareable through the store.
		ckey = fmt.Sprintf("%s|ndetect=%d", ckey, sub.ndetect)
	}
	if s.draining {
		return nil, false, ErrDraining
	}
	if live := s.inflight[ckey]; live != nil {
		live.mu.Lock()
		live.coalesced++
		live.mu.Unlock()
		s.mCoalesced.Inc()
		live.events.emit(EventCoalesced, "", "request "+requestID+" joined this run")
		s.logger.Info("job coalesced",
			"job", live.id, "request_id", requestID, "circuit", circuit)
		return live, true, nil
	}
	cfg.Obs = obs.New() // per-job tracer: every job gets its own run report
	cfg.FrontEnds = s.fronts
	ctx, cancel := context.WithCancel(s.baseCtx)
	j = &job{
		id:        fmt.Sprintf("job-%d", s.nextID.Add(1)),
		key:       key,
		ckey:      ckey,
		circuit:   circuit,
		requestID: requestID,
		cfg:       cfg,
		nl:        nl,
		events:    newEventLog(),
		fwdBody:   sub.body,
		noForward: sub.noForward,
		ndetectN:  sub.ndetect,
		ctx:       ctx,
		cancel:    cancel,
		state:     StateQueued,
		submitted: time.Now(),
	}
	s.hookSpans(j, cfg.Obs)
	select {
	case s.queue <- j:
	default:
		cancel()
		s.mShed.Inc()
		s.logger.Warn("job shed", "request_id", requestID, "circuit", circuit)
		return nil, false, ErrShed
	}
	s.queued++
	s.mQueueDepth.Set(float64(s.queued))
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.inflight[ckey] = j
	s.mSubmitted.Inc()
	s.pruneLocked()
	j.events.emit(EventQueued, "", "")
	s.logger.Info("job queued",
		"job", j.id, "request_id", requestID, "circuit", circuit)
	return j, false, nil
}

// hookSpans subscribes the server to the job tracer's span transitions:
// top-level pipeline stages become stage_start/stage_end events on the
// job's live stream, and each stage's wall time lands in the fleet-level
// pipeline_stage_seconds{stage} histogram. Inner spans (the simulators
// open their own) are ignored — the stream is a lifecycle feed, not a
// trace dump.
func (s *Server) hookSpans(j *job, tr *obs.Tracer) {
	isStage := make(map[string]bool, len(experiments.StageNames))
	for _, name := range experiments.StageNames {
		isStage[name] = true
	}
	var mu sync.Mutex
	startAt := map[string]time.Time{}
	tr.SetSpanHook(func(name string, start bool) {
		if !isStage[name] {
			return
		}
		if start {
			mu.Lock()
			startAt[name] = time.Now()
			mu.Unlock()
			j.events.emit(EventStageStart, name, "")
			return
		}
		mu.Lock()
		t0, ok := startAt[name]
		delete(startAt, name)
		mu.Unlock()
		if ok {
			s.mStageSeconds.With(name).Observe(time.Since(t0).Seconds())
		}
		j.events.emit(EventStageEnd, name, "")
	})
}

// pruneLocked evicts the oldest finished jobs beyond the retention cap.
// Live (queued/running) jobs are never evicted.
func (s *Server) pruneLocked() {
	for len(s.jobs) > s.cfg.MaxJobs {
		evicted := false
		for i, id := range s.order {
			j := s.jobs[id]
			if j == nil {
				continue
			}
			j.mu.Lock()
			finished := j.state == StateDone || j.state == StateFailed || j.state == StateCancelled
			j.mu.Unlock()
			if finished {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything live; let the map exceed the cap briefly
		}
	}
}

// Job looks up a job by ID.
func (s *Server) Job(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel cancels a job: queued jobs are marked cancelled immediately (the
// worker skips them), running jobs get their context cancelled and settle
// through the pipeline's cancellation path. Finished jobs are unchanged.
// Either way the job leaves the inflight map at once, so an identical
// submission arriving after the cancel starts a fresh run instead of
// coalescing onto a job that is already dying. The returned job (nil when
// the ID is unknown) lets callers snapshot the post-cancel state without
// a second lookup racing against retention pruning.
func (s *Server) Cancel(id string) (*job, bool) {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil {
		s.mu.Unlock()
		return nil, false
	}
	j.mu.Lock()
	cancelledQueued := false
	switch j.state {
	case StateQueued:
		j.state = StateCancelled
		j.err = context.Canceled
		j.finished = time.Now()
		s.mCancelled.Inc()
		cancelledQueued = true
	case StateRunning:
		// settle via the run's cancellation path; state flips in runJob.
	}
	if s.inflight[j.ckey] == j {
		delete(s.inflight, j.ckey)
	}
	j.mu.Unlock()
	s.mu.Unlock()
	j.cancel()
	if cancelledQueued {
		j.events.emit(EventCancelled, "", "cancelled while queued")
		s.logger.Info("job cancelled",
			"job", j.id, "request_id", j.requestID, "state", StateQueued)
	}
	return j, true
}

// worker pulls jobs off the admission queue until the server stops.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

// runJob executes one job end to end: state bookkeeping, the pipeline run
// (cached when a cache dir is configured), and failure classification.
// Panics escaping the pipeline's own stage isolation are contained here so
// a broken run can never take a worker down.
func (s *Server) runJob(j *job) {
	s.mu.Lock()
	s.queued--
	s.mQueueDepth.Set(float64(s.queued))
	j.mu.Lock()
	if j.state != StateQueued { // cancelled while waiting
		j.mu.Unlock()
		s.cond.Broadcast()
		s.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
	s.running++
	s.mInflight.Set(float64(s.running))
	s.mu.Unlock()
	j.events.emit(EventRunning, "", "")
	s.logger.Info("job running",
		"job", j.id, "request_id", j.requestID, "circuit", j.circuit)

	defer func() {
		if rec := recover(); rec != nil {
			s.mPanics.Inc()
			s.finish(j, nil, false, fmt.Errorf("serve: job panic: %v\n%s", rec, debug.Stack()))
		}
		s.mu.Lock()
		s.running--
		s.mInflight.Set(float64(s.running))
		s.cond.Broadcast()
		s.mu.Unlock()
		j.cancel() // release the context's resources
	}()

	s.mRuns.Inc()
	s.finish(s.execute(j))
}

// execute runs one job: forwarded across the key's replica set when the
// cluster says another node is its primary owner, locally otherwise —
// and locally as the fallback for every forwarding failure. Availability
// beats locality: the only jobs that fail are jobs whose pipeline itself
// fails.
func (s *Server) execute(j *job) (_ *job, p *experiments.Pipeline, hit bool, err error) {
	c := s.cfg.Cluster
	if c != nil && !j.noForward && len(j.fwdBody) > 0 {
		owners := c.Owners(j.key)
		if len(owners) > 0 && owners[0] != c.Self() {
			if p, ok := s.runForwarded(j, owners); ok {
				return j, p, true, nil
			}
			if j.ctx.Err() != nil {
				// Cancelled while forwarding: settle through the usual path.
				return j, nil, false, j.ctx.Err()
			}
			j.events.emit(EventForwardFallback, "",
				"running locally (owners "+strings.Join(owners, ", ")+")")
		}
	}
	// The pipeline reads and writes through the replicated store when the
	// cluster runs with RF > 1 — a locally computed result fans out to the
	// other owners, and a local miss is served from any live replica.
	if s.rstore != nil {
		p, hit, err = experiments.RunStoredCtx(j.ctx, j.nl, j.cfg, s.rstore)
	} else {
		p, err = experiments.RunCtx(j.ctx, j.nl, j.cfg)
	}
	if err == nil && !hit {
		// An actual simulation ran (not a cache/replica adoption) — the
		// counter the chaos tests use to prove a killed owner degrades to
		// "fetch from replica", never "re-simulate".
		s.mComputed.Inc()
	}
	if err == nil && j.ndetectN > 0 {
		// The n-detect study rides on the finished pipeline (which may have
		// come from the result store — the study itself always runs live).
		err = s.runStudy(j, p)
	}
	return j, p, hit, err
}

// runStudy executes the job's n-detect study on its completed pipeline
// and records the result on the job.
func (s *Server) runStudy(j *job, p *experiments.Pipeline) error {
	j.events.emit(EventStageStart, "ndetect", "")
	st, err := experiments.RunNDetectStudy(j.ctx, p, j.ndetectN)
	j.events.emit(EventStageEnd, "ndetect", "")
	if err != nil {
		return err
	}
	j.mu.Lock()
	j.study = st
	j.mu.Unlock()
	return nil
}

// runForwarded routes a non-primary job across the key's replica set in
// ring order. The primary owner gets the full forward (submit → poll →
// fetch); when it is unreachable, each successive replica is tried —
// first for an already-replicated result envelope (the killed-owner
// case: fetching the replica's copy beats re-simulating), then as a
// stand-in compute node via the same submit path. Reaching this node's
// own rank stops the walk: the local run path reads through the
// replicated store, which is the same failover continued. Returns ok
// false when no remote owner could serve the job; the caller then runs
// it locally.
func (s *Server) runForwarded(j *job, owners []string) (*experiments.Pipeline, bool) {
	c := s.cfg.Cluster
	m := c.Metrics()
	lastOutcome := "unknown_peer"
	for rank, owner := range owners {
		if j.ctx.Err() != nil {
			return nil, false
		}
		if owner == c.Self() {
			// Our own replica rank: stop the walk; the local run serves it
			// (and the replicated store's Get still repairs the ring).
			m.FallbackLocal("replica_self")
			return nil, false
		}
		peer := c.Peer(owner)
		if peer == nil {
			continue // departed mid-walk (membership reload)
		}
		if rank > 0 {
			// Failover rank: the primary is down, but the result may already
			// be replicated here — fetch before delegating a recompute.
			if p := s.adoptFromPeer(j, peer, true); p != nil {
				m.ForwardOutcome(owner, "replica_hit")
				return p, true
			}
		}
		p, ok, outcome := s.forwardTo(j, peer, rank)
		if ok {
			return p, true
		}
		if outcome == "cancelled" {
			return nil, false
		}
		lastOutcome = outcome
	}
	m.FallbackLocal(lastOutcome)
	return nil, false
}

// forwardTo submits the job's body to one owner, polls the remote job to
// a terminal state, fetches the result envelope from the owner's store,
// and adopts it locally. Any failure — submit, poll, remote run, fetch,
// decode — returns ok false with the outcome label; a remote
// result-degraded run also lands there structurally, because degraded
// runs are never persisted to any store and the fetch misses.
func (s *Server) forwardTo(j *job, peer *cluster.Peer, rank int) (_ *experiments.Pipeline, ok bool, outcome string) {
	c := s.cfg.Cluster
	m := c.Metrics()
	owner := peer.Name()
	fail := func(outcome, detail string) (*experiments.Pipeline, bool, string) {
		m.ForwardOutcome(owner, outcome)
		s.logger.Warn("forward failed",
			"job", j.id, "peer", owner, "rank", rank, "outcome", outcome, "detail", detail)
		return nil, false, outcome
	}
	detail := "key " + j.key + " owned by " + owner
	if rank > 0 {
		detail = fmt.Sprintf("key %s delegated to replica rank %d (%s)", j.key, rank, owner)
	}
	j.events.emit(EventForwarded, "", detail)
	s.logger.Info("job forwarded", "job", j.id, "peer", owner, "rank", rank, "key", j.key)
	js, err := peer.Submit(j.ctx, j.fwdBody, j.requestID)
	if err != nil {
		return fail("submit_error", err.Error())
	}
	tick := time.NewTicker(c.PollInterval())
	defer tick.Stop()
	for !js.Terminal() {
		select {
		case <-j.ctx.Done():
			// The local submitter cancelled (or is draining): release the
			// remote run best-effort and settle locally.
			cctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_ = peer.Cancel(cctx, js.ID)
			cancel()
			m.ForwardOutcome(owner, "cancelled")
			return nil, false, "cancelled"
		case <-tick.C:
		}
		if js, err = peer.Status(j.ctx, js.ID); err != nil {
			return fail("poll_error", err.Error())
		}
	}
	if js.State != StateDone {
		detail := js.State
		if js.Error != nil {
			detail += ": " + js.Error.Message
		}
		return fail("remote_"+js.State, detail)
	}
	p := s.adoptFromPeer(j, peer, false)
	if p == nil {
		return fail("fetch_error", "result envelope not adoptable from "+owner)
	}
	m.ForwardOutcome(owner, "ok")
	return p, true, "ok"
}

// adoptFromPeer fetches the job's result envelope from a peer's store,
// verifies and decodes it against the job's own config, and backfills
// this node's local store so the next submission of the key is a local
// hit. Returns nil when the peer has no (valid) copy. replicaFetch marks
// the failover path — the killed-owner case served from a replica — on
// the job's event stream.
func (s *Server) adoptFromPeer(j *job, peer *cluster.Peer, replicaFetch bool) *experiments.Pipeline {
	data, err := peer.Store().Get(j.ctx, j.key)
	if err != nil {
		return nil
	}
	p, err := experiments.DecodeCached(j.ctx, j.nl, j.cfg, data)
	if err != nil {
		s.logger.Warn("peer result not adoptable",
			"job", j.id, "peer", peer.Name(), "key", j.key, "error", err)
		return nil
	}
	if s.store != nil {
		// Backfill the local store only (not the replicated composition):
		// adopting a result must not re-fan it out — the owners either hold
		// it already or converge through read-repair.
		if err := s.store.Put(j.ctx, j.key, data); err != nil {
			s.logger.Warn("store backfill failed", "job", j.id, "key", j.key, "error", err)
		}
	}
	j.mu.Lock()
	j.remote = peer.Name()
	j.mu.Unlock()
	if replicaFetch {
		j.events.emit(EventReplicaFetch, "", "adopted replica copy of "+j.key+" from "+peer.Name())
	}
	return p
}

// ReloadMembership re-reads the peers file and swaps the ring — the
// shared implementation behind POST /v1/cluster/reload and dlprojd's
// SIGHUP handler. Errors leave the current membership untouched.
func (s *Server) ReloadMembership() (cluster.MembershipChange, error) {
	if s.cfg.Membership == nil {
		return cluster.MembershipChange{}, errors.New("serve: no membership source configured (need -peers-file)")
	}
	ch, err := s.cfg.Membership.Reload()
	if err != nil {
		s.logger.Error("membership reload failed", "error", err)
		return ch, err
	}
	s.logger.Info("membership reloaded",
		"joined", ch.Joined, "left", ch.Left, "nodes", ch.Nodes)
	return ch, nil
}

// finish classifies a run's outcome onto the job record, stamps the
// request ID onto the run report, and seals the event stream with the
// degradation and terminal events. The job leaves the inflight map
// first: a client that resubmits as soon as it sees the terminal event
// must start a fresh job (or hit the store), never coalesce onto this
// finished one.
func (s *Server) finish(j *job, p *experiments.Pipeline, cacheHit bool, err error) {
	s.mu.Lock()
	if s.inflight[j.ckey] == j {
		delete(s.inflight, j.ckey)
	}
	s.mu.Unlock()
	j.mu.Lock()
	if j.state != StateRunning {
		j.mu.Unlock()
		return
	}
	j.finished = time.Now()
	j.pipe = p
	j.cacheHit = cacheHit
	j.err = err
	if p != nil && p.Report != nil {
		p.Report.RequestID = j.requestID
	}
	switch {
	case err == nil:
		j.state = StateDone
		s.mDone.Inc()
	case errors.Is(err, context.Canceled):
		j.state = StateCancelled
		s.mCancelled.Inc()
	default:
		j.state = StateFailed
		s.mFailed.Inc()
	}
	state, elapsed, remote := j.state, j.finished.Sub(j.started), j.remote
	j.mu.Unlock()

	if p != nil {
		for _, d := range p.Degradations {
			j.events.emit(EventDegraded, d.Stage, d.Reason)
		}
	}
	switch state {
	case StateDone:
		detail := ""
		if cacheHit {
			detail = "served from result cache"
		}
		if remote != "" {
			detail = "adopted result computed by " + remote
		}
		j.events.emit(EventDone, "", detail)
	case StateCancelled:
		j.events.emit(EventCancelled, "", errDetail(err))
	default:
		j.events.emit(EventFailed, "", errDetail(err))
	}
	s.logger.Info("job finished",
		"job", j.id, "request_id", j.requestID, "state", state,
		"duration", elapsed, "cache_hit", cacheHit)
}

// errDetail renders an error for an event's detail field.
func errDetail(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// DrainReport is the outcome of a graceful drain.
type DrainReport struct {
	// Waited is how long the drain took end to end.
	Waited time.Duration `json:"waited_ns"`
	// Cancelled lists the jobs that did not finish within the budget and
	// were cancelled. Empty on a fully graceful drain.
	Cancelled []string `json:"cancelled,omitempty"`
	// Forced reports whether cancelled jobs were still unwinding when the
	// grace period expired (they keep their context cancelled and settle
	// on their own, but the pool is already stopped).
	Forced bool `json:"forced,omitempty"`
}

// Clean reports whether every job finished on its own within the budget.
func (r DrainReport) Clean() bool { return len(r.Cancelled) == 0 && !r.Forced }

// Drain performs graceful shutdown of the job layer: admission stops
// (readiness flips off, submissions get 503), in-flight and queued jobs
// get DrainBudget to finish, whatever remains is cancelled and given
// DrainGrace to unwind, then the worker pool is stopped. Drain is
// idempotent; concurrent calls share the same shutdown. ctx bounds the
// whole wait (its cancellation forces the fast path).
func (s *Server) Drain(ctx context.Context) DrainReport {
	start := time.Now()
	s.mu.Lock()
	s.draining = true
	s.mDraining.Set(1)
	s.mu.Unlock()

	budget := s.cfg.DrainBudget
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem < budget {
			budget = rem
		}
	}
	var rep DrainReport
	if !s.waitIdle(ctx, budget) {
		// Budget exhausted: cancel everything still live.
		s.mu.Lock()
		for _, id := range s.order {
			j := s.jobs[id]
			if j == nil {
				continue
			}
			j.mu.Lock()
			cancelledQueued := false
			switch j.state {
			case StateQueued:
				j.state = StateCancelled
				j.err = context.Canceled
				j.finished = time.Now()
				s.mCancelled.Inc()
				if s.inflight[j.ckey] == j {
					delete(s.inflight, j.ckey)
				}
				rep.Cancelled = append(rep.Cancelled, j.id)
				cancelledQueued = true
			case StateRunning:
				rep.Cancelled = append(rep.Cancelled, j.id)
			}
			j.mu.Unlock()
			j.cancel()
			if cancelledQueued {
				j.events.emit(EventCancelled, "", "cancelled by drain")
			}
		}
		s.mu.Unlock()
		if !s.waitIdle(ctx, s.cfg.DrainGrace) {
			rep.Forced = true
		}
	}
	s.stopOnce.Do(func() { close(s.stop) })
	if !rep.Forced {
		s.wg.Wait()
	}
	s.baseCancel()
	rep.Waited = time.Since(start)
	s.logger.Info("drain finished",
		"waited", rep.Waited, "cancelled", len(rep.Cancelled), "forced", rep.Forced)
	return rep
}

// Draining reports whether Drain has started (readiness off).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// waitIdle blocks until no jobs are queued or running, the timeout
// expires, or ctx is cancelled. Returns true when idle was reached.
func (s *Server) waitIdle(ctx context.Context, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	wake := time.AfterFunc(timeout, func() { s.cond.Broadcast() })
	defer wake.Stop()
	stopPoll := context.AfterFunc(ctx, func() { s.cond.Broadcast() })
	defer stopPoll()
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.queued+s.running > 0 {
		if ctx.Err() != nil || !time.Now().Before(deadline) {
			return false
		}
		s.cond.Wait()
	}
	return true
}

// Metrics returns the server's obs registry (the one behind /metrics) —
// test and daemon access to the serve_* instruments.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Store returns the resolved result store backend (nil when caching is
// disabled).
func (s *Server) Store() store.Store { return s.store }

// retryAfterSeconds computes the adaptive Retry-After hint attached to
// shed and draining responses: the base hint scaled by the backlog per
// worker, capped at 8× the base. An idle server hints the base; a
// server shedding with a full queue tells clients to stay away roughly
// one queue-drain longer, so synchronized retries do not re-shed.
func (s *Server) retryAfterSeconds() int {
	s.mu.Lock()
	backlog := s.queued + s.running
	s.mu.Unlock()
	d := time.Duration(float64(s.cfg.RetryAfter) * (1 + float64(backlog)/float64(s.cfg.Workers)))
	if d > 8*s.cfg.RetryAfter {
		d = 8 * s.cfg.RetryAfter
	}
	secs := int(d.Seconds() + 0.5)
	if secs < 1 {
		secs = 1
	}
	return secs
}
