package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"defectsim/internal/experiments"
	"defectsim/internal/faultinject"
	"defectsim/internal/netlist"
)

// The job-API tests exercise the server through real HTTP round trips
// (httptest) with fault-injection hooks making the pipeline's timing
// deterministic: a hook blocked on a channel pins a job "running" for as
// long as the test needs, without sleeps sized to machine speed.
//
// Hooks are process-global, so these tests never run in parallel.

// newTestServer starts a Server plus an httptest front end, drained and
// closed at cleanup. Tests that drain explicitly still work: Drain is
// idempotent.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
		ts.Close()
	})
	return s, ts
}

func post(t *testing.T, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, resp.Header, data
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, data
}

func decode[T any](t *testing.T, data []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("decode %T from %s: %v", v, data, err)
	}
	return v
}

// submitJob posts a pipeline request and fails the test unless it is
// accepted as a new job (202).
func submitJob(t *testing.T, ts *httptest.Server, body string) jobStatus {
	t.Helper()
	code, _, data := post(t, ts.URL+"/v1/pipeline", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202; body: %s", code, data)
	}
	st := decode[jobStatus](t, data)
	if st.ID == "" {
		t.Fatalf("submit response has no job id: %s", data)
	}
	return st
}

// waitState polls the status endpoint until the job reaches want.
func waitState(t *testing.T, ts *httptest.Server, id, want string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var st jobStatus
	for time.Now().Before(deadline) {
		code, data := get(t, ts.URL+"/v1/pipeline/"+id)
		if code != http.StatusOK {
			t.Fatalf("status %s = %d: %s", id, code, data)
		}
		st = decode[jobStatus](t, data)
		if st.State == want {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q (last: %q)", id, want, st.State)
	return st
}

// waitResult polls the result endpoint until the job settles (non-202)
// and returns the final status code and body.
func waitResult(t *testing.T, ts *httptest.Server, id string) (int, []byte) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, data := get(t, ts.URL+"/v1/pipeline/"+id+"/result")
		if code != http.StatusAccepted {
			return code, data
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s result still pending after 30s", id)
	return 0, nil
}

// blockHook returns a faultinject hook that blocks every firing until
// release is closed (or the job is cancelled), plus the release function.
func blockHook() (hook faultinject.Hook, release func()) {
	ch := make(chan struct{})
	return func(ctx context.Context) error {
		select {
		case <-ch:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}, func() { close(ch) }
}

const smallC17 = `{"circuit":"c17","random_vectors":48}`

// TestSubmitPollResult is the happy path: submit, poll status, fetch the
// result, and hit the result cache on an identical resubmission.
func TestSubmitPollResult(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 4, CacheDir: t.TempDir()})

	st := submitJob(t, ts, smallC17)
	if st.State != StateQueued {
		t.Fatalf("fresh job state = %q, want queued", st.State)
	}
	code, data := waitResult(t, ts, st.ID)
	if code != http.StatusOK {
		t.Fatalf("result = %d, want 200; body: %s", code, data)
	}
	res := decode[jobResult](t, data)
	if res.Circuit != "c17" {
		t.Fatalf("result circuit = %q, want c17", res.Circuit)
	}
	if !(res.Yield > 0 && res.Yield < 1) {
		t.Fatalf("result yield = %g, want in (0,1)", res.Yield)
	}
	if res.Vectors == 0 || res.StuckAtCoverage <= 0 {
		t.Fatalf("result has no test set: vectors=%d coverage=%g", res.Vectors, res.StuckAtCoverage)
	}
	if res.Report == nil {
		t.Fatal("result has no run report")
	}
	if res.CacheHit {
		t.Fatal("first run reported a cache hit")
	}
	if got := waitState(t, ts, st.ID, StateDone); got.Finished == "" {
		t.Fatal("done job has no finished_at timestamp")
	}

	// Identical resubmission after completion: a new job (nothing to
	// coalesce onto) served from the result cache.
	st2 := submitJob(t, ts, smallC17)
	if st2.ID == st.ID {
		t.Fatal("finished job must not absorb new submissions")
	}
	code, data = waitResult(t, ts, st2.ID)
	if code != http.StatusOK {
		t.Fatalf("cached result = %d, want 200; body: %s", code, data)
	}
	res2 := decode[jobResult](t, data)
	if !res2.CacheHit {
		t.Fatal("identical resubmission did not hit the result cache")
	}
	if res2.Yield != res.Yield || res2.StuckAtCoverage != res.StuckAtCoverage {
		t.Fatalf("cached result differs: yield %g vs %g, coverage %g vs %g",
			res2.Yield, res.Yield, res2.StuckAtCoverage, res.StuckAtCoverage)
	}
	if s.Metrics().Counter("serve_jobs_done").Value() != 2 {
		t.Fatalf("serve_jobs_done = %d, want 2", s.Metrics().Counter("serve_jobs_done").Value())
	}
}

// TestFrontEndMemoAcrossJobs: the server's front-end memo serves every
// job of a design it has seen — a fresh run under a new seed and a
// store hit alike — and the result is the memo-less one.
func TestFrontEndMemoAcrossJobs(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, CacheDir: t.TempDir()})
	var results []jobResult
	for _, body := range []string{
		`{"circuit":"c17","random_vectors":48,"seed":1}`,
		`{"circuit":"c17","random_vectors":48,"seed":2}`,
		`{"circuit":"c17","random_vectors":48,"seed":1}`, // store hit
	} {
		st := submitJob(t, ts, body)
		code, data := waitResult(t, ts, st.ID)
		if code != http.StatusOK {
			t.Fatalf("%s: result = %d: %s", body, code, data)
		}
		results = append(results, decode[jobResult](t, data))
	}
	if !results[2].CacheHit {
		t.Fatal("resubmission did not hit the result store")
	}
	fe := s.Metrics().CounterVec("pipeline_frontend_total", "outcome")
	if h, m := fe.With("hit").Value(), fe.With("miss").Value(); h != 2 || m != 1 {
		t.Fatalf("pipeline_frontend_total hit=%d miss=%d, want 2 and 1", h, m)
	}

	nl := netlist.C17()
	cfg := experiments.DefaultConfig()
	cfg.RandomVectors, cfg.Seed = 48, 2
	ref, err := experiments.Run(nl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := results[1]; got.Yield != ref.Yield || got.Vectors != len(ref.TestSet.Patterns) ||
		got.ThetaFinal != ref.ThetaCurve(false).Final() {
		t.Fatalf("memo-served job: yield %v, %d vectors, Θ %v; memo-less run: %v, %d, %v",
			got.Yield, got.Vectors, got.ThetaFinal, ref.Yield, len(ref.TestSet.Patterns), ref.ThetaCurve(false).Final())
	}
}

// TestLoadShed pins the admission contract: with the single worker pinned
// and the queue full, the next submission is shed with 429 + Retry-After
// immediately — the handler never blocks on the pool.
func TestLoadShed(t *testing.T) {
	hook, release := blockHook()
	restore := faultinject.Set(faultinject.HookSwitchSimVector, hook)
	defer restore()

	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, RetryAfter: 7 * time.Second})

	// Job 1 occupies the worker (blocked in switch-sim); distinct seeds
	// keep the cache keys distinct so nothing coalesces.
	j1 := submitJob(t, ts, `{"circuit":"c17","random_vectors":48,"seed":101}`)
	waitState(t, ts, j1.ID, StateRunning)
	// Job 2 fills the queue.
	j2 := submitJob(t, ts, `{"circuit":"c17","random_vectors":48,"seed":102}`)

	// Job 3 finds the queue full: shed, now.
	start := time.Now()
	code, hdr, data := post(t, ts.URL+"/v1/pipeline", `{"circuit":"c17","random_vectors":48,"seed":103}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overload submit = %d, want 429; body: %s", code, data)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("shed response took %v; shedding must not block", took)
	}
	// The hint adapts to the backlog: base 7s scaled by (1 + backlog/workers)
	// with one job running and one queued on one worker = 21s.
	if got := hdr.Get("Retry-After"); got != "21" {
		t.Fatalf("Retry-After = %q, want %q (adaptive: 7s base × 3)", got, "21")
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Error.Message == "" {
		t.Fatalf("shed response is not a structured error: %s", data)
	}
	if s.Metrics().Counter("serve_shed_total").Value() != 1 {
		t.Fatalf("serve_shed_total = %d, want 1", s.Metrics().Counter("serve_shed_total").Value())
	}
	if got := s.Metrics().CounterVec("serve_requests_total", "route", "code").
		With("/v1/pipeline", "429").Value(); got != 1 {
		t.Fatalf(`serve_requests_total{/v1/pipeline,429} = %d, want 1`, got)
	}

	// Unblock: both admitted jobs finish.
	release()
	for _, id := range []string{j1.ID, j2.ID} {
		if code, data := waitResult(t, ts, id); code != http.StatusOK {
			t.Fatalf("job %s after release = %d: %s", id, code, data)
		}
	}
}

// TestRetryAfterCap pins the adaptive hint's range: the base scaled by
// (1 + backlog/workers), never more than 8× the base.
func TestRetryAfterCap(t *testing.T) {
	cfg := Config{Workers: 2, RetryAfter: 2 * time.Second}.withDefaults()
	for _, tc := range []struct{ queued, running, want int }{
		{0, 0, 2},   // idle: the base
		{1, 2, 5},   // 2s × (1 + 3/2)
		{12, 2, 16}, // 2s × (1 + 14/2), exactly the cap
		{40, 2, 16}, // 2s × 22, capped at 8 × 2s
	} {
		s := &Server{cfg: cfg, queued: tc.queued, running: tc.running}
		if got := s.retryAfterSeconds(); got != tc.want {
			t.Errorf("queued %d, running %d: Retry-After %ds, want %ds", tc.queued, tc.running, got, tc.want)
		}
	}
}

// TestSingleflightCoalesce pins deduplication: K identical submissions
// share one job and exactly one pipeline run.
func TestSingleflightCoalesce(t *testing.T) {
	hook, release := blockHook()
	restore := faultinject.Set(faultinject.HookSwitchSimVector, hook)
	defer restore()

	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	body := `{"circuit":"c17","random_vectors":48,"seed":7}`
	first := submitJob(t, ts, body)

	const extra = 5
	for i := 0; i < extra; i++ {
		code, _, data := post(t, ts.URL+"/v1/pipeline", body)
		if code != http.StatusOK {
			t.Fatalf("coalesced submit %d = %d, want 200; body: %s", i, code, data)
		}
		sr := decode[submitResponse](t, data)
		if !sr.CoalescedOnto {
			t.Fatalf("submit %d not marked coalesced_onto_existing: %s", i, data)
		}
		if sr.ID != first.ID {
			t.Fatalf("submit %d coalesced onto %s, want %s", i, sr.ID, first.ID)
		}
	}

	release()
	if code, data := waitResult(t, ts, first.ID); code != http.StatusOK {
		t.Fatalf("coalesced job result = %d: %s", code, data)
	}
	st := waitState(t, ts, first.ID, StateDone)
	if st.Coalesced != extra {
		t.Fatalf("job coalesced count = %d, want %d", st.Coalesced, extra)
	}
	if runs := s.Metrics().Counter("serve_pipeline_runs").Value(); runs != 1 {
		t.Fatalf("serve_pipeline_runs = %d, want exactly 1", runs)
	}
	if co := s.Metrics().Counter("serve_coalesced_total").Value(); co != extra {
		t.Fatalf("serve_coalesced_total = %d, want %d", co, extra)
	}
	if sub := s.Metrics().Counter("serve_jobs_submitted").Value(); sub != 1 {
		t.Fatalf("serve_jobs_submitted = %d, want 1", sub)
	}

	// The key is released with the job: an identical submission now starts
	// a fresh run instead of latching onto the finished one.
	restore()
	again := submitJob(t, ts, body)
	if again.ID == first.ID {
		t.Fatal("finished job absorbed a new submission")
	}
	if code, data := waitResult(t, ts, again.ID); code != http.StatusOK {
		t.Fatalf("fresh rerun result = %d: %s", code, data)
	}
}

// TestFaultInjectedFailure pins structured degradation: an injected stage
// failure surfaces as a 503 JSON error naming the stage, and the server
// keeps serving — it never wedges.
func TestFaultInjectedFailure(t *testing.T) {
	injected := errors.New("injected extraction fault")
	restore := faultinject.Set(faultinject.HookExtractFaults, faultinject.Fail(injected))

	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	st := submitJob(t, ts, smallC17)
	code, data := waitResult(t, ts, st.ID)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("failed job result = %d, want 503; body: %s", code, data)
	}
	eb := decode[errorBody](t, data)
	if eb.Error.Stage != "extract" {
		t.Fatalf("error stage = %q, want extract; body: %s", eb.Error.Stage, data)
	}
	if !strings.Contains(eb.Error.Message, "injected extraction fault") {
		t.Fatalf("error message lost the cause: %s", data)
	}
	if s.Metrics().Counter("serve_jobs_failed").Value() != 1 {
		t.Fatalf("serve_jobs_failed = %d, want 1", s.Metrics().Counter("serve_jobs_failed").Value())
	}

	// Liveness is unaffected and the next job (hook removed) succeeds: the
	// API degraded, it did not wedge.
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after failure = %d, want 200", code)
	}
	restore()
	st2 := submitJob(t, ts, smallC17)
	if code, data := waitResult(t, ts, st2.ID); code != http.StatusOK {
		t.Fatalf("job after hook removal = %d: %s", code, data)
	}
}

// TestStageBudgetDegrades pins partial-result delivery: a job whose stage
// budget runs out still returns 200, marked degraded, with the
// degradation reasons listed — not an error, not a hang.
func TestStageBudgetDegrades(t *testing.T) {
	restore := faultinject.Set(faultinject.HookATPGFault, faultinject.Sleep(5*time.Millisecond))
	defer restore()

	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	st := submitJob(t, ts, `{"circuit":"c17","random_vectors":0,"stage_budgets_ms":{"atpg":20}}`)
	code, data := waitResult(t, ts, st.ID)
	if code != http.StatusOK {
		t.Fatalf("degraded job result = %d, want 200; body: %s", code, data)
	}
	res := decode[jobResult](t, data)
	if !res.Degraded {
		t.Fatalf("budget-starved run not marked degraded: %s", data)
	}
	if len(res.Degradations) == 0 {
		t.Fatal("degraded result lists no degradation reasons")
	}
	found := false
	for _, d := range res.Degradations {
		if strings.Contains(d, "atpg") {
			found = true
		}
	}
	if !found {
		t.Fatalf("degradations do not name the atpg stage: %v", res.Degradations)
	}
	if fin := waitState(t, ts, st.ID, StateDone); !fin.Degraded {
		t.Fatal("status endpoint does not surface the degradation")
	}
}

// TestCancel covers both cancellation paths: a queued job flips to
// cancelled immediately; a running job settles through the pipeline's
// cancellation machinery.
func TestCancel(t *testing.T) {
	hook, release := blockHook()
	restore := faultinject.Set(faultinject.HookSwitchSimVector, hook)
	defer restore()
	defer release()

	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	running := submitJob(t, ts, `{"circuit":"c17","random_vectors":48,"seed":201}`)
	waitState(t, ts, running.ID, StateRunning)
	queued := submitJob(t, ts, `{"circuit":"c17","random_vectors":48,"seed":202}`)

	// Queued job: cancelled on the spot, never runs.
	code, _, data := post(t, ts.URL+"/v1/pipeline/"+queued.ID+"/cancel", "")
	if code != http.StatusOK {
		t.Fatalf("cancel queued = %d: %s", code, data)
	}
	if st := decode[jobStatus](t, data); st.State != StateCancelled {
		t.Fatalf("queued job state after cancel = %q, want cancelled", st.State)
	}
	if code, data := waitResult(t, ts, queued.ID); code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled job result = %d, want 503: %s", code, data)
	}

	// Running job: the cancel propagates through the job context.
	if code, _, data := post(t, ts.URL+"/v1/pipeline/"+running.ID+"/cancel", ""); code != http.StatusOK {
		t.Fatalf("cancel running = %d: %s", code, data)
	}
	waitState(t, ts, running.ID, StateCancelled)
	code, data = waitResult(t, ts, running.ID)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled running job result = %d, want 503: %s", code, data)
	}
	eb := decode[errorBody](t, data)
	if eb.Error.Message == "" {
		t.Fatalf("cancelled job error has no message: %s", data)
	}

	// Unknown IDs 404.
	if code, _, _ := post(t, ts.URL+"/v1/pipeline/nope/cancel", ""); code != http.StatusNotFound {
		t.Fatalf("cancel unknown = %d, want 404", code)
	}
}

// TestCancelRunningReleasesKey pins the cancel/coalesce interaction: the
// moment a running job is cancelled it leaves the inflight map, so an
// identical submission starts a fresh run instead of coalescing onto the
// dying job and receiving a cancelled outcome no run ever earned.
func TestCancelRunningReleasesKey(t *testing.T) {
	hook, release := blockHook()
	restore := faultinject.Set(faultinject.HookSwitchSimVector, hook)
	defer restore()

	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 4})

	body := `{"circuit":"c17","random_vectors":48,"seed":401}`
	first := submitJob(t, ts, body)
	waitState(t, ts, first.ID, StateRunning)

	if code, _, data := post(t, ts.URL+"/v1/pipeline/"+first.ID+"/cancel", ""); code != http.StatusOK {
		t.Fatalf("cancel running = %d: %s", code, data)
	}
	// submitJob requires 202 — a 200 coalesce onto the dying job fails here.
	second := submitJob(t, ts, body)
	if second.ID == first.ID {
		t.Fatal("new submission coalesced onto a cancelled job")
	}

	release()
	if code, data := waitResult(t, ts, second.ID); code != http.StatusOK {
		t.Fatalf("fresh run after cancel = %d: %s", code, data)
	}
	waitState(t, ts, first.ID, StateCancelled)
}

// TestResubmitAfterTerminalEventIsFresh pins when a finished job lets go
// of its coalescing key: before its terminal event is emitted. A client
// that resubmits the moment it sees the job end must get a new job
// (served from the result store), never a coalesce onto the finished
// one. The JSON logger matters: finish logs after the terminal event,
// which widens any window in which the key is still held. Sixty distinct
// jobs make such a window show on practically every run under -race.
func TestResubmitAfterTerminalEventIsFresh(t *testing.T) {
	logger := slog.New(slog.NewJSONHandler(io.Discard, nil))
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 4, CacheDir: t.TempDir(), Logger: logger})

	const jobs = 60
	for i := 0; i < jobs; i++ {
		body := fmt.Sprintf(`{"circuit":"c17","random_vectors":48,"seed":%d}`, 5000+i)
		first := submitJob(t, ts, body)
		waitTerminalEvent(t, ts, first.ID)
		code, _, data := post(t, ts.URL+"/v1/pipeline", body)
		if code != http.StatusAccepted {
			t.Fatalf("job %d: resubmit right after the terminal event = %d, want 202 (a new job); body: %s", i, code, data)
		}
		second := decode[jobStatus](t, data)
		if second.ID == first.ID {
			t.Fatalf("job %d: resubmission reused finished job %s", i, first.ID)
		}
		if code, data := waitResult(t, ts, second.ID); code != http.StatusOK {
			t.Fatalf("job %d: fresh resubmission result = %d: %s", i, code, data)
		}
	}
}

// waitTerminalEvent long-polls a job's event stream until its terminal
// event arrives — the way a client learns that a job is over.
func waitTerminalEvent(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	since := int64(0)
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, data := get(t, fmt.Sprintf("%s/v1/pipeline/%s/events?poll=1&since=%d&wait_ms=2000", ts.URL, id, since))
		if code != http.StatusOK {
			t.Fatalf("events %s = %d: %s", id, code, data)
		}
		pr := decode[pollEventsResponse](t, data)
		if pr.Terminal {
			return
		}
		if n := len(pr.Events); n > 0 {
			since = pr.Events[n-1].Seq
		}
	}
	t.Fatalf("job %s: no terminal event after 30s", id)
}

// TestBudgetsDoNotCoalesce pins the coalescing key: submissions that
// differ only in execution budgets (deadline_ms, stage_budgets_ms) are
// separate jobs — a coalesced submitter shares the live run's fate, so a
// request must never inherit a different budget's degradation or
// deadline. Identical budgets still coalesce.
func TestBudgetsDoNotCoalesce(t *testing.T) {
	hook, release := blockHook()
	restore := faultinject.Set(faultinject.HookSwitchSimVector, hook)
	defer restore()

	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	first := submitJob(t, ts, `{"circuit":"c17","random_vectors":48,"seed":501}`)
	waitState(t, ts, first.ID, StateRunning)

	deadlined := submitJob(t, ts, `{"circuit":"c17","random_vectors":48,"seed":501,"deadline_ms":60000}`)
	if deadlined.ID == first.ID {
		t.Fatal("deadline-bounded submission coalesced onto the unbounded run")
	}
	budgeted := submitJob(t, ts, `{"circuit":"c17","random_vectors":48,"seed":501,"stage_budgets_ms":{"atpg":60000}}`)
	if budgeted.ID == first.ID || budgeted.ID == deadlined.ID {
		t.Fatal("stage-budgeted submission coalesced across budget boundaries")
	}

	// Identical budgets do coalesce.
	code, _, data := post(t, ts.URL+"/v1/pipeline", `{"circuit":"c17","random_vectors":48,"seed":501,"deadline_ms":60000}`)
	if code != http.StatusOK {
		t.Fatalf("identical-budget resubmit = %d, want 200 coalesce: %s", code, data)
	}
	if sr := decode[submitResponse](t, data); !sr.CoalescedOnto || sr.ID != deadlined.ID {
		t.Fatalf("identical-budget resubmit joined %s (coalesced=%v), want %s", sr.ID, sr.CoalescedOnto, deadlined.ID)
	}

	release()
	for _, id := range []string{first.ID, deadlined.ID, budgeted.ID} {
		if code, data := waitResult(t, ts, id); code != http.StatusOK {
			t.Fatalf("job %s result = %d: %s", id, code, data)
		}
	}
}

// TestGracefulDrain pins the shutdown state machine: draining flips
// readiness off and sheds submissions with 503, jobs that outlive the
// budget are cancelled (not abandoned), and the drain report says so.
func TestGracefulDrain(t *testing.T) {
	restore := faultinject.Set(faultinject.HookSwitchSimVector, faultinject.Stall)
	defer restore()

	s, ts := newTestServer(t, Config{
		Workers:     1,
		QueueDepth:  4,
		DrainBudget: 150 * time.Millisecond,
		DrainGrace:  10 * time.Second,
	})

	st := submitJob(t, ts, `{"circuit":"c17","random_vectors":48,"seed":301}`)
	waitState(t, ts, st.ID, StateRunning)

	done := make(chan DrainReport, 1)
	go func() { done <- s.Drain(context.Background()) }()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}

	// While draining: not ready, not admitting.
	if code, data := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503: %s", code, data)
	}
	code, hdr, data := post(t, ts.URL+"/v1/pipeline", smallC17)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503: %s", code, data)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("draining rejection has no Retry-After hint")
	}
	// Liveness and status stay up throughout the drain.
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200", code)
	}
	if code, _ := get(t, ts.URL+"/v1/pipeline/"+st.ID); code != http.StatusOK {
		t.Fatalf("status while draining = %d, want 200", code)
	}

	var rep DrainReport
	select {
	case rep = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("drain did not complete")
	}
	if rep.Clean() {
		t.Fatal("drain with a stalled job reported clean")
	}
	if rep.Forced {
		t.Fatalf("stalled job did not unwind within the grace period: %+v", rep)
	}
	if len(rep.Cancelled) != 1 || rep.Cancelled[0] != st.ID {
		t.Fatalf("drain cancelled %v, want [%s]", rep.Cancelled, st.ID)
	}
	if got := waitState(t, ts, st.ID, StateCancelled); got.Finished == "" {
		t.Fatal("drain-cancelled job has no finished_at")
	}
	if s.Metrics().Gauge("serve_draining").Value() != 1 {
		t.Fatal("serve_draining gauge not set")
	}
}

// TestGracefulDrainClean: with no live jobs the drain is immediate and
// clean, and the exit-code contract (Clean → 0) holds.
func TestGracefulDrainClean(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	st := submitJob(t, ts, smallC17)
	if code, data := waitResult(t, ts, st.ID); code != http.StatusOK {
		t.Fatalf("result = %d: %s", code, data)
	}

	rep := s.Drain(context.Background())
	if !rep.Clean() {
		t.Fatalf("idle drain not clean: %+v", rep)
	}
	if rep.Waited > 5*time.Second {
		t.Fatalf("idle drain took %v", rep.Waited)
	}
	// Post-drain: alive but not ready, and not admitting.
	if code, _ := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain = %d, want 503", code)
	}
	if code, _, _ := post(t, ts.URL+"/v1/pipeline", smallC17); code != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain = %d, want 503", code)
	}
	// Finished results remain queryable after the drain.
	if code, _ := get(t, ts.URL+"/v1/pipeline/"+st.ID+"/result"); code != http.StatusOK {
		t.Fatalf("result after drain = %d, want 200", code)
	}
}

// TestPanicRecovery pins the middleware backstop: a panicking handler
// becomes a structured 500 JSON error and a counter bump, not a torn
// connection.
func TestPanicRecovery(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.recoverPanics(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom at the route layer")
	})))
	defer ts.Close()

	code, data := get(t, ts.URL+"/anything")
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d, want 500: %s", code, data)
	}
	eb := decode[errorBody](t, data)
	if !strings.Contains(eb.Error.Message, "boom at the route layer") {
		t.Fatalf("panic value lost: %s", data)
	}
	if s.Metrics().Counter("serve_handler_panics").Value() != 1 {
		t.Fatalf("serve_handler_panics = %d, want 1", s.Metrics().Counter("serve_handler_panics").Value())
	}
}

// TestMetricsEndpoint: the serve_* instruments are visible through
// /metrics in the obs report shape.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3, QueueDepth: 9})
	code, data := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d: %s", code, data)
	}
	for _, name := range []string{
		"serve_queue_capacity", "serve_workers", "serve_queue_depth",
		"serve_shed_total", "serve_coalesced_total",
	} {
		if !strings.Contains(string(data), name) {
			t.Fatalf("metrics report missing %s: %s", name, data)
		}
	}
}

// TestStatusUnknownJob: unknown IDs are a clean 404, not a panic or 500.
func TestStatusUnknownJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	if code, _ := get(t, ts.URL+"/v1/pipeline/job-999"); code != http.StatusNotFound {
		t.Fatalf("unknown job status = %d, want 404", code)
	}
	if code, _ := get(t, ts.URL+"/v1/pipeline/job-999/result"); code != http.StatusNotFound {
		t.Fatalf("unknown job result = %d, want 404", code)
	}
}
