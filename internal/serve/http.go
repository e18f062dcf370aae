package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"defectsim/internal/cluster"
	"defectsim/internal/experiments"
	"defectsim/internal/faultinject"
	"defectsim/internal/obs"
	"defectsim/internal/store"
)

// apiError is the structured error payload of every non-2xx JSON
// response. Pipeline failures keep their stage name and the
// progress-counter snapshot from *experiments.PipelineError, so a client
// sees how far a failed run got instead of an opaque 500.
type apiError struct {
	Message string `json:"message"`
	// Stage names the failed pipeline stage, when the failure was a
	// *experiments.PipelineError.
	Stage string `json:"stage,omitempty"`
	// Progress is the metrics-counter snapshot at failure time.
	Progress []obs.CounterSnap `json:"progress,omitempty"`
}

type errorBody struct {
	Error apiError `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, e apiError) {
	writeJSON(w, status, errorBody{Error: e})
}

// pipelineAPIError converts any job failure into the structured form,
// unwrapping *experiments.PipelineError when present.
func pipelineAPIError(err error) apiError {
	var pe *experiments.PipelineError
	if errors.As(err, &pe) {
		return apiError{Message: err.Error(), Stage: pe.Stage, Progress: pe.Progress}
	}
	return apiError{Message: err.Error()}
}

// Handler returns the server's HTTP handler: the full route set wrapped
// in per-request panic recovery (a panicking handler yields a structured
// 500 JSON error and a serve_handler_panics count, never a torn
// connection or a dead worker), itself wrapped in the correlation
// middleware (request IDs, access log, per-route metrics). Each handler
// is registered through s.route so the matched pattern — not the raw,
// unbounded URL path — becomes the route label.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/dl", s.route("/v1/dl", s.handleDL))
	mux.HandleFunc("POST /v1/fit", s.route("/v1/fit", s.handleFit))
	mux.HandleFunc("POST /v1/coverage", s.route("/v1/coverage", s.handleCoverage))
	mux.HandleFunc("POST /v1/pipeline", s.route("/v1/pipeline", s.handleSubmit))
	mux.HandleFunc("POST /v1/pipeline:batch", s.route("/v1/pipeline:batch", s.handleBatch))
	mux.HandleFunc("POST /v1/ndetect", s.route("/v1/ndetect", s.handleNDetect))
	mux.HandleFunc("GET /v1/store/{key}", s.route("/v1/store/{key}", s.handleStoreGet))
	mux.HandleFunc("PUT /v1/store/{key}", s.route("/v1/store/{key}", s.handleStorePut))
	mux.HandleFunc("GET /v1/pipeline/{id}", s.route("/v1/pipeline/{id}", s.handleStatus))
	mux.HandleFunc("GET /v1/pipeline/{id}/result", s.route("/v1/pipeline/{id}/result", s.handleResult))
	mux.HandleFunc("GET /v1/pipeline/{id}/events", s.route("/v1/pipeline/{id}/events", s.handleEvents))
	mux.HandleFunc("POST /v1/pipeline/{id}/cancel", s.route("/v1/pipeline/{id}/cancel", s.handleCancel))
	mux.HandleFunc("POST /v1/cluster/reload", s.route("/v1/cluster/reload", s.handleClusterReload))
	mux.HandleFunc("GET /healthz", s.route("/healthz", s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.route("/readyz", s.handleReadyz))
	mux.HandleFunc("GET /metrics", s.route("/metrics", s.handleMetrics))
	return s.instrument(s.recoverPanics(mux))
}

func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.mPanics.Inc()
				writeError(w, http.StatusInternalServerError, apiError{
					Message: fmt.Sprintf("internal error: %v", rec),
				})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// readBody reads a bounded request body (1 MiB — far above any valid
// request) so a hostile client cannot balloon the handler.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, fmt.Errorf("request body exceeds %d bytes", mbe.Limit)
		}
		return nil, err
	}
	return data, nil
}

// jobStatus is the JSON shape of a job's state.
type jobStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Circuit   string `json:"circuit"`
	Submitted string `json:"submitted_at,omitempty"`
	Started   string `json:"started_at,omitempty"`
	Finished  string `json:"finished_at,omitempty"`
	// Coalesced counts the extra identical submissions sharing this run.
	Coalesced int64 `json:"coalesced,omitempty"`
	// Degraded flips when the finished run hit a graceful-degradation path
	// (stage budget exhausted with partial results, cache fallback).
	Degraded bool      `json:"degraded,omitempty"`
	Error    *apiError `json:"error,omitempty"`
}

func (s *Server) status(j *job) jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := jobStatus{
		ID:        j.id,
		State:     j.state,
		Circuit:   j.circuit,
		Coalesced: j.coalesced,
	}
	fmtT := func(t time.Time) string {
		if t.IsZero() {
			return ""
		}
		return t.UTC().Format(time.RFC3339Nano)
	}
	st.Submitted = fmtT(j.submitted)
	st.Started = fmtT(j.started)
	st.Finished = fmtT(j.finished)
	if j.pipe != nil && j.pipe.Degraded() {
		st.Degraded = true
	}
	if j.err != nil {
		e := pipelineAPIError(j.err)
		st.Error = &e
	}
	return st
}

type submitResponse struct {
	jobStatus
	// CoalescedOnto is true when this submission joined an identical job
	// already in flight instead of starting a new run.
	CoalescedOnto bool `json:"coalesced_onto_existing,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	data, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, apiError{Message: err.Error()})
		return
	}
	_, cfg, nl, err := DecodeRequest(data, s.cfg)
	if err != nil {
		writeError(w, http.StatusBadRequest, apiError{Message: err.Error()})
		return
	}
	j, coalesced, err := s.submit(submission{
		circuit:   nl.Name,
		nl:        nl,
		cfg:       cfg,
		requestID: RequestIDFrom(r.Context()),
		body:      data,
		noForward: r.Header.Get(cluster.ForwardedHeader) != "",
	})
	s.respondSubmit(w, j, coalesced, err)
}

// respondSubmit answers a job submission: shed → 429 and draining → 503,
// both with a Retry-After hint, any other error → 500; otherwise 202 for
// a new job, or 200 when it coalesced onto one already in flight.
func (s *Server) respondSubmit(w http.ResponseWriter, j *job, coalesced bool, err error) {
	switch {
	case errors.Is(err, ErrShed):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, apiError{Message: err.Error()})
		return
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeError(w, http.StatusServiceUnavailable, apiError{Message: err.Error()})
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, apiError{Message: err.Error()})
		return
	}
	resp := submitResponse{jobStatus: s.status(j), CoalescedOnto: coalesced}
	status := http.StatusAccepted
	if coalesced {
		status = http.StatusOK
	}
	writeJSON(w, status, resp)
}

// handleNDetect submits an n-detect study: a pipeline run followed by the
// multiplicity sweep (experiments.RunNDetectStudy), sharing the whole
// async job machinery — admission control, coalescing (keyed by config
// AND n), budgets, status/result/events/cancel under /v1/pipeline/{id}.
// Studies always execute locally: the request body is not retained for
// forwarding, because only the underlying pipeline result (not the sweep)
// is store-shareable across the ring.
func (s *Server) handleNDetect(w http.ResponseWriter, r *http.Request) {
	data, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, apiError{Message: err.Error()})
		return
	}
	_, cfg, nl, n, err := DecodeNDetectRequest(data, s.cfg)
	if err != nil {
		writeError(w, http.StatusBadRequest, apiError{Message: err.Error()})
		return
	}
	j, coalesced, err := s.submit(submission{
		circuit:   nl.Name,
		nl:        nl,
		cfg:       cfg,
		requestID: RequestIDFrom(r.Context()),
		ndetect:   n,
	})
	s.respondSubmit(w, j, coalesced, err)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, apiError{Message: "unknown job " + r.PathValue("id")})
		return
	}
	writeJSON(w, http.StatusOK, s.status(j))
}

// jobResult is the JSON shape of a finished run: the headline projection
// figures plus the per-job obs run report.
type jobResult struct {
	ID       string `json:"id"`
	Circuit  string `json:"circuit"`
	CacheHit bool   `json:"cache_hit,omitempty"`
	Degraded bool   `json:"degraded,omitempty"`
	// Degradations lists the graceful-degradation events of the run
	// (partial ATPG under a stage budget, undecided switch-sim faults,
	// cache fallbacks) — present exactly when Degraded.
	Degradations []string `json:"degradations,omitempty"`
	Yield        float64  `json:"yield"`
	Vectors      int      `json:"vectors"`
	// StuckAtCoverage is T(final) over testable faults; ThetaFinal and
	// GammaFinal are the weighted/unweighted realistic coverages.
	StuckAtCoverage float64 `json:"stuck_at_coverage"`
	ThetaFinal      float64 `json:"theta_final"`
	GammaFinal      float64 `json:"gamma_final"`
	// FittedR / FittedThetaMax are the proposed model's parameters fitted
	// to this run's fallout points (paper eq. 9–11); ResidualPPM is the
	// corresponding residual defect level at 100% stuck-at coverage.
	FittedR        float64 `json:"fitted_r,omitempty"`
	FittedThetaMax float64 `json:"fitted_theta_max,omitempty"`
	ResidualPPM    float64 `json:"residual_ppm,omitempty"`
	// NDetect holds the n-detect sweep levels for jobs submitted via
	// POST /v1/ndetect; absent on plain pipeline jobs.
	NDetect []nDetectLevel `json:"ndetect,omitempty"`
	// Report is this job's obs run report (stage tree + metrics).
	Report *obs.Report `json:"report,omitempty"`
}

// nDetectLevel is one row of the DL(n) projection table.
type nDetectLevel struct {
	N       int `json:"n"`
	Vectors int `json:"vectors"`
	Added   int `json:"added"`
	// FullCoverage is the fraction of testable stuck-at faults detected n
	// times; Saturated counts faults the generator could not push to n.
	FullCoverage float64 `json:"full_coverage"`
	Saturated    int     `json:"saturated,omitempty"`
	// Theta is the realistic (switch-level, voltage) coverage Θ(n); DLPPM
	// the projected defect level at that coverage, in ppm.
	Theta float64 `json:"theta"`
	DLPPM float64 `json:"dl_ppm"`
}

func buildResult(j *job) jobResult {
	p := j.pipe
	res := jobResult{
		ID:       j.id,
		Circuit:  j.circuit,
		CacheHit: j.cacheHit,
		Degraded: p.Degraded(),
		Yield:    p.Yield,
		Vectors:  len(p.TestSet.Patterns),
		Report:   p.Report,
	}
	for _, d := range p.Degradations {
		res.Degradations = append(res.Degradations, d.String())
	}
	res.StuckAtCoverage = p.TestSet.Coverage(true)
	res.ThetaFinal = p.ThetaCurve(false).Final()
	res.GammaFinal = p.GammaCurve().Final()
	if p.Yield > 0 && p.Yield < 1 {
		f5 := experiments.Figure5(p)
		res.FittedR = f5.Fitted.R
		res.FittedThetaMax = f5.Fitted.ThetaMax
		res.ResidualPPM = 1e6 * f5.Fitted.ResidualDL(p.Yield)
	}
	if st := j.study; st != nil {
		for i, n := range st.Ns {
			res.NDetect = append(res.NDetect, nDetectLevel{
				N:            n,
				Vectors:      st.Vectors[i],
				Added:        st.Added[i],
				FullCoverage: st.FullCoverage[i],
				Saturated:    st.Saturated[i],
				Theta:        st.Theta[i],
				DLPPM:        1e6 * st.DL[i],
			})
		}
	}
	return res
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, apiError{Message: "unknown job " + r.PathValue("id")})
		return
	}
	state, err, _ := j.snapshot()
	switch state {
	case StateQueued, StateRunning:
		// Not ready yet: the poll contract is 202 + current status.
		writeJSON(w, http.StatusAccepted, s.status(j))
	case StateDone:
		writeJSON(w, http.StatusOK, buildResult(j))
	case StateCancelled:
		e := pipelineAPIError(err)
		if e.Message == "" {
			e.Message = "job cancelled"
		}
		writeError(w, http.StatusServiceUnavailable, e)
	default: // failed — a structured degradation, never an empty 500
		writeError(w, http.StatusServiceUnavailable, pipelineAPIError(err))
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.Cancel(id)
	if !ok {
		writeError(w, http.StatusNotFound, apiError{Message: "unknown job " + id})
		return
	}
	writeJSON(w, http.StatusOK, s.status(j))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string    `json:"status"`
		Build  BuildInfo `json:"build"`
	}{Status: "ok", Build: s.build})
}

// readyzRing is the cluster block of the /readyz body.
type readyzRing struct {
	Self    string   `json:"self"`
	Nodes   int      `json:"nodes"`
	RF      int      `json:"rf"`
	Members []string `json:"members"`
}

type readyzBody struct {
	Status string `json:"status"`
	// Ring reports the current membership view (absent on single-node
	// deployments without a cluster).
	Ring *readyzRing `json:"ring,omitempty"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	body := readyzBody{Status: "ready"}
	if c := s.cfg.Cluster; c != nil {
		ring := c.Ring()
		body.Ring = &readyzRing{Self: c.Self(), Nodes: ring.Len(), RF: c.RF(), Members: ring.Nodes()}
		if c.Reloading() {
			// Mid-swap: the view being replaced may route to nodes about to
			// leave — load balancers should stop sending work until the new
			// ring is in place.
			body.Status = "reloading"
			writeJSON(w, http.StatusServiceUnavailable, body)
			return
		}
	}
	if s.Draining() {
		body.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// handleClusterReload applies a membership reload from the peers file —
// the HTTP twin of dlprojd's SIGHUP handler. Loopback-only: membership
// is operator-plane, not data-plane, so a remote caller (peer or client)
// must not be able to trigger re-reads of this node's config.
func (s *Server) handleClusterReload(w http.ResponseWriter, r *http.Request) {
	if !requestFromLoopback(r) {
		writeError(w, http.StatusForbidden, apiError{Message: "cluster reload is loopback-only"})
		return
	}
	if s.cfg.Membership == nil {
		writeError(w, http.StatusNotFound, apiError{Message: "no membership source configured (start with -peers-file)"})
		return
	}
	ch, err := s.ReloadMembership()
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, apiError{Message: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, ch)
}

// requestFromLoopback reports whether the request's peer address is a
// loopback IP.
func requestFromLoopback(r *http.Request) bool {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return false
	}
	ip := net.ParseIP(host)
	return ip != nil && ip.IsLoopback()
}

// maxStoreBlob bounds an accepted /v1/store PUT body — far above any
// real cache envelope, low enough to stop a hostile peer from
// ballooning the handler.
const maxStoreBlob = 256 << 20

// handleStoreGet serves a result envelope (GET) or its existence (HEAD)
// out of this node's store — the peer-facing side of the remote store
// backend. The store.serve.get faultinject hook sits between the lookup
// and the write so tests can inject partial responses (full
// Content-Length, truncated body) and exercise the client's short-read
// recovery.
func (s *Server) handleStoreGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !store.ValidKey(key) {
		writeError(w, http.StatusBadRequest, apiError{Message: "invalid store key"})
		return
	}
	if s.store == nil {
		writeError(w, http.StatusNotFound, apiError{Message: "no result store configured"})
		return
	}
	if r.Method == http.MethodHead {
		ok, err := s.store.Stat(r.Context(), key)
		switch {
		case err != nil:
			writeError(w, http.StatusInternalServerError, apiError{Message: err.Error()})
		case ok:
			w.WriteHeader(http.StatusOK)
		default:
			w.WriteHeader(http.StatusNotFound)
		}
		return
	}
	data, err := s.store.Get(r.Context(), key)
	switch {
	case errors.Is(err, store.ErrNotFound):
		writeError(w, http.StatusNotFound, apiError{Message: "no entry for key " + key})
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, apiError{Message: err.Error()})
		return
	}
	if err := faultinject.Fire(faultinject.WithTarget(r.Context(), key), faultinject.HookStoreServeGet); err != nil {
		if errors.Is(err, faultinject.ErrPartialResponse) {
			// Advertise the full length, send half, drop the connection's
			// worth of trust: the client must detect the short read.
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Length", strconv.Itoa(len(data)))
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(data[:len(data)/2])
			return
		}
		writeError(w, http.StatusInternalServerError, apiError{Message: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
}

// handleStorePut accepts a result envelope from a peer. The envelope is
// verified (checksum) before it can touch the store, and an existing
// verified copy short-circuits to success — content-addressed keys make
// every Put idempotent, so duplicate replications are free. An existing
// copy that fails verification (torn by a crash, bit rot) is overwritten:
// fan-out and read-repair PUTs are how a replica heals.
func (s *Server) handleStorePut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !store.ValidKey(key) {
		writeError(w, http.StatusBadRequest, apiError{Message: "invalid store key"})
		return
	}
	if s.store == nil {
		writeError(w, http.StatusServiceUnavailable, apiError{Message: "no result store configured"})
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxStoreBlob))
	if err != nil {
		writeError(w, http.StatusBadRequest, apiError{Message: err.Error()})
		return
	}
	if err := store.VerifyEnvelope(data); err != nil {
		writeError(w, http.StatusBadRequest, apiError{Message: err.Error()})
		return
	}
	if old, err := s.store.Get(r.Context(), key); err == nil && store.VerifyEnvelope(old) == nil {
		w.WriteHeader(http.StatusOK) // already present: idempotent no-op
		return
	}
	if err := s.store.Put(r.Context(), key, data); err != nil {
		writeError(w, http.StatusInternalServerError, apiError{Message: err.Error()})
		return
	}
	w.WriteHeader(http.StatusCreated)
}

// handleMetrics serves the server-level registry — every serve_*
// instrument (queue depth, in-flight, shed, coalesced, request
// counters, …) plus the fleet-level pipeline stage histogram — in the
// Prometheus text exposition format. ?format=json keeps the previous
// behavior: the full obs report (span tree included) as JSON.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mUptime.Set(time.Since(s.started).Seconds())
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, s.tr.Report("dlprojd"))
		return
	}
	w.Header().Set("Content-Type", obs.PromContentType)
	_ = s.reg.WritePrometheus(w)
}
