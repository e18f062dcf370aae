package store

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"defectsim/internal/faultinject"
)

// maxBlobBytes bounds a fetched envelope (and any error body) — far above
// any real cache entry, low enough that a misbehaving peer cannot balloon
// the client.
const maxBlobBytes = 256 << 20

// Transport is the hardened HTTP client shared by the remote store
// backend and the cluster peer client:
//
//   - a per-attempt timeout, so one hung connection never consumes the
//     whole operation budget;
//   - capped exponential backoff with full jitter between attempts, so a
//     recovering peer is not met by a synchronized retry storm;
//   - Retry-After honoring on 429/503 (capped, so a hostile or confused
//     server cannot park the client);
//   - a circuit breaker fed per attempt: connect errors, timeouts, short
//     reads and 5xx responses count as failures, anything the server
//     answered coherently (2xx/4xx) counts as success.
//
// Do returns the final HTTP response (status/header/body) with a nil
// error whenever any attempt completed an exchange the client will not
// retry — including 4xx and a final-exhausted 5xx; the error return is
// reserved for "no usable response": breaker open, context cancelled, or
// every attempt failing in transport.
type Transport struct {
	// Client is the underlying http.Client. Default: http.DefaultClient.
	Client *http.Client
	// Label names the destination in metrics and errors.
	Label string
	// MaxAttempts bounds tries per operation. Default 3.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff. Default 50ms.
	BaseDelay time.Duration
	// MaxDelay caps the computed backoff. Default 2s.
	MaxDelay time.Duration
	// PerAttemptTimeout bounds each individual attempt. Default 10s.
	PerAttemptTimeout time.Duration
	// RetryAfterCap caps an honored Retry-After hint. Default 10s.
	RetryAfterCap time.Duration
	// Breaker, when non-nil, gates and records every operation.
	Breaker *Breaker
	// Metrics, when non-nil, receives store_retries_total{Label}.
	Metrics *Metrics

	// jitter maps a computed delay onto the slept delay; the default is
	// full jitter (uniform in [0, d]). Tests override for determinism.
	jitter func(d time.Duration) time.Duration

	// initOnce applies the field defaults exactly once — Do is called
	// concurrently, and even writing identical defaults twice is a race.
	initOnce sync.Once
}

func (t *Transport) withDefaults() {
	if t.Client == nil {
		t.Client = http.DefaultClient
	}
	if t.MaxAttempts <= 0 {
		t.MaxAttempts = 3
	}
	if t.BaseDelay <= 0 {
		t.BaseDelay = 50 * time.Millisecond
	}
	if t.MaxDelay <= 0 {
		t.MaxDelay = 2 * time.Second
	}
	if t.PerAttemptTimeout <= 0 {
		t.PerAttemptTimeout = 10 * time.Second
	}
	if t.RetryAfterCap <= 0 {
		t.RetryAfterCap = 10 * time.Second
	}
	if t.jitter == nil {
		t.jitter = fullJitter
	}
}

// fullJitter draws uniformly from [0, d] — "full jitter" in the AWS
// architecture-blog sense: maximal desynchronization of concurrent
// retriers at the cost of sometimes retrying immediately.
func fullJitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return time.Duration(rand.Int64N(int64(d) + 1))
}

// SetJitter overrides the backoff jitter — test hook for deterministic
// delays.
func (t *Transport) SetJitter(fn func(time.Duration) time.Duration) { t.jitter = fn }

// retryable reports whether an HTTP status is worth another attempt.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status >= 500
}

// backoff computes the sleep before attempt i+1 (0-based i), honoring a
// Retry-After hint when the server sent one.
func (t *Transport) backoff(i int, retryAfter time.Duration) time.Duration {
	d := t.BaseDelay << uint(i)
	if d > t.MaxDelay || d <= 0 {
		d = t.MaxDelay
	}
	d = t.jitter(d)
	if retryAfter > 0 {
		if retryAfter > t.RetryAfterCap {
			retryAfter = t.RetryAfterCap
		}
		if retryAfter > d {
			d = retryAfter
		}
	}
	return d
}

// parseRetryAfter reads a Retry-After header in delta-seconds form (the
// HTTP-date form is ignored — the serving layer never emits it).
func parseRetryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// Do runs one logical operation with retries. build is called once per
// attempt and must construct a fresh request from the given context
// (bodies cannot be replayed across attempts otherwise).
func (t *Transport) Do(ctx context.Context, build func(ctx context.Context) (*http.Request, error)) (status int, header http.Header, body []byte, err error) {
	t.initOnce.Do(t.withDefaults)
	if t.Breaker != nil && !t.Breaker.Allow() {
		return 0, nil, nil, fmt.Errorf("%w: %s", ErrBreakerOpen, t.Label)
	}
	var lastErr error
	for i := 0; i < t.MaxAttempts; i++ {
		if i > 0 {
			t.Metrics.retry(t.Label)
		}
		status, header, body, lastErr = t.attempt(ctx, build)
		if lastErr == nil && !retryable(status) {
			// A coherent answer — even a 4xx — means the peer is alive.
			if t.Breaker != nil {
				t.Breaker.Success()
			}
			return status, header, body, nil
		}
		// Transport failure or retryable status: count it against the
		// breaker (429 excepted — shedding is load, not failure).
		if t.Breaker != nil && (lastErr != nil || status >= 500) {
			t.Breaker.Failure()
		}
		if ctx.Err() != nil {
			return 0, nil, nil, ctx.Err()
		}
		if i == t.MaxAttempts-1 {
			break
		}
		var retryAfter time.Duration
		if lastErr == nil {
			retryAfter = parseRetryAfter(header)
		}
		select {
		case <-time.After(t.backoff(i, retryAfter)):
		case <-ctx.Done():
			return 0, nil, nil, ctx.Err()
		}
	}
	if lastErr != nil {
		return 0, nil, nil, fmt.Errorf("store: %s: %d attempts failed: %w", t.Label, t.MaxAttempts, lastErr)
	}
	// Exhausted retries on a retryable status: surface the final response.
	return status, header, body, nil
}

// attempt runs one HTTP exchange under the per-attempt timeout, reading
// the whole body (a short read against Content-Length is a transport
// error — the partial-response case).
func (t *Transport) attempt(ctx context.Context, build func(ctx context.Context) (*http.Request, error)) (int, http.Header, []byte, error) {
	actx, cancel := context.WithTimeout(ctx, t.PerAttemptTimeout)
	defer cancel()
	req, err := build(actx)
	if err != nil {
		return 0, nil, nil, err
	}
	if err := faultinject.Fire(faultinject.WithTarget(actx, req.URL.Host+req.URL.Path), faultinject.HookNetRequest); err != nil {
		return 0, nil, nil, err
	}
	res, err := t.Client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer res.Body.Close()
	body, err := io.ReadAll(io.LimitReader(res.Body, maxBlobBytes))
	if err != nil {
		return 0, nil, nil, fmt.Errorf("reading response: %w", err)
	}
	if res.ContentLength > 0 && int64(len(body)) < res.ContentLength {
		return 0, nil, nil, fmt.Errorf("short response body: %d of %d bytes", len(body), res.ContentLength)
	}
	return res.StatusCode, res.Header, body, nil
}

// HTTP is the remote store backend: a dlprojd node's /v1/store API seen
// through the hardened Transport. Get verifies the fetched envelope's
// checksum before returning it, so a corrupt peer blob surfaces as an
// error here rather than a parse failure downstream. Put is idempotent by
// construction (content-addressed keys) and the server side additionally
// skips the write when the key already holds a verified copy, so a
// retried Put never double-writes.
type HTTP struct {
	base string
	t    *Transport
	m    *Metrics
}

// HTTPOptions parameterizes NewHTTP. The zero value is serviceable.
type HTTPOptions struct {
	// Client, MaxAttempts, BaseDelay, MaxDelay, PerAttemptTimeout and
	// RetryAfterCap configure the Transport (see its field docs).
	Client            *http.Client
	MaxAttempts       int
	BaseDelay         time.Duration
	MaxDelay          time.Duration
	PerAttemptTimeout time.Duration
	RetryAfterCap     time.Duration
	// Breaker shares an existing breaker (the cluster wires one breaker
	// per peer across its store and job clients). Nil creates a dedicated
	// one from BreakerThreshold/BreakerCooldown.
	Breaker          *Breaker
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Metrics receives store_ops_total / store_retries_total /
	// store_breaker_state observations. Nil disables.
	Metrics *Metrics
}

// NewHTTP returns a remote store backend rooted at baseURL (scheme +
// host, e.g. http://node-b:8447); keys live at <base>/v1/store/<key>.
func NewHTTP(baseURL string, opts HTTPOptions) (*HTTP, error) {
	base := strings.TrimRight(baseURL, "/")
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		return nil, fmt.Errorf("store: http: base URL %q must be absolute", baseURL)
	}
	h := &HTTP{base: base, m: opts.Metrics}
	br := opts.Breaker
	if br == nil {
		br = NewBreaker("http", opts.BreakerThreshold, opts.BreakerCooldown, opts.Metrics.breakerGauge("http"))
	}
	h.t = &Transport{
		Client:            opts.Client,
		Label:             "http",
		MaxAttempts:       opts.MaxAttempts,
		BaseDelay:         opts.BaseDelay,
		MaxDelay:          opts.MaxDelay,
		PerAttemptTimeout: opts.PerAttemptTimeout,
		RetryAfterCap:     opts.RetryAfterCap,
		Breaker:           br,
		Metrics:           opts.Metrics,
	}
	return h, nil
}

// Name implements Store.
func (h *HTTP) Name() string { return "http" }

// Base returns the normalized base URL (scheme + host, no trailing
// slash) the backend talks to.
func (h *HTTP) Base() string { return h.base }

// Breaker exposes the backend's circuit breaker (for health views and
// tests).
func (h *HTTP) Breaker() *Breaker { return h.t.Breaker }

// Transport exposes the underlying retrying client — the cluster peer
// client builds its job-API calls on the same instance so breaker state
// is shared across the store and routing paths.
func (h *HTTP) Transport() *Transport { return h.t }

func (h *HTTP) url(key string) string { return h.base + "/v1/store/" + key }

// Get implements Store.
func (h *HTTP) Get(ctx context.Context, key string) ([]byte, error) {
	if !ValidKey(key) {
		return nil, errBadKey(key)
	}
	if err := faultinject.Fire(faultinject.WithTarget(ctx, h.Name()), faultinject.HookStoreGet); err != nil {
		h.m.op(h.Name(), "get", "error")
		return nil, err
	}
	status, _, body, err := h.t.Do(ctx, func(ctx context.Context) (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, h.url(key), nil)
	})
	switch {
	case err != nil:
		h.m.op(h.Name(), "get", "error")
		return nil, err
	case status == http.StatusNotFound:
		h.m.op(h.Name(), "get", "miss")
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	case status != http.StatusOK:
		h.m.op(h.Name(), "get", "error")
		return nil, fmt.Errorf("store: http get %s: status %d", key, status)
	}
	if err := VerifyEnvelope(body); err != nil {
		h.m.op(h.Name(), "get", "error")
		return nil, fmt.Errorf("store: http get %s: %w", key, err)
	}
	h.m.op(h.Name(), "get", "hit")
	return body, nil
}

// Put implements Store.
func (h *HTTP) Put(ctx context.Context, key string, data []byte) error {
	if !ValidKey(key) {
		return errBadKey(key)
	}
	if err := faultinject.Fire(faultinject.WithTarget(ctx, h.Name()), faultinject.HookStorePut); err != nil {
		h.m.op(h.Name(), "put", "error")
		return err
	}
	status, _, body, err := h.t.Do(ctx, func(ctx context.Context) (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPut, h.url(key), bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	})
	switch {
	case err != nil:
		h.m.op(h.Name(), "put", "error")
		return err
	case status == http.StatusOK, status == http.StatusCreated, status == http.StatusNoContent:
		h.m.op(h.Name(), "put", "ok")
		return nil
	case status == http.StatusTooManyRequests:
		// The peer shed the write under load — load, not failure: the
		// transport already retried with the Retry-After delay and kept
		// 429 out of breaker accounting.
		h.m.op(h.Name(), "put", "throttled")
		return fmt.Errorf("store: http put %s: peer shed the write (429)", key)
	}
	h.m.op(h.Name(), "put", "error")
	return fmt.Errorf("store: http put %s: status %d: %s", key, status, truncateBody(body))
}

// Stat implements Store.
func (h *HTTP) Stat(ctx context.Context, key string) (bool, error) {
	if !ValidKey(key) {
		return false, errBadKey(key)
	}
	if err := faultinject.Fire(faultinject.WithTarget(ctx, h.Name()), faultinject.HookStoreStat); err != nil {
		h.m.op(h.Name(), "stat", "error")
		return false, err
	}
	status, _, _, err := h.t.Do(ctx, func(ctx context.Context) (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodHead, h.url(key), nil)
	})
	switch {
	case err != nil:
		h.m.op(h.Name(), "stat", "error")
		return false, err
	case status == http.StatusOK:
		h.m.op(h.Name(), "stat", "hit")
		return true, nil
	case status == http.StatusNotFound:
		h.m.op(h.Name(), "stat", "miss")
		return false, nil
	}
	h.m.op(h.Name(), "stat", "error")
	return false, fmt.Errorf("store: http stat %s: status %d", key, status)
}

func truncateBody(b []byte) string {
	const max = 256
	s := strings.TrimSpace(string(b))
	if len(s) > max {
		s = s[:max] + "…"
	}
	return s
}
