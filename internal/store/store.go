// Package store provides content-addressed result storage for the
// defect-level projection pipeline: checksummed cache envelopes keyed by
// experiments.CacheKey, behind a small Store interface with three
// backends —
//
//   - FS: the local filesystem cache (atomic, fsynced writes),
//   - HTTP: a remote dlprojd node's /v1/store API, hardened with
//     per-attempt timeouts, capped exponential backoff with full jitter,
//     Retry-After honoring and a circuit breaker,
//   - Replicated: the local store composed with remote owners from a
//     ReplicaSet — a cluster ring, or OneRemote for a single shared
//     remote — with local-first reads, read repair and best-effort
//     fan-out. A failed copy is dropped, not queued: the owner that
//     missed it converges through read-repair on its first read.
//
// The package owns the envelope format: Seal wraps a payload as
// {version, checksum, payload} and Open verifies and unwraps it, so the
// pipeline encodes only its payload. Keys are content addresses: a key
// is a digest of everything that determines the payload, so two writes
// under one key carry identical bytes and Put is naturally idempotent —
// a retried or duplicated Put can never corrupt an entry, only re-commit
// it. Every backend preserves the envelope byte-for-byte; VerifyEnvelope
// checks the embedded checksum so corrupt or truncated blobs are
// rejected at the store boundary instead of surfacing as parse errors
// downstream.
package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"defectsim/internal/obs"
)

// ErrNotFound reports a clean miss: the key has no entry. Every backend
// returns it (wrapped or bare) from Get on a missing key, distinguishing
// "not there" from "backend broken".
var ErrNotFound = errors.New("store: key not found")

// Store is a content-addressed blob store keyed by experiments.CacheKey.
// Implementations must treat entries as immutable: a key fully determines
// its bytes, so Put may skip the write when the key already exists.
type Store interface {
	// Get returns the envelope bytes under key, or ErrNotFound.
	Get(ctx context.Context, key string) ([]byte, error)
	// Put stores the envelope bytes under key. Idempotent: re-putting an
	// existing key succeeds without observable effect.
	Put(ctx context.Context, key string, data []byte) error
	// Stat reports whether key has an entry, without fetching it.
	Stat(ctx context.Context, key string) (bool, error)
	// Name labels the backend in metrics and logs ("fs", "http", "replicated").
	Name() string
}

// ValidKey reports whether key has the experiments.CacheKey shape: 32
// lowercase hex characters. Backends that map keys onto shared namespaces
// (file names, URL paths) reject anything else, so a hostile key can
// never traverse a directory or smuggle a path.
func ValidKey(key string) bool {
	if len(key) != 32 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// errBadKey marks a malformed key (caller bug or hostile input) — never
// retried, never breaker-counted.
func errBadKey(key string) error {
	return fmt.Errorf("store: invalid key %q (want 32 lowercase hex chars)", key)
}

// envelope is the wire shape of every stored result:
// {version, checksum, payload} with checksum = sha256(payload) in hex.
// The version belongs to the payload's producer (experiments' cache
// format); the store only verifies integrity.
type envelope struct {
	Version  int             `json:"version"`
	Checksum string          `json:"checksum"`
	Payload  json.RawMessage `json:"payload"`
}

// Seal wraps a JSON payload in the checksummed envelope. The output is
// the exact byte stream every backend persists and Open accepts.
func Seal(version int, payload []byte) ([]byte, error) {
	sum := sha256.Sum256(payload)
	return json.Marshal(&envelope{
		Version:  version,
		Checksum: hex.EncodeToString(sum[:]),
		Payload:  payload,
	})
}

// Open parses a cache envelope and checks that its payload matches the
// embedded sha256 checksum, returning the version and payload. A nil
// error means the blob is intact end to end; truncation, bit rot or a
// partial HTTP read all fail here. Checking the version is the caller's
// job.
func Open(data []byte) (version int, payload []byte, err error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return 0, nil, fmt.Errorf("store: envelope does not parse: %w", err)
	}
	if env.Checksum == "" || len(env.Payload) == 0 {
		return 0, nil, errors.New("store: envelope missing checksum or payload")
	}
	sum := sha256.Sum256(env.Payload)
	if hex.EncodeToString(sum[:]) != env.Checksum {
		return 0, nil, errors.New("store: envelope checksum mismatch (truncated or corrupted)")
	}
	return env.Version, env.Payload, nil
}

// VerifyEnvelope reports whether data is an intact envelope (see Open).
func VerifyEnvelope(data []byte) error {
	_, _, err := Open(data)
	return err
}

// Metrics is the store-layer instrument set, shared by every backend in
// one registry. Nil-safe throughout: a nil *Metrics (or one built from a
// nil registry) makes every observation a no-op.
type Metrics struct {
	// Ops counts operations: store_ops_total{backend,op,outcome} with op
	// get/put/stat and outcome hit/miss/ok/error, plus throttled for an
	// http put the peer shed with 429.
	Ops *obs.CounterVec
	// Retries counts retried HTTP attempts: store_retries_total{backend}.
	Retries *obs.CounterVec
	// BreakerState exposes each breaker: store_breaker_state{backend} with
	// 0 closed, 1 open, 2 half-open.
	BreakerState *obs.GaugeVec
	// Replicate counts replica fan-out writes:
	// store_replicate_total{peer,outcome} with outcome ok/dropped/no_client.
	Replicate *obs.CounterVec
	// ReadRepair counts read-repair backfills:
	// store_read_repair_total{target,outcome} with target a peer name or
	// "self" and outcome ok/error/corrupt_local.
	ReadRepair *obs.CounterVec
}

// NewMetrics registers (or resolves) the store instrument families on
// reg. Nil-safe: a nil registry yields no-op instruments.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Ops:          reg.CounterVec("store_ops_total", "backend", "op", "outcome"),
		Retries:      reg.CounterVec("store_retries_total", "backend"),
		BreakerState: reg.GaugeVec("store_breaker_state", "backend"),
		Replicate:    reg.CounterVec("store_replicate_total", "peer", "outcome"),
		ReadRepair:   reg.CounterVec("store_read_repair_total", "target", "outcome"),
	}
}

func (m *Metrics) op(backend, op, outcome string) {
	if m == nil {
		return
	}
	m.Ops.With(backend, op, outcome).Inc()
}

func (m *Metrics) retry(backend string) {
	if m == nil {
		return
	}
	m.Retries.With(backend).Inc()
}

func (m *Metrics) breakerGauge(backend string) *obs.Gauge {
	if m == nil {
		return nil
	}
	return m.BreakerState.With(backend)
}

func (m *Metrics) replicate(peer, outcome string) {
	if m == nil {
		return
	}
	m.Replicate.With(peer, outcome).Inc()
}

func (m *Metrics) readRepair(target, outcome string) {
	if m == nil {
		return
	}
	m.ReadRepair.With(target, outcome).Inc()
}
