package store

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"defectsim/internal/obs"
)

// Circuit breaker for a remote backend or cluster peer. Consecutive
// failures open the circuit; while open, every operation fails fast with
// ErrBreakerOpen instead of burning a timeout against a dead host. After
// a cooldown the breaker half-opens: exactly one probe is let through,
// and its outcome closes the circuit (success) or re-opens it (failure).
//
// The state is exposed as a labeled gauge (store_breaker_state{backend},
// cluster_peer_breaker_state{peer}): 0 closed, 1 open, 2 half-open.

// BreakerState enumerates the circuit states. The numeric values are the
// gauge encoding, fixed by the metrics contract.
type BreakerState int

const (
	BreakerClosed   BreakerState = 0
	BreakerOpen     BreakerState = 1
	BreakerHalfOpen BreakerState = 2
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", int(s))
}

// ErrBreakerOpen fails an operation fast because the target's circuit is
// open. Callers distinguish it with errors.Is to fall back (replicated
// store, cluster routing) instead of retrying.
var ErrBreakerOpen = errors.New("store: circuit breaker open")

// IsUnavailable reports whether err means the backend could not be used
// at all (breaker open) as opposed to answering with a miss or an error.
func IsUnavailable(err error) bool { return errors.Is(err, ErrBreakerOpen) }

// Breaker is a closed/open/half-open circuit breaker. The zero value is
// not usable; construct with NewBreaker.
type Breaker struct {
	name      string
	threshold int
	cooldown  time.Duration

	mu       sync.Mutex
	state    BreakerState
	failures int
	openedAt time.Time
	probing  bool // a half-open probe is in flight
	now      func() time.Time
	gauge    *obs.Gauge
	onChange []func(from, to BreakerState)
}

// NewBreaker returns a closed breaker that opens after threshold
// consecutive failures and half-opens once cooldown has elapsed. gauge
// (nil-safe) receives the state encoding on every transition.
func NewBreaker(name string, threshold int, cooldown time.Duration, gauge *obs.Gauge) *Breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if cooldown <= 0 {
		cooldown = 15 * time.Second
	}
	b := &Breaker{
		name:      name,
		threshold: threshold,
		cooldown:  cooldown,
		now:       time.Now,
		gauge:     gauge,
	}
	gauge.Set(float64(BreakerClosed))
	return b
}

// SetClock replaces the breaker's time source — test hook for cooldown
// expiry without sleeping.
func (b *Breaker) SetClock(now func() time.Time) {
	b.mu.Lock()
	b.now = now
	b.mu.Unlock()
}

// OnChange registers a state-transition observer (called outside the
// breaker lock is NOT guaranteed; keep observers non-blocking).
func (b *Breaker) OnChange(fn func(from, to BreakerState)) {
	b.mu.Lock()
	b.onChange = append(b.onChange, fn)
	b.mu.Unlock()
}

// State returns the stored state. Cooldown expiry is not applied here:
// an open breaker past its cooldown reads as open (and its gauge stays
// at 1) until the next Allow half-opens it.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Name returns the breaker's label.
func (b *Breaker) Name() string { return b.name }

// Allow reports whether an operation may proceed. Closed: always. Open:
// only once the cooldown has elapsed, which transitions to half-open and
// admits the caller as the single probe. Half-open: false while the probe
// is in flight. Every Allow(true) must be paired with Success or Failure.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.transition(BreakerHalfOpen)
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Success records a successful operation: the circuit closes and the
// failure count resets.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.probing = false
	if b.state != BreakerClosed {
		b.transition(BreakerClosed)
	}
}

// Failure records a failed operation: a half-open probe re-opens the
// circuit immediately; in the closed state the threshold'th consecutive
// failure opens it.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.probing = false
		b.openedAt = b.now()
		b.transition(BreakerOpen)
	case BreakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.openedAt = b.now()
			b.transition(BreakerOpen)
		}
	}
}

// transition flips the state, updates the gauge and notifies observers.
// Caller holds b.mu.
func (b *Breaker) transition(to BreakerState) {
	from := b.state
	b.state = to
	b.gauge.Set(float64(to))
	for _, fn := range b.onChange {
		fn(from, to)
	}
}
