package shard

// Per-backend circuit breakers. Health probes notice a dead backend
// within an interval or two, but during a partial failure — a backend
// that accepts connections and then resets, stalls, or corrupts streams
// — the probe keeps passing while every real request burns a timeout.
// The breaker closes that gap from the request side: consecutive
// request failures open it, an open breaker routes traffic past the
// backend immediately (no timeout paid), and after a cooldown a single
// half-open probe request decides between closing it and re-opening.
//
// The breaker composes with (not replaces) the up/down health verdict:
// eligibility for routing is isUp() && breaker.allow(). Health-probe
// results feed the same breaker, so a recovered backend is closed again
// by the background probes even with no client traffic to prove it.

import (
	"sync"
	"time"

	"infat/internal/splitmix"
)

// Breaker states as reported in /metrics.
const (
	BreakerClosed   = "closed"
	BreakerOpen     = "open"
	BreakerHalfOpen = "half-open"
)

// Defaults for the breaker Config zero values.
const (
	// DefaultBreakerThreshold is the consecutive-failure count that opens
	// a breaker: above the single blip unary failover already absorbs,
	// low enough that a misbehaving backend stops costing timeouts fast.
	DefaultBreakerThreshold = 3
	// DefaultBreakerCooldown is how long an open breaker refuses traffic
	// before admitting one half-open probe request.
	DefaultBreakerCooldown = 5 * time.Second
)

// breaker is one backend's circuit breaker: closed (healthy) → open
// (threshold consecutive failures; all traffic refused) → half-open
// (cooldown elapsed; exactly one probe request admitted) → closed on
// probe success, open again on probe failure.
type breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable for tests

	mu       sync.Mutex
	state    string
	fails    int       // consecutive failures
	openedAt time.Time // when state last became open
	probing  bool      // half-open probe slot reserved
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{
		threshold: threshold,
		cooldown:  cooldown,
		now:       time.Now,
		state:     BreakerClosed,
	}
}

// allow reports whether a request may go to this backend. It mutates:
// an open breaker past its cooldown transitions to half-open, and a
// half-open breaker reserves its single probe slot for the caller —
// so a true return must be followed by the request and then one
// onSuccess/onFailure call. ring.owner returns the first eligible
// backend, so a reservation handed out here is always consumed.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	case BreakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	default:
		return true
	}
}

// onSuccess records a successful exchange: the breaker closes and the
// consecutive-failure count resets, whatever state it was in.
func (b *breaker) onSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerClosed
	b.fails = 0
	b.probing = false
}

// onFailure records a failed exchange. A half-open probe failure
// re-opens immediately; a closed breaker opens at the threshold.
func (b *breaker) onFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	b.probing = false
	if b.state == BreakerHalfOpen || b.fails >= b.threshold {
		b.state = BreakerOpen
		b.openedAt = b.now()
	}
}

// snapshot returns the state and consecutive-failure count for /metrics.
func (b *breaker) snapshot() (state string, fails int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.fails
}

// probeDelay is the wait before a backend's next health probe: the base
// interval, doubled per consecutive failure up to 8x (a flapping or
// dead backend is probed less aggressively), plus a seeded jitter of up
// to a quarter interval. The jitter desynchronizes the per-backend
// probe loops — without it every loop ticks in lockstep and the fleet
// absorbs N simultaneous probes every interval, a thundering herd that
// grows with fleet size and lands exactly when a recovering backend is
// most fragile.
func probeDelay(base time.Duration, fails int, rng *splitmix.Stream) time.Duration {
	d := base
	for i := 0; i < fails && d < 8*base; i++ {
		d *= 2
	}
	if d > 8*base {
		d = 8 * base
	}
	if j := int(base / 4); j > 0 {
		d += time.Duration(rng.Intn(j))
	}
	return d
}
