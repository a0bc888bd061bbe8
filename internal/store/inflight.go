package store

import (
	"context"
	"time"
)

// WaitOutcome is how a single-flight waiter's park ended.
type WaitOutcome int

const (
	// WaitPublished means the leader finished its publish attempt: the key
	// is now in the store if the leader's policy materialized it, and the
	// leader's value is handed to the waiter either way. The flight is
	// resolved; the waiter must not FinishCompute.
	WaitPublished WaitOutcome = iota
	// WaitLeader means the previous leader failed and leadership was handed
	// to this waiter: it must compute the value itself and call
	// FinishCompute exactly once.
	WaitLeader
	// WaitTimeout means the bounded wait expired before the flight
	// resolved. The waiter has deregistered; it should compute locally
	// (progress beats dedup) and must not FinishCompute.
	WaitTimeout
	// WaitCanceled means the waiter's context was canceled. The waiter has
	// deregistered and must not FinishCompute.
	WaitCanceled
)

func (o WaitOutcome) String() string {
	switch o {
	case WaitPublished:
		return "published"
	case WaitLeader:
		return "leader"
	case WaitTimeout:
		return "timeout"
	default:
		return "canceled"
	}
}

// Afterglow bounds for the recently-resolved cache (see FinishCompute and
// RecentResolved): at most afterglowMax values are retained, each for at
// most afterglowTTL. Keys are content addresses, so a cached value can
// never be stale — the TTL only releases memory, it is not a correctness
// knob.
const (
	afterglowMax = 64
	afterglowTTL = 10 * time.Second
)

// glowEntry is one recently resolved flight's value.
type glowEntry struct {
	val any
	at  time.Time
}

// inflight is one key's in-flight computation: a leader computing the value
// and any number of waiters parked on done. Leadership is handed off through
// offer when a leader fails while waiters remain, so one session's failure
// never wedges another's run. All fields except the channels are guarded by
// the registry's flightMu; val is written before done closes and read only
// after, so the channel close carries the happens-before edge.
type inflight struct {
	done  chan struct{} // closed when the flight resolves
	offer chan struct{} // capacity 1: the leadership-handoff token

	val     any  // the leader's computed value, set before done closes
	waiters int  // parked waiters (a waiter in offer-limbo still counts)
	offered bool // a handoff token is outstanding (sent, not yet accepted)
}

// BeginCompute elects one computation per in-flight key: the first caller
// for a key not currently in flight becomes the leader (wait == nil) and
// must call FinishCompute exactly once, however its computation ends. Every
// other caller is a waiter and receives a wait function that parks until
// the flight resolves, bounded by ctx and (when positive) bound:
//
//   - WaitPublished: the leader published; the returned value is the
//     leader's result, and the key is in the store if the leader's policy
//     materialized it. Prefer loading the stored bytes (the planned-load
//     path, with its per-tier read accounting); the value is the
//     fallback when the policy declined or the entry was already evicted.
//   - WaitLeader: the leader failed and this waiter inherited leadership —
//     compute, then FinishCompute exactly once.
//   - WaitTimeout / WaitCanceled: the waiter deregistered without a result;
//     compute locally, do not FinishCompute.
//
// The wait function must be called at most once.
func (t *Tiered) BeginCompute(key string) (leader bool, wait func(ctx context.Context, bound time.Duration) (WaitOutcome, any)) {
	t.flightMu.Lock()
	e, ok := t.flights[key]
	if !ok {
		if t.flights == nil {
			t.flights = make(map[string]*inflight)
		}
		e = &inflight{done: make(chan struct{}), offer: make(chan struct{}, 1)}
		t.flights[key] = e
		t.flightMu.Unlock()
		return true, nil
	}
	e.waiters++
	t.flightMu.Unlock()
	return false, func(ctx context.Context, bound time.Duration) (WaitOutcome, any) {
		var expired <-chan time.Time
		if bound > 0 {
			tm := time.NewTimer(bound)
			defer tm.Stop()
			expired = tm.C
		}
		select {
		case <-e.done:
			// Resolution deleted the entry; the waiter bookkeeping died
			// with it. A parked waiter keeps a failed flight from being
			// abandoned (FinishCompute hands off instead), so done closing
			// always means the leader published.
			return WaitPublished, e.val
		case <-e.offer:
			t.flightMu.Lock()
			e.waiters--
			e.offered = false
			t.flightMu.Unlock()
			return WaitLeader, nil
		case <-ctx.Done():
			t.deregisterWaiter(key, e)
			return WaitCanceled, nil
		case <-expired:
			t.deregisterWaiter(key, e)
			return WaitTimeout, nil
		}
	}
}

// FinishCompute resolves key's flight. On success the value is recorded for
// the flight's waiters and done is closed — by then the leader has already
// attempted its store publish, so woken waiters that probe the store see the
// bytes if the policy materialized them — and the value also enters the
// bounded afterglow cache (RecentResolved), closing the crack between a
// flight resolving without materialization and a racing run's identical
// node arriving just after. On failure with waiters parked, leadership is
// handed off: exactly one waiter wakes as the new leader (and owes its own
// FinishCompute); with no waiters the flight is abandoned so the next
// BeginCompute starts fresh. Unknown keys are ignored, which makes the call
// safe on paths that may or may not hold leadership.
func (t *Tiered) FinishCompute(key string, val any, err error) {
	t.flightMu.Lock()
	defer t.flightMu.Unlock()
	e, ok := t.flights[key]
	if !ok {
		return
	}
	if err == nil || e.waiters == 0 {
		if err == nil {
			if e.waiters > 0 {
				e.val = val
			}
			t.stashGlowLocked(key, val)
		}
		delete(t.flights, key)
		close(e.done)
		return
	}
	if !e.offered {
		e.offered = true
		e.offer <- struct{}{}
	}
}

// RecentResolved returns the value of a successfully resolved recent flight
// for key, if the afterglow cache still holds one. A single-flight leader
// whose store probe missed consults it before computing: the previous
// flight's policy may have declined materialization, and the key being a
// content address makes the cached value as good as a recomputation.
func (t *Tiered) RecentResolved(key string) (any, bool) {
	t.flightMu.Lock()
	defer t.flightMu.Unlock()
	g, ok := t.glow[key]
	if !ok || time.Since(g.at) > afterglowTTL {
		return nil, false
	}
	return g.val, true
}

// stashGlowLocked records a resolved flight's value in the afterglow cache,
// evicting expired entries and the oldest beyond the cap; flightMu held.
// Nil values (leaders that resolve without a result) are not cached.
func (t *Tiered) stashGlowLocked(key string, val any) {
	if val == nil {
		return
	}
	if t.glow == nil {
		t.glow = make(map[string]glowEntry)
	}
	if _, ok := t.glow[key]; !ok {
		t.glowOrder = append(t.glowOrder, key)
	}
	t.glow[key] = glowEntry{val: val, at: time.Now()}
	for len(t.glowOrder) > 0 {
		k := t.glowOrder[0]
		g, ok := t.glow[k]
		if ok && len(t.glowOrder) <= afterglowMax && time.Since(g.at) <= afterglowTTL {
			break
		}
		t.glowOrder = t.glowOrder[1:]
		if ok && k != key {
			delete(t.glow, k)
		}
	}
}

// deregisterWaiter removes one parked waiter from key's flight after a
// timeout or cancellation. If a leadership-handoff token is outstanding and
// still unclaimed, it is re-offered to a remaining waiter — or, when this
// was the last waiter, the flight is abandoned so the key is not wedged
// behind a token nobody will take.
func (t *Tiered) deregisterWaiter(key string, e *inflight) {
	t.flightMu.Lock()
	defer t.flightMu.Unlock()
	if t.flights[key] != e {
		return // resolved concurrently; the entry (and its counts) are gone
	}
	e.waiters--
	if !e.offered {
		return
	}
	select {
	case <-e.offer:
		// Drained the unclaimed token. Hand it to a remaining waiter, or
		// abandon the flight if this deregistration emptied the park.
		if e.waiters > 0 {
			e.offer <- struct{}{}
		} else {
			e.offered = false
			delete(t.flights, key)
			close(e.done)
		}
	default:
		// Another waiter claimed the token and is becoming the leader.
	}
}

// InflightComputes reports how many keys currently have a computation in
// flight (tests and observability).
func (t *Tiered) InflightComputes() int {
	t.flightMu.Lock()
	defer t.flightMu.Unlock()
	return len(t.flights)
}

// InflightWaiters reports how many waiters are parked on key's flight; 0
// when the key is not in flight (tests and observability).
func (t *Tiered) InflightWaiters(key string) int {
	t.flightMu.Lock()
	defer t.flightMu.Unlock()
	if e, ok := t.flights[key]; ok {
		return e.waiters
	}
	return 0
}
