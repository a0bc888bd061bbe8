package store

import (
	"context"
	"time"
)

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
// and any number of waiters parked on done. val and ok are written before
// done closes and read only after, so the close carries the happens-before
// edge; waiters (guarded by flightMu) only feeds InflightWaiters.
type inflight struct {
	done    chan struct{} // closed when the flight resolves
	val     any           // the leader's value
	ok      bool          // the leader succeeded with a non-nil value
	waiters int           // parked waiters
}

// BeginCompute elects one computation per in-flight key: the first caller
// for a key not currently in flight becomes the leader (wait == nil) and
// must call FinishCompute exactly once, however its computation ends. Every
// other caller is a waiter and receives a wait function that parks until
// the flight resolves, bounded by ctx and (when positive) bound. It returns
// the leader's value and true when the leader succeeded; false when the
// leader failed, the bound expired or ctx was canceled — the waiter then
// computes locally and never calls FinishCompute.
//
// The wait function must be called at most once.
func (t *Tiered) BeginCompute(key string) (leader bool, wait func(ctx context.Context, bound time.Duration) (any, bool)) {
	t.flightMu.Lock()
	e, ok := t.flights[key]
	if !ok {
		if t.flights == nil {
			t.flights = make(map[string]*inflight)
		}
		t.flights[key] = &inflight{done: make(chan struct{})}
		t.flightMu.Unlock()
		return true, nil
	}
	e.waiters++
	t.flightMu.Unlock()
	return false, func(ctx context.Context, bound time.Duration) (any, bool) {
		defer func() {
			t.flightMu.Lock()
			e.waiters--
			t.flightMu.Unlock()
		}()
		var expired <-chan time.Time
		if bound > 0 {
			tm := time.NewTimer(bound)
			defer tm.Stop()
			expired = tm.C
		}
		select {
		case <-e.done:
			return e.val, e.ok
		case <-ctx.Done():
		case <-expired:
		}
		return nil, false
	}
}

// FinishCompute resolves key's flight: it removes the entry, so the next
// BeginCompute elects a fresh leader, and closes done, waking every waiter.
// On success the value is recorded for the waiters first and also enters
// the bounded afterglow cache (RecentResolved), closing the crack between
// a flight resolving without materialization and a racing run's identical
// node arriving just after. A failed flight (or a nil value) wakes its
// waiters empty-handed, and each computes locally. Unknown keys are
// ignored, which makes the call safe on paths that may or may not hold
// leadership.
func (t *Tiered) FinishCompute(key string, val any, err error) {
	t.flightMu.Lock()
	defer t.flightMu.Unlock()
	e, ok := t.flights[key]
	if !ok {
		return
	}
	if err == nil {
		e.val, e.ok = val, val != nil
		t.stashGlowLocked(key, val)
	}
	delete(t.flights, key)
	close(e.done)
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
