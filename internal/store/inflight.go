package store

import (
	"context"
	"time"
)

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
// On success the value is recorded for the waiters first; nothing outlives
// the flight, so a run arriving after it closed finds the value only in the
// store. A failed flight (or a nil value) wakes its waiters empty-handed,
// and each computes locally. Unknown keys are ignored, which makes the call
// safe on paths that may or may not hold leadership.
func (t *Tiered) FinishCompute(key string, val any, err error) {
	t.flightMu.Lock()
	defer t.flightMu.Unlock()
	e, ok := t.flights[key]
	if !ok {
		return
	}
	if err == nil {
		e.val, e.ok = val, val != nil
	}
	delete(t.flights, key)
	close(e.done)
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
