package exec

import (
	"context"
	"time"
)

// inflightWait bounds how long a single-flight waiter parks on another
// run's in-flight computation before giving up and computing locally. The
// bound is belt-and-suspenders, not the liveness argument — see the
// deadlock reasoning on joinFlight — sized so a genuinely wedged foreign
// leader costs a stall, never a deadlock. A variable only so the timeout
// test can shorten it.
var inflightWait = 10 * time.Second

// flightRole is joinFlight's verdict on one compute-planned node.
type flightRole int

const (
	// flightCompute: run the operator locally; the caller holds no
	// leadership and must not FinishCompute. The role when single-flight is
	// disabled, and the waiter fallback after a failed flight, a timeout or
	// a cancellation.
	flightCompute flightRole = iota
	// flightLead: the caller is the key's elected leader — compute and
	// publish as usual, then FinishCompute exactly once, however the
	// computation ends.
	flightLead
	// flightServed: the value came from a concurrent flight, or from the
	// store once that flight had closed, without computing.
	flightServed
)

// joinFlight consults the shared store's in-flight computation registry
// before a compute-planned node runs. Leaders proceed to compute; waiters
// park until the concurrent flight resolves and take the leader's value —
// published values are immutable, the convention that lets one run's
// consumers share them — or, when the flight failed, compute locally. A
// leader that finds the key already stored — the flight it raced resolved
// before it registered — is served the stored bytes instead of recomputing,
// which is what makes N concurrent identical runs compute each unique
// signature exactly once.
//
// No cross-run deadlock (the argument docs/store.md records): a worker
// waits only on the single key of the node it is about to run, and
// leadership over a key is held only across that leader's own bounded work
// — the operator plus an asynchronous publish whose pipeline Execute always
// flushes, even on error and cancellation paths (FinishCompute fires from
// the writer, the inline fallback, or the error path; there is no return
// without it). Leadership is therefore never held *while* waiting on a
// different key's flight on the same worker, so no cycle of waits can form.
// The bounded wait (inflightWait) is a backstop, not the proof: progress
// always beats dedup, because every wait ends in the leader's value or a
// local compute.
func (e *Engine) joinFlight(ctx context.Context, key string, stats *faultStats) (flightRole, any, error) {
	if !e.SingleFlight || e.Store == nil || key == "" {
		return flightCompute, nil, nil
	}
	tv := e.tiers()
	leader, wait := tv.BeginCompute(key)
	if leader {
		// A flight this run raced may have resolved between plan time and
		// now: serve the published bytes instead of recomputing them. When
		// that flight's policy declined to store the value, compute it.
		if tv.Has(key) {
			if v, _, err := tv.Get(key); err == nil {
				tv.FinishCompute(key, v, nil)
				stats.inflightHits.Add(1)
				return flightServed, v, nil
			}
		}
		return flightLead, nil, nil
	}
	stats.inflightWaits.Add(1)
	if v, ok := wait(ctx, inflightWait); ok {
		stats.inflightHits.Add(1)
		return flightServed, v, nil
	}
	return flightCompute, nil, ctx.Err()
}

// finishFlight resolves key's flight if this caller holds its leadership.
func (e *Engine) finishFlight(lead bool, key string, val any, err error) {
	if lead {
		e.tiers().FinishCompute(key, val, err)
	}
}
