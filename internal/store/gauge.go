package store

import "sync/atomic"

// Gauge is a concurrency-safe byte counter with a high-water mark. The
// execution engine uses one to track the serialized-size estimate of every
// intermediate value currently held in memory during a run, so memory-
// bounded execution (releasing consumed intermediates) has a measurable
// peak to assert against rather than a hand-waved RSS.
//
// Live returns to the pre-run level after each Execute (the engine
// subtracts what it added), while Peak accumulates across runs until Reset.
//
// The counters are atomics, not a mutex: the engine charges the gauge on
// every node completion, and along a dispatch chase that is the only
// shared write on the happy path — a lock here would reintroduce the very
// serialization the chase avoids.
type Gauge struct {
	live atomic.Int64
	peak atomic.Int64
}

// Add increases the live count by n bytes, updating the peak.
func (g *Gauge) Add(n int64) {
	if n <= 0 {
		return
	}
	live := g.live.Add(n)
	for {
		peak := g.peak.Load()
		if live <= peak || g.peak.CompareAndSwap(peak, live) {
			return
		}
	}
}

// Sub decreases the live count by n bytes.
func (g *Gauge) Sub(n int64) {
	if n <= 0 {
		return
	}
	g.live.Add(-n)
}

// Live returns the bytes currently counted live.
func (g *Gauge) Live() int64 { return g.live.Load() }

// Peak returns the high-water mark since the last Reset.
func (g *Gauge) Peak() int64 { return g.peak.Load() }

// Reset zeroes both the live count and the peak.
func (g *Gauge) Reset() {
	g.live.Store(0)
	g.peak.Store(0)
}
