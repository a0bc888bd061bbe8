package exec

import (
	"sync"
	"sync/atomic"

	"repro/internal/dag"
	"repro/internal/opt"
)

// dispatcher runs a plan's nodes over the worker pool. Reference counts are
// atomics, and ready nodes wait in one priority heap behind one mutex. A
// finishing worker runs its best newly-ready child directly — the chase —
// so a dependency chain takes no lock; only fan-out touches the heap. See
// docs/scheduler.md for the protocol and its memory-ordering argument.
type dispatcher struct {
	*runCtx

	weight    []int64        // the run's critical-path priorities
	pending   []atomic.Int32 // per-node unfinished non-pruned parents
	consumers []atomic.Int32 // per-node compute children yet to run (release)
	cancelled atomic.Bool    // set on first error; stops dispatching new work

	// mu guards ready and errs; idle workers wait on cond. Pushes and the
	// broadcast after the last finish or a cancellation happen under mu, and
	// a worker checks remaining and cancelled under mu before it waits, so
	// no wakeup is lost.
	mu    sync.Mutex
	cond  sync.Cond
	ready nodeHeap
	errs  []error // every node error observed before shutdown

	// remaining counts runnable nodes not yet finished. Every finish writes
	// it, so the pad keeps it off the cache line of the fields every finish
	// reads.
	_         [64]byte
	remaining atomic.Int64
}

// runDispatch drains the run over the engine's worker pool and returns
// every node error observed before shutdown.
func runDispatch(rc *runCtx, weight []int64, pending, consumers []int, remaining int, ready []dag.NodeID) []error {
	workers := min(rc.e.workers(), remaining)
	if workers == 0 {
		return nil
	}
	d := &dispatcher{runCtx: rc, weight: weight, pending: atomicCounts(pending), consumers: atomicCounts(consumers)}
	d.cond.L = &d.mu
	d.ready.weight = weight
	d.remaining.Store(int64(remaining))
	for _, id := range ready {
		d.ready.push(id) // no worker has started yet
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			d.work()
		}()
	}
	wg.Wait()
	return d.errs
}

// atomicCounts copies per-node reference counts into atomics.
func atomicCounts(counts []int) []atomic.Int32 {
	out := make([]atomic.Int32, len(counts))
	for i, c := range counts {
		out[i].Store(int32(c))
	}
	return out
}

// work is one worker's loop: take the best ready node, run it, and chase
// the best newly-ready child finish hands back, with no queue round-trip.
func (d *dispatcher) work() {
	for id, ok := d.next(); ok; id, ok = d.next() {
		for ok {
			id, ok = d.finish(id, d.runNode(id))
		}
	}
}

// next pops the highest-priority ready node, waiting while the heap is
// empty. It returns false once the run is cancelled or fully drained.
func (d *dispatcher) next() (dag.NodeID, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.cancelled.Load() || d.remaining.Load() == 0 {
			return 0, false
		}
		if d.ready.Len() > 0 {
			return d.ready.pop(), true
		}
		d.cond.Wait()
	}
}

// finish publishes id's completion and returns the node this worker should
// run next, if completing id made one runnable. On success it decrements
// each compute child's pending-parent counter (exactly one parent observes
// the zero-crossing and owns the dispatch), keeps the best newly-ready
// child to run directly and pushes the rest onto the heap. On failure it
// records the error and cancels all not-yet-dispatched work; nodes already
// in flight complete and their errors are collected too.
func (d *dispatcher) finish(id dag.NodeID, err error) (dag.NodeID, bool) {
	// readyBuf and releaseBuf keep a handful of newly-ready children and
	// released values off the Go heap: finish runs once per node, so an
	// allocation here is GC churn.
	var readyBuf, releaseBuf [8]dag.NodeID
	ready, release := readyBuf[:0], releaseBuf[:0]
	if err != nil {
		// Interrupt in-flight operators first: they may be long-running,
		// and nothing below waits on them.
		d.runCtx.cancel()
		d.mu.Lock()
		d.errs = append(d.errs, err)
		d.mu.Unlock()
		d.cancelled.Store(true)
	} else {
		// Settle release reference counts before any child can be
		// dispatched: the self-check below (consumers[id] == 0) is only
		// race-free while no child of id is running, and children become
		// runnable only through the pending decrements that follow.
		if d.e.ReleaseIntermediates {
			release = d.releasable(id, release)
		}
		for _, c := range d.g.Children(id) {
			if d.plan.States[c] == opt.Compute && d.pending[c].Add(-1) == 0 {
				ready = append(ready, c)
			}
		}
	}

	var next dag.NodeID
	keep := len(ready) > 0 && !d.cancelled.Load()
	if keep {
		next, ready = pickBest(d.weight, ready)
		if len(ready) > 0 {
			d.mu.Lock()
			for _, c := range ready {
				d.ready.push(c)
			}
			if len(ready) == 1 {
				d.cond.Signal()
			} else {
				d.cond.Broadcast()
			}
			d.mu.Unlock()
		}
	}

	if d.remaining.Add(-1) == 0 || d.cancelled.Load() {
		d.mu.Lock()
		d.cond.Broadcast()
		d.mu.Unlock()
	}
	d.applyRelease(release)
	return next, keep && !d.cancelled.Load()
}

// pickBest removes the highest-priority node from ready and returns it
// together with the remainder (order not preserved).
func pickBest(weight []int64, ready []dag.NodeID) (dag.NodeID, []dag.NodeID) {
	best := 0
	for i := 1; i < len(ready); i++ {
		if nodeBefore(weight, ready[i], ready[best]) {
			best = i
		}
	}
	id := ready[best]
	ready[best] = ready[len(ready)-1]
	return id, ready[:len(ready)-1]
}

// releasable decrements the reference counts id's completion settles and
// appends to out the non-output nodes whose values no remaining consumer
// needs: exactly one decrement observes zero and owns each release. The
// self-check is safe because finish calls releasable before any child of id
// is made runnable.
func (d *dispatcher) releasable(id dag.NodeID, out []dag.NodeID) []dag.NodeID {
	if d.plan.States[id] == opt.Compute {
		for _, p := range d.g.Parents(id) {
			if d.plan.States[p] == opt.Prune {
				continue
			}
			if d.consumers[p].Add(-1) == 0 && !d.g.Node(p).Output {
				out = append(out, p)
			}
		}
	}
	if d.consumers[id].Load() == 0 && !d.g.Node(id).Output {
		out = append(out, id)
	}
	return out
}
