package exec

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dag"
	"repro/internal/opt"
)

// wsRand is each worker's victim-probing PRNG: a splitmix64 stream seeded
// with the worker index, so steal order is randomized across workers but
// reproducible across runs — and costs two multiplies per draw instead of
// math/rand's per-run source initialization.
type wsRand uint64

// next advances the stream (splitmix64, Steele et al.).
func (r *wsRand) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a pseudo-random int in [0, n).
func (r *wsRand) intn(n int) int { return int(r.next() % uint64(n)) }

// wsDeque is one worker's private ready queue: a priority heap (not a
// classic ends-discipline deque — critical-path priority replaces the
// LIFO/FIFO split) guarded by its own mutex. The owner pushes and pops
// under a lock that is uncontended unless a thief is probing it, which is
// what makes the dispatch happy path lock-light: no global lock is touched
// between a node finishing and its child starting.
type wsDeque struct {
	mu sync.Mutex
	h  nodeHeap
	// pad to 128 bytes (fields are 56: 8 mutex + two 24-byte slice
	// headers) so adjacent deques never share a 64-byte cache line —
	// whatever the array's alignment, each deque spans two full lines and
	// owner traffic cannot false-share with a neighbour.
	_ [72]byte
}

// wsTopEmpty is the published top weight of an empty queue: below every
// real critical-path weight, so an empty queue never wins the global-best
// consult.
const wsTopEmpty = int64(math.MinInt64)

// wsTop publishes one deque's current best (highest) weight, updated at
// every locked heap mutation. The stranding consult in popLocal reads
// these lock-free to approximate the globally best runnable weight; the
// values are advisory — a stale top costs one suboptimal pick, never
// correctness. Padded to a cache line so per-worker publications do not
// false-share.
type wsTop struct {
	w atomic.Int64
	_ [56]byte
}

// wsDispatch is the engine's work-stealing dispatcher. Scheduling state
// is decomposed so no global lock sits on the per-node path:
// pending-parent and consumer reference counts are atomics (many finishers decrement concurrently; exactly one observes the
// zero-crossing), each worker owns a private priority deque, and a small
// global overflow queue — sharing a mutex with the parking condition
// variable — hands work to parked workers and carries shutdown and
// cancellation wakeups. See docs/scheduler.md for the full protocol and
// its memory-ordering argument.
type wsDispatch struct {
	*runCtx

	weight []int64 // the run's critical-path priorities, shared by every queue
	deques []wsDeque
	tops   []wsTop // published per-deque best weights (see wsTop)

	pending   []atomic.Int32 // per-node unfinished non-pruned parents
	consumers []atomic.Int32 // per-node compute children yet to run (release)
	remaining atomic.Int64   // runnable nodes not yet finished
	cancelled atomic.Bool    // set on first error; stops dispatching new work
	steals    atomic.Int64   // nodes taken from another worker's deque
	handoffs  atomic.Int64   // nodes routed through the overflow queue
	// affinityKeeps counts newly-ready children kept on the producing
	// worker's deque by the partial handoff in dispatchRest — nodes that,
	// before the affinity fix, would all have been routed through the
	// overflow queue whenever any worker was parked.
	affinityKeeps atomic.Int64
	// overflowTop publishes the overflow queue's best weight (wsTopEmpty
	// when empty), updated under parkMu, read lock-free by the stranding
	// consult.
	overflowTop atomic.Int64

	errMu sync.Mutex
	errs  []error // every node error observed before shutdown

	// parkMu guards the overflow queue and the parking protocol. Lock
	// order: parkMu may be taken alone or before a deque mutex (the parked
	// rescan); no path acquires parkMu while holding a deque mutex.
	parkMu   sync.Mutex
	parkCond *sync.Cond
	overflow nodeHeap     // cross-worker handoff queue, guarded by parkMu
	waiters  atomic.Int32 // workers parked or registering to park
}

// runWorkSteal drains the run with the work-stealing dispatcher and
// returns every node error observed before shutdown.
func runWorkSteal(rc *runCtx, weight []int64, pending, consumers []int, remaining int, ready []dag.NodeID) []error {
	workers := rc.e.workers()
	if workers > remaining {
		workers = remaining
	}
	if workers == 0 {
		return nil
	}
	d := &wsDispatch{runCtx: rc, weight: weight}
	d.parkCond = sync.NewCond(&d.parkMu)
	d.overflow.weight = weight
	d.overflowTop.Store(wsTopEmpty)
	d.deques = make([]wsDeque, workers)
	d.tops = make([]wsTop, workers)
	for i := range d.deques {
		d.deques[i].h.weight = weight
		d.tops[i].w.Store(wsTopEmpty)
	}
	d.pending = make([]atomic.Int32, len(pending))
	for i, p := range pending {
		d.pending[i].Store(int32(p))
	}
	if consumers != nil {
		d.consumers = make([]atomic.Int32, len(consumers))
		for i, c := range consumers {
			d.consumers[i].Store(int32(c))
		}
	}
	d.remaining.Store(int64(remaining))

	// Critical-path-aware initial partition: deal the initial ready set in
	// priority order round-robin across the deques, so every worker starts
	// on the most urgent work available and the heaviest paths spread over
	// distinct workers instead of queueing behind one.
	seed := append([]dag.NodeID(nil), ready...)
	sort.Slice(seed, func(i, j int) bool { return nodeBefore(weight, seed[i], seed[j]) })
	for i, id := range seed {
		d.deques[i%workers].h.push(id)
	}
	for i := range d.deques {
		d.publishTop(i, &d.deques[i].h) // single-threaded setup; no lock yet
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			d.work(w)
		}(w)
	}
	wg.Wait()
	rc.res.Steals = d.steals.Load()
	rc.res.Handoffs = d.handoffs.Load()
	rc.res.AffinityKeeps = d.affinityKeeps.Load()
	return d.errs
}

// work is one worker's loop: acquire a node (own deque, overflow, then
// stealing), run it, and chase the chain of children it unlocks — finish
// hands back the best newly-ready child so dependency chains execute with
// no queue round-trip at all.
func (d *wsDispatch) work(w int) {
	rng := wsRand(w)
	for {
		id, ok := d.next(w, &rng)
		if !ok {
			return
		}
		for ok {
			err := d.runNode(id)
			id, ok = d.finish(w, id, err)
		}
	}
}

// finish publishes id's completion and returns the node this worker should
// run next, if completing id made one runnable. On success it decrements
// each compute child's pending-parent counter (atomically — exactly one
// parent observes the zero-crossing and owns the dispatch), keeps the
// highest-priority newly-ready child to run directly, and queues the rest
// on its own deque — or hands them to parked workers through the overflow
// queue. On failure it records the error and cancels all not-yet-
// dispatched work; nodes already in flight complete and their errors are
// collected too.
func (d *wsDispatch) finish(w int, id dag.NodeID, err error) (dag.NodeID, bool) {
	var release []dag.NodeID
	// readyBuf keeps the common case (a handful of newly-ready children)
	// off the heap: finish runs once per node, and an allocation here is
	// measurable GC churn on fine-grained DAGs.
	var readyBuf [8]dag.NodeID
	ready := readyBuf[:0]
	if err != nil {
		// Interrupt in-flight operators first: they may be long-running,
		// and nothing below waits on them.
		d.runCtx.cancel()
		d.errMu.Lock()
		d.errs = append(d.errs, err)
		d.errMu.Unlock()
		d.cancelled.Store(true)
	} else {
		// Settle release reference counts before any child can be
		// dispatched: the self-check below (consumers[id] == 0) is only
		// race-free while no child of id is running, and children become
		// runnable only through the pending decrements that follow.
		if d.e.ReleaseIntermediates {
			release = d.releasable(id)
		}
		for _, c := range d.g.Children(id) {
			if d.plan.States[c] != opt.Compute {
				continue
			}
			if d.pending[c].Add(-1) == 0 {
				ready = append(ready, c)
			}
		}
	}

	var next dag.NodeID
	keep := false
	if len(ready) > 0 && !d.cancelled.Load() {
		next, ready = pickBest(d.weight, ready)
		keep = true
		if len(ready) > 0 {
			d.dispatchRest(w, ready)
		}
	}

	last := d.remaining.Add(-1) == 0
	if last || d.cancelled.Load() {
		d.parkMu.Lock()
		d.parkCond.Broadcast()
		d.parkMu.Unlock()
	}
	d.applyRelease(release)
	if keep && !d.cancelled.Load() {
		return next, true
	}
	return 0, false
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

// idleConsumers estimates how many other workers could take a handoff
// right now: the registered parked waiters, or — while the overflow queue
// is published empty — every other deque publishing an empty top. A parked
// worker's deque is always empty (only its owner pushes to it, and it
// parked after finding it empty), so the count is a max, never a sum. The
// published-empty widening is what spreads a ready burst that lands before
// anyone has managed to park — a cheap root fanning out within
// microseconds of startup, when the sibling workers exist but have not
// reached their first popLocal — and the overflow-empty gate keeps
// steady-state chase loops (all deques drained, every finish chasing its
// own child) from paying the global handoff lock for work their own
// chase would consume anyway.
func (d *wsDispatch) idleConsumers(w int) int {
	nw := int(d.waiters.Load())
	if d.overflowTop.Load() != wsTopEmpty {
		return nw
	}
	empty := 0
	for i := range d.tops {
		if i != w && d.tops[i].w.Load() == wsTopEmpty {
			empty++
		}
	}
	if empty > nw {
		return empty
	}
	return nw
}

// dispatchRest queues the newly-ready nodes the finishing worker is not
// running itself. With idle workers to feed, one node per idle consumer is
// routed through the overflow queue (a handoff: parked workers take from
// it without probing every deque) and the surplus stays on the producing
// worker's own deque — the locality-aware half of the dispatch policy:
// these children's inputs were computed (and are cache-warm, or
// tier-resident) right here, so only as many leave as there are idle
// workers to run them, highest priority first. Without idle consumers
// everything lands on the own deque for thieves to steal from. rest must
// be non-empty — a finish whose only ready child is kept for the chase
// loop dispatches with no lock at all.
func (d *wsDispatch) dispatchRest(w int, rest []dag.NodeID) {
	if nw := d.idleConsumers(w); nw > 0 {
		handoff := rest
		var local []dag.NodeID
		if len(rest) > nw {
			sort.Slice(rest, func(i, j int) bool { return nodeBefore(d.weight, rest[i], rest[j]) })
			handoff, local = rest[:nw], rest[nw:]
			d.affinityKeeps.Add(int64(len(local)))
		}
		d.handoffs.Add(int64(len(handoff)))
		d.parkMu.Lock()
		for _, c := range handoff {
			d.overflow.push(c)
		}
		d.publishOverflowLocked()
		d.signalLocked(len(handoff))
		d.parkMu.Unlock()
		if len(local) > 0 {
			d.pushLocal(w, local)
		}
		return
	}
	d.pushLocal(w, rest)
}

// pushLocal lands nodes on the worker's own deque and wakes any waiter
// that registered after the caller's waiters check (the lost-wakeup-free
// half of the parking protocol; see wakeWaiters).
func (d *wsDispatch) pushLocal(w int, nodes []dag.NodeID) {
	dq := &d.deques[w]
	dq.mu.Lock()
	for _, c := range nodes {
		dq.h.push(c)
	}
	d.publishTop(w, &dq.h)
	dq.mu.Unlock()
	d.wakeWaiters(len(nodes))
}

// wakeWaiters is the lost-wakeup-free half of the parking protocol, called
// after n nodes were pushed to a deque: a worker may have registered to
// park after the producer's earlier waiters check; it holds parkMu until
// its rescan (which locks every deque and therefore sees the push) either
// finds work or sleeps, so a signal taken now — serialized against that
// critical section — can never be lost. No-op when nobody is parked or
// registering.
func (d *wsDispatch) wakeWaiters(n int) {
	if d.waiters.Load() == 0 {
		return
	}
	d.parkMu.Lock()
	d.signalLocked(n)
	d.parkMu.Unlock()
}

// signalLocked wakes one waiter per available node (broadcast beyond one).
// Callers hold parkMu.
func (d *wsDispatch) signalLocked(n int) {
	if n == 1 {
		d.parkCond.Signal()
	} else {
		d.parkCond.Broadcast()
	}
}

// releasable decrements the reference counts id's completion settles and
// returns the non-output nodes whose values no remaining consumer needs.
// The counters are atomic: when several children of one parent finish
// concurrently, exactly one decrement observes zero and owns the release.
// The self-check is safe because finish calls releasable before any child
// of id is made runnable (see finish).
func (d *wsDispatch) releasable(id dag.NodeID) []dag.NodeID {
	var out []dag.NodeID
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

// publishTop publishes deque w's current best weight for the stranding
// consult. Callers hold the deque's mutex (or are in single-threaded
// setup).
func (d *wsDispatch) publishTop(w int, h *nodeHeap) {
	top := wsTopEmpty
	if h.Len() > 0 {
		top = h.weight[h.ids[0]]
	}
	d.tops[w].w.Store(top)
}

// publishOverflowLocked publishes the overflow queue's current best weight.
// Callers hold parkMu.
func (d *wsDispatch) publishOverflowLocked() {
	top := wsTopEmpty
	if d.overflow.Len() > 0 {
		top = d.overflow.weight[d.overflow.ids[0]]
	}
	d.overflowTop.Store(top)
}

// globalBest returns the best published weight over every other deque and
// the overflow queue — the stranding consult's lock-free approximation of
// the most urgent runnable work elsewhere. wsTopEmpty when nothing is
// published.
func (d *wsDispatch) globalBest(w int) int64 {
	best := d.overflowTop.Load()
	for i := range d.tops {
		if i == w {
			continue
		}
		if t := d.tops[i].w.Load(); t > best {
			best = t
		}
	}
	return best
}

// bestVictim returns the other deque publishing the highest top weight, or
// -1 when none publishes real work (or the overflow queue outranks them
// all — the caller has already drained it). A stranded worker steals from
// this deque first: the consult declined the local top because something
// globally urgent is runnable elsewhere, and a random probe would more
// likely land on a deque full of exactly the low-priority work it just
// declined.
func (d *wsDispatch) bestVictim(w int) int {
	best, victim := d.overflowTop.Load(), -1
	for i := range d.tops {
		if i == w {
			continue
		}
		if t := d.tops[i].w.Load(); t > best {
			best, victim = t, i
		}
	}
	return victim
}

// next acquires the worker's next node: own deque first, then the overflow
// queue, then a randomized steal round over the other deques, and finally
// parking until a finisher signals new work (or shutdown). Returns false
// when the run is cancelled or fully drained.
//
// The first popLocal is a hybrid: it declines ("stranded") when the local
// top's priority is far below the published global best, sending this
// worker to the overflow queue and the steal round for the genuinely
// urgent work instead — the fix for the steal-half stranding failure mode
// (docs/scheduler.md), where a globally-worst-ranked node sat at the top
// of a nearly-empty deque and ran years before its turn. If the consult
// finds nothing actually takeable (the published best was claimed first,
// or the tops were stale), the forced popLocal runs the local node anyway:
// progress beats priority, and a worker never parks with runnable local
// work.
func (d *wsDispatch) next(w int, rng *wsRand) (dag.NodeID, bool) {
	for {
		if d.cancelled.Load() || d.remaining.Load() == 0 {
			return 0, false
		}
		id, ok, stranded := d.popLocal(w, false)
		if ok {
			return id, true
		}
		if id, ok := d.popOverflow(); ok {
			return id, true
		}
		prefer := -1
		if stranded {
			// Steal from the deque whose published top triggered the
			// consult: the whole point of declining the local node was to
			// run the globally urgent one.
			prefer = d.bestVictim(w)
		}
		if id, ok := d.stealBatch(w, rng, prefer); ok {
			return id, true
		}
		if stranded {
			if id, ok, _ := d.popLocal(w, true); ok {
				return id, true
			}
			continue // a thief drained the deque meanwhile; re-evaluate
		}
		if id, ok := d.park(w); ok {
			return id, true
		}
	}
}

// popLocal takes the highest-priority node from the worker's own deque.
// Unless force is set, a top whose weight is less than half the published
// global best is declined instead (returned stranded=true), steering the
// worker toward the overflow queue and the steal round first — see next.
func (d *wsDispatch) popLocal(w int, force bool) (id dag.NodeID, ok, stranded bool) {
	dq := &d.deques[w]
	dq.mu.Lock()
	defer dq.mu.Unlock()
	if dq.h.Len() == 0 {
		return 0, false, false
	}
	if !force {
		if tw := dq.h.weight[dq.h.ids[0]]; d.globalBest(w) > 2*tw {
			return 0, false, true
		}
	}
	id = dq.h.pop()
	d.publishTop(w, &dq.h)
	return id, true, false
}

// popOverflow takes the highest-priority node from the global overflow
// queue. The cross-worker transfer was already counted (Result.Handoffs)
// when dispatchRest enqueued it.
func (d *wsDispatch) popOverflow() (dag.NodeID, bool) {
	if d.overflowTop.Load() == wsTopEmpty {
		return 0, false // published-empty fast path; skip the global lock
	}
	d.parkMu.Lock()
	defer d.parkMu.Unlock()
	if d.overflow.Len() == 0 {
		return 0, false
	}
	id := d.overflow.pop()
	d.publishOverflowLocked()
	return id, true
}

// stealBatch probes every other deque once, starting at a seeded-random
// offset, and takes up to half of the first non-empty victim's queue,
// highest-priority nodes first — an idle worker exists to run the most
// urgent runnable work, so the thief takes the victim's best (the
// heaviest critical path moves to a free worker immediately) and the
// batch amortizes the lock traffic over several nodes instead of coming
// back for every one. A stranded thief passes the deque that published
// the weight its consult declined for as prefer (-1 for none): that deque
// is probed first, so the targeted steal takes the urgent node instead of
// whatever a random victim happens to hold. Victims are subject to the
// same stranding consult as popLocal: a victim whose top is far below the
// published global best is passed over in favor of the urgent work, and
// only robbed anyway — progress beats priority — if the round finds
// nothing else takeable. Returns the best stolen node; the remainder lands
// on the thief's own deque.
func (d *wsDispatch) stealBatch(w int, rng *wsRand, prefer int) (dag.NodeID, bool) {
	n := len(d.deques)
	if n < 2 {
		return 0, false
	}
	// Probe the n-1 other deques starting at the preferred victim, then a
	// random one: index w is excluded by construction, so the round never
	// skips a victim (the preferred deque may be probed twice — one extra
	// uncontended lock).
	off := rng.intn(n - 1)
	declined := -1
	for i := -1; i < n-1; i++ {
		v := prefer
		if i >= 0 {
			v = (w + 1 + (off+i)%(n-1)) % n
		} else if v < 0 || v == w {
			continue
		}
		id, ok, stranded := d.stealFrom(w, v, false)
		if ok {
			return id, true
		}
		if stranded && declined < 0 {
			declined = v
		}
	}
	if declined >= 0 {
		id, ok, _ := d.stealFrom(w, declined, true)
		return id, ok
	}
	return 0, false
}

// stealFrom moves up to half of deque v's queue to thief w and returns the
// best stolen node. Unless force is set, a victim whose top weight is less
// than half the published global best is left alone (stranded=true) — the
// thief-side counterpart of popLocal's consult.
func (d *wsDispatch) stealFrom(w, v int, force bool) (id dag.NodeID, ok, stranded bool) {
	dq := &d.deques[v]
	dq.mu.Lock()
	if dq.h.Len() == 0 {
		dq.mu.Unlock()
		return 0, false, false
	}
	if !force {
		if tw := dq.h.weight[dq.h.ids[0]]; d.globalBest(w) > 2*tw {
			dq.mu.Unlock()
			return 0, false, true
		}
	}
	take := (dq.h.Len() + 1) / 2
	batch := make([]dag.NodeID, 0, take)
	for len(batch) < take {
		batch = append(batch, dq.h.pop())
	}
	d.publishTop(v, &dq.h)
	dq.mu.Unlock()
	d.steals.Add(int64(len(batch)))
	if len(batch) > 1 {
		own := &d.deques[w]
		own.mu.Lock()
		for _, id := range batch[1:] {
			own.h.push(id)
		}
		d.publishTop(w, &own.h)
		own.mu.Unlock()
		// Without this wake a worker that parked after the thief's probe
		// passed its deque would sleep through the stolen batch.
		d.wakeWaiters(len(batch) - 1)
	}
	return batch[0], true, false
}

// park registers the worker as idle and sleeps until a finisher signals.
// Between registering (waiters is visible to finishers from here on) and
// sleeping it rescans every queue under parkMu: a finisher that saw no
// waiters has already completed its local push, so the rescan finds that
// work; a finisher that saw the registration will take parkMu — serialized
// against this critical section — and signal. Either way no wakeup is
// lost. Returns a node if the rescan found one; (0, false) means the
// caller should re-evaluate (shutdown, cancellation, or a wake).
func (d *wsDispatch) park(w int) (dag.NodeID, bool) {
	d.parkMu.Lock()
	d.waiters.Add(1)
	if d.cancelled.Load() || d.remaining.Load() == 0 {
		d.waiters.Add(-1)
		d.parkMu.Unlock()
		return 0, false
	}
	if id, ok := d.scanLocked(w); ok {
		d.waiters.Add(-1)
		d.parkMu.Unlock()
		return id, true
	}
	d.parkCond.Wait()
	d.waiters.Add(-1)
	d.parkMu.Unlock()
	return 0, false
}

// scanLocked checks the overflow queue and every deque for work. Callers
// hold parkMu (lock order: parkMu, then one deque mutex at a time).
func (d *wsDispatch) scanLocked(w int) (dag.NodeID, bool) {
	if d.overflow.Len() > 0 {
		id := d.overflow.pop()
		d.publishOverflowLocked()
		return id, true
	}
	for i := 0; i < len(d.deques); i++ {
		v := (w + i) % len(d.deques)
		dq := &d.deques[v]
		dq.mu.Lock()
		if dq.h.Len() > 0 {
			id := dq.h.pop()
			d.publishTop(v, &dq.h)
			dq.mu.Unlock()
			if v != w {
				d.steals.Add(1)
			}
			return id, true
		}
		dq.mu.Unlock()
	}
	return 0, false
}
