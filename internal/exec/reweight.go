package exec

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/dag"
)

// Reweight selects whether the scheduler re-prioritizes the remaining DAG
// mid-run as measured durations diverge from the estimates the initial
// critical-path weights were built from.
type Reweight int

const (
	// Adaptive re-computes downstream-path weights over the unfinished
	// subgraph whenever the cumulative measured-vs-estimated divergence of
	// completed nodes crosses a threshold (with a minimum completion count
	// between passes), and re-sorts every ready queue under an epoch fence.
	// The zero value, and the default.
	Adaptive Reweight = iota
	// ReweightOff keeps the weights computed once at the top of Execute for
	// the whole run — the PR-3 behaviour, retained for A/B benchmarks.
	ReweightOff
)

func (r Reweight) String() string {
	switch r {
	case Adaptive:
		return "adaptive"
	case ReweightOff:
		return "off"
	default:
		return fmt.Sprintf("Reweight(%d)", int(r))
	}
}

// Defaults for the re-prioritization trigger. The divergence floor keeps
// passes away from runs whose estimates are wrong only at noise scale
// (microseconds of error on millisecond estimates never reorders anything
// useful); the relative factor demands the error actually dominate the
// estimates; the interval bounds pass frequency on fine-grained DAGs, and
// scales with graph size so a 4k-node run does not pay a pass per handful
// of completions.
const (
	reweightDefaultInterval = 8
	reweightIntervalDivisor = 32
	reweightDefaultMinDiv   = int64(time.Millisecond)
	// reweightCostCeiling clamps corrected per-node cost estimates (ns) so
	// a pathological measured/estimated ratio cannot overflow the weight
	// accumulation downstream (~16 minutes per node is beyond any real
	// operator this engine schedules).
	reweightCostCeiling = int64(1) << 40
)

// reweighter is the online re-prioritization state of one Execute:
// workers feed it measured durations from the lock-free duration plane as
// nodes finish, and when the accumulated divergence against the estimates
// crosses the trigger it recomputes the critical-path weights of the
// not-yet-dispatched subgraph and publishes them under an epoch fence (see
// docs/scheduler.md). All hot-path state is atomic — observe runs once per
// node completion on whichever worker finished it.
type reweighter struct {
	rc    *runCtx
	order []dag.NodeID // the engine's topo order, reused by every pass

	// started marks nodes that have begun running (set in runNode before
	// the operator executes). A pass recomputes weights only for nodes not
	// yet started: everything else is out of every ready queue already, so
	// its weight can no longer influence dispatch.
	started []atomic.Bool

	// cost is the current per-node cost estimate in nanoseconds, seeded
	// from the same history/structural estimates the initial weights used
	// and corrected by passes. Entries are atomic because observe reads a
	// node's estimate at its finish while a pass may be correcting
	// not-yet-started neighbours (and, in a narrow race, the node itself if
	// it started mid-pass).
	cost []atomic.Int64

	// opOf maps each node to its operator-type group; opMeas/opEst
	// accumulate measured and estimated nanoseconds of *finished* nodes per
	// group. The correction a pass applies to a pending node is its group's
	// measured/estimated ratio — per-node measurements cannot exist for
	// nodes that have not run, but nodes of the same operator type
	// mis-estimate together (the LiarDAG shape is exactly this). Like the
	// trigger window below, the sums are reset by each pass: every
	// observation's estimate term is the node's cost at its finish, so a
	// window's ratio measures the error of the *current* (already-
	// corrected) estimates and the multiplicative update converges instead
	// of re-applying stale lifetime error to corrected costs on every pass.
	opOf   []int32
	opMeas []atomic.Int64
	opEst  []atomic.Int64

	// Trigger window, reset by each pass: completions observed, cumulative
	// |measured − estimated|, and cumulative estimates of those completions.
	done    atomic.Int32
	div     atomic.Int64
	estDone atomic.Int64

	minDone int32 // completions required between passes
	minDiv  int64 // absolute divergence floor (ns)

	passing atomic.Bool  // one pass at a time; losers skip, never wait
	passes  atomic.Int64 // total passes this run (Result.Reweights)

	// weights is the current priority slice, epoch its version. Publish
	// order matters: a pass stores the new slice before bumping the epoch,
	// so a reader that sees the new epoch is guaranteed the new weights
	// (seeing newer weights under an old epoch merely re-sorts once more).
	weights atomic.Pointer[[]int64]
	epoch   atomic.Uint64

	// resort is the dispatcher's eager sweep: re-sort every ready queue
	// with the just-published weights. Queues missed by the sweep (or
	// pushed to with a stale slice afterwards) catch up lazily through
	// fix() on their next locked access.
	resort func()
}

// newReweighter builds the re-prioritization state for one run. weight is
// the initial critical-path slice (adopted as epoch 0); cost the estimates
// it was computed from.
func newReweighter(rc *runCtx, order []dag.NodeID, cost, weight []int64) *reweighter {
	g := rc.g
	n := g.Len()
	rw := &reweighter{
		rc:      rc,
		order:   order,
		started: make([]atomic.Bool, n),
		cost:    make([]atomic.Int64, n),
		opOf:    make([]int32, n),
		minDone: rc.e.reweightInterval(n),
		minDiv:  rc.e.reweightMinDivergence(),
	}
	for i, c := range cost {
		rw.cost[i].Store(c)
	}
	groups := make(map[string]int32)
	for i := 0; i < n; i++ {
		op := g.Node(dag.NodeID(i)).Op
		gi, ok := groups[op]
		if !ok {
			gi = int32(len(groups))
			groups[op] = gi
		}
		rw.opOf[i] = gi
	}
	rw.opMeas = make([]atomic.Int64, len(groups))
	rw.opEst = make([]atomic.Int64, len(groups))
	rw.weights.Store(&weight)
	return rw
}

// reweightInterval resolves the minimum completion count between passes:
// the engine's explicit setting, else a default that grows with graph size.
func (e *Engine) reweightInterval(nodes int) int32 {
	if e.ReweightInterval > 0 {
		return int32(e.ReweightInterval)
	}
	min := nodes / reweightIntervalDivisor
	if min < reweightDefaultInterval {
		min = reweightDefaultInterval
	}
	return int32(min)
}

// reweightMinDivergence resolves the absolute divergence floor.
func (e *Engine) reweightMinDivergence() int64 {
	if e.ReweightMinDivergence > 0 {
		return e.ReweightMinDivergence.Nanoseconds()
	}
	return reweightDefaultMinDiv
}

// current returns the live weight slice and its epoch for heap fixing.
func (rw *reweighter) current() ([]int64, uint64) {
	// Epoch before weights: if a pass publishes in between, the caller
	// re-sorts with the new weights but records the old epoch and simply
	// fixes again on its next access — never the reverse (new epoch with
	// old weights would wedge a queue on stale priorities until the pass
	// after next).
	e := rw.epoch.Load()
	return *rw.weights.Load(), e
}

// fix re-sorts one ready queue if a pass has published since the queue was
// last sorted. Callers hold the lock guarding h; the re-heapify is the
// entire cost of the epoch fence on the dispatch path, and it is O(1) — an
// epoch compare — while no pass has intervened.
func (rw *reweighter) fix(h *nodeHeap) {
	w, e := rw.current()
	if h.epoch == e {
		return
	}
	h.weight = w
	h.epoch = e
	h.heapify()
}

// markStarted records that a node has begun running (and is therefore out
// of every ready queue: passes stop touching its weight).
func (rw *reweighter) markStarted(id dag.NodeID) {
	rw.started[int(id)].Store(true)
}

// observe feeds one finished node's measured duration (ns) into the trigger
// window and its operator group. Called once per completed node by the
// worker that ran it; everything it touches is atomic.
func (rw *reweighter) observe(id dag.NodeID, measured int64) {
	est := rw.cost[int(id)].Load()
	d := measured - est
	if d < 0 {
		d = -d
	}
	rw.div.Add(d)
	rw.estDone.Add(est)
	op := rw.opOf[int(id)]
	rw.opMeas[op].Add(measured)
	rw.opEst[op].Add(est)
	rw.done.Add(1)
}

// shouldPass reports whether the trigger window justifies a pass: enough
// completions since the last one, divergence above the absolute floor, and
// divergence at least half the estimates it accumulated against (a run
// whose estimates are broadly right never pays a single pass).
func (rw *reweighter) shouldPass() bool {
	if rw.done.Load() < rw.minDone {
		return false
	}
	div := rw.div.Load()
	return div >= rw.minDiv && 2*div >= rw.estDone.Load()
}

// maybePass runs a re-prioritization pass if the trigger fires and no other
// worker is already in one. Losers of the CAS skip — the winner's pass
// serves them — so the dispatch path never blocks on re-weighting.
func (rw *reweighter) maybePass() {
	if !rw.shouldPass() || !rw.passing.CompareAndSwap(false, true) {
		return
	}
	defer rw.passing.Store(false)
	if !rw.shouldPass() { // re-check: a concurrent pass may have just reset the window
		return
	}
	rw.pass()
}

// pass is one re-prioritization: correct the cost estimates of every
// not-yet-started node by its operator group's measured/estimated ratio,
// recompute downstream-path weights over that unfinished subgraph
// (dag.CriticalPathFrom, reusing the run's topo order), publish the new
// slice under the epoch fence, and eagerly re-sort the ready queues.
func (rw *reweighter) pass() {
	// Reset the window first: completions landing during the pass count
	// toward the next trigger instead of being lost.
	rw.done.Store(0)
	rw.div.Store(0)
	rw.estDone.Store(0)

	g := rw.rc.g
	n := g.Len()
	// Snapshot and reset the per-group sums: this pass consumes exactly the
	// window's observations (Swap, so a completion racing the pass lands in
	// the next window, never in both). A group with no observations this
	// window keeps ratio 0 and its costs untouched.
	ratio := make([]float64, len(rw.opMeas))
	for i := range ratio {
		meas, est := rw.opMeas[i].Swap(0), rw.opEst[i].Swap(0)
		if meas > 0 && est > 0 {
			ratio[i] = float64(meas) / float64(est)
		}
	}
	cost := make([]int64, n)
	skip := func(id dag.NodeID) bool { return rw.started[int(id)].Load() }
	for i := 0; i < n; i++ {
		c := rw.cost[i].Load()
		if !skip(dag.NodeID(i)) {
			if r := ratio[rw.opOf[i]]; r > 0 {
				nc := float64(c) * r
				switch {
				case nc > float64(reweightCostCeiling):
					c = reweightCostCeiling
				case nc < 1:
					c = 1
				default:
					c = int64(nc)
				}
				rw.cost[i].Store(c)
			}
		}
		cost[i] = c
	}
	prev := *rw.weights.Load()
	w, err := g.CriticalPathFrom(cost, rw.order, skip, prev)
	if err != nil {
		return // unreachable: the slices are sized by construction
	}
	rw.weights.Store(&w)
	rw.epoch.Add(1)
	rw.passes.Add(1)
	if rw.resort != nil {
		rw.resort()
	}
}
