package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dag"
	"repro/internal/opt"
)

// coldSizeUnit is the per-consumer byte estimate the live-bytes gauge
// charges a compute node whose serialized size has never been measured:
// estimate = coldSizeUnit × (1 + out-degree), via dag.StructuralCosts. The
// magnitude is a placeholder — what matters is that cold nodes are not
// charged zero, so first-iteration peaks are honest and the release win is
// visible before any size has been learned.
const coldSizeUnit = 1024

// runCtx is the per-Execute state the dispatcher runs nodes against: the
// immutable run inputs, the shared result accounting, the live-bytes
// bookkeeping and the background materialization writer. Everything
// dispatch-specific (the ready heap, counters, cancellation) lives in the
// dispatcher.
type runCtx struct {
	e     *Engine
	g     *dag.Graph
	tasks []Task
	plan  *opt.Plan
	res   *Result

	// ctx is the run's cancellation scope: derived from the caller's
	// context, cancelled by the first node error so in-flight operators
	// that honor their ctx are interrupted instead of waited out.
	ctx    context.Context
	cancel context.CancelFunc

	// stats is the run's fault accounting (lineage recomputes), shared
	// with the recovery path; pins holds the planned-load pins released as
	// loads complete (nil without a spill tier).
	stats *faultStats
	pins  *pinSet

	// vals and published are the run's lock-free value plane: each slot is written exactly once, by the worker that ran
	// the node, before the node's finish; readers (a node's consumers) are
	// dispatched only after that finish, so the dependency counters — an
	// atomic decrement the consumer's dispatch is ordered behind — carry
	// the happens-before edge and no lock is needed on the per-node happy
	// path. Release (the last consumer's finish) clears a slot under the
	// same ordering; the public Result.Values map is built once, single-
	// threaded, after the workers join.
	vals      []any
	published []bool

	// durs is the per-node load/compute duration in nanoseconds, written
	// atomically by the worker that ran the node. Unlike the value plane it
	// must be atomic, not merely ordered: the materialization writer's
	// ancestor-cost walk may read an ancestor's duration while that
	// ancestor is still running (a Load node cuts the dependency chain, so
	// a descendant's decision can overlap an ancestor's compute). The
	// public Result.Nodes[].Duration is filled in post-join.
	durs []atomic.Int64

	resMu sync.Mutex // guards writer-pipeline accounting on res.Nodes

	// liveSize records what each published value added to the engine's
	// live-bytes gauge, so release and the end-of-run settlement subtract
	// exactly that. Entries are written by the worker that ran the node
	// before its finish() and zeroed on release; the dispatcher's hand-off
	// of the node's children (an atomic counter) orders those accesses.
	// Nil when the gauge is disabled.
	liveSize []int64

	// coldSizes is the structural fallback estimate for compute nodes with
	// no measured size (see coldSizeUnit). Nil when the gauge is disabled.
	coldSizes []int64

	writer *matWriter // nil when materialization is disabled
}

// executeDataflow runs the plan with dependency-counting scheduling: no
// level barriers, a node is dispatched the instant its last parent
// finishes, and completed values go to the background materialization
// pipeline (flushed before return, also on error). Ready nodes dispatch
// critical-path-first, so the run's long pole is never left waiting behind
// cheap siblings.
func (e *Engine) executeDataflow(ctx context.Context, g *dag.Graph, tasks []Task, plan *opt.Plan, res *Result, stats *faultStats, pins *pinSet) (*Result, error) {
	// Dependency counting never drains a cyclic graph; reject it up front
	// with the same diagnostic the topological sort produces. The order is
	// reused for the critical-path weights below.
	order, err := g.Topo()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	runnable := func(id dag.NodeID) bool { return plan.States[id] != opt.Prune }
	rc := &runCtx{
		e: e, g: g, tasks: tasks, plan: plan, res: res,
		ctx: rctx, cancel: cancel,
		stats: stats, pins: pins,
		vals:      make([]any, g.Len()),
		published: make([]bool, g.Len()),
		durs:      make([]atomic.Int64, g.Len()),
	}
	// One structural pass serves both cold-cost consumers: the unit costs
	// feed the critical-path weights, the coldSizeUnit-scaled copy feeds
	// the gauge. The error path is unreachable (the units are positive
	// constants).
	structural, _ := g.StructuralCosts(1)
	weight, err := e.pathWeights(g, tasks, plan, order, structural)
	if err != nil {
		return nil, err
	}
	if e.LiveBytes != nil {
		rc.liveSize = make([]int64, g.Len())
		rc.coldSizes = make([]int64, g.Len())
		for i, s := range structural {
			rc.coldSizes[i] = coldSizeUnit * s
		}
	}
	// A compute node waits for every non-pruned parent. Load nodes read the
	// store, not their parents, so they are runnable immediately; a compute
	// node whose parents were all pruned is too, and fails input gathering
	// with a missing-parent error.
	pending := g.Indegrees(runnable)
	var consumers []int
	if e.ReleaseIntermediates {
		consumers = g.ConsumerCounts(func(c dag.NodeID) bool { return plan.States[c] == opt.Compute })
	}
	remaining := 0
	for i := 0; i < g.Len(); i++ {
		id := dag.NodeID(i)
		if plan.States[id] == opt.Load {
			pending[i] = 0
		}
		if runnable(id) {
			remaining++
		}
	}
	ready := g.ReadySet(pending, runnable)
	if e.Policy != nil && e.Store != nil {
		rc.writer = newMatWriter(rc)
	}
	errs := runDispatch(rc, weight, pending, consumers, remaining, ready)
	if rc.writer != nil {
		rc.writer.flush()
	}
	// Materialize the public value map and per-node durations from the
	// lock-free planes: everything published and not released. Workers
	// have joined and the writer pipeline is flushed, so this is
	// single-threaded.
	for i, ok := range rc.published {
		if ok {
			res.Values[dag.NodeID(i)] = rc.vals[i]
		}
	}
	for i := range rc.durs {
		if d := rc.durs[i].Load(); d > 0 {
			res.Nodes[i].Duration = time.Duration(d)
		}
	}
	if e.LiveBytes != nil {
		// Values still retained (outputs, and everything else when release
		// is off) stop being execution-live once the run is over; settle
		// them so Live returns to its pre-run level while Peak keeps the
		// high-water mark.
		var rest int64
		for _, n := range rc.liveSize {
			rest += n
		}
		e.LiveBytes.Sub(rest)
	}
	res.Wall = time.Since(start)
	if len(errs) > 0 {
		return res, errors.Join(dropCollateralCancels(errs)...)
	}
	return res, nil
}

// applyRelease clears released value slots and settles their live-bytes
// charge. Each node appears in exactly one release list (the reference
// counts guarantee a single zero-crossing) and all of its consumers have
// finished, so the slot write is unobserved and needs no lock.
func (rc *runCtx) applyRelease(release []dag.NodeID) {
	if len(release) == 0 {
		return
	}
	for _, p := range release {
		rc.vals[p] = nil
		rc.published[p] = false
	}
	if rc.liveSize != nil {
		for _, p := range release {
			rc.e.LiveBytes.Sub(rc.liveSize[p])
			rc.liveSize[p] = 0
		}
	}
}

// runNode loads or computes one node. Computed values are published (to the
// node's lock-free slot) before the materialization hand-off, so consumers
// never wait on a write.
func (rc *runCtx) runNode(id dag.NodeID) error {
	e, g := rc.e, rc.g
	name := g.Node(id).Name
	nodeStart := time.Now()
	switch rc.plan.States[id] {
	case opt.Load:
		if e.Store == nil {
			return fmt.Errorf("exec: plan loads %s but engine has no store", name)
		}
		v, _, err := e.tiers().Get(rc.tasks[id].Key)
		if err != nil {
			// A failed load — corrupt frame, read I/O error, vanished
			// entry — degrades to a lineage recompute, local to this
			// worker (see recomputer).
			rec := &recomputer{e: e, g: g, tasks: rc.tasks, stats: rc.stats, writer: rc.writer}
			if v, err = rec.recoverLoad(rc.ctx, id, err); err != nil {
				return fmt.Errorf("exec: load %s: %w", name, err)
			}
		}
		rc.pins.release(id)
		rc.vals[id] = v
		rc.published[id] = true
		rc.durs[id].Store(time.Since(nodeStart).Nanoseconds())
		rc.noteLive(id)
		return nil

	case opt.Compute:
		key := rc.tasks[id].Key
		role, served, ferr := e.joinFlight(rc.ctx, key, rc.stats)
		if ferr != nil {
			return fmt.Errorf("exec: compute %s: %w", name, ferr)
		}
		if role == flightServed {
			rc.vals[id] = served
			rc.published[id] = true
			rc.durs[id].Store(time.Since(nodeStart).Nanoseconds())
			rc.noteLive(id)
			rc.resMu.Lock()
			rc.res.Nodes[id].InflightHit = true
			rc.resMu.Unlock()
			return nil
		}
		lead := role == flightLead
		inputs, err := rc.gather(id)
		if err != nil {
			e.finishFlight(lead, key, nil, err)
			return err
		}
		if rc.tasks[id].Run == nil {
			e.finishFlight(lead, key, nil, fmt.Errorf("exec: node %s has no Run function", name))
			return fmt.Errorf("exec: node %s has no Run function", name)
		}
		v, err := rc.tasks[id].Run(rc.ctx, inputs)
		if err != nil {
			e.finishFlight(lead, key, nil, err)
			return fmt.Errorf("exec: compute %s: %w", name, err)
		}
		computeDur := time.Since(nodeStart)
		if e.History != nil {
			e.History.ObserveCompute(name, computeDur, 0)
		}
		rc.vals[id] = v
		rc.published[id] = true
		rc.durs[id].Store(computeDur.Nanoseconds())
		rc.noteLive(id)
		if rc.writer != nil && rc.writer.submit(id, name, key, v, computeDur, lead) {
			// The writer owns the flight now: FinishCompute fires after the
			// publish decision lands, so parked waiters that probe the store
			// see the bytes (flush drains the pipeline even on error paths).
			return nil
		}
		e.finishFlight(lead, key, v, nil)
		return nil

	default:
		return fmt.Errorf("exec: runNode called on pruned node %s", name)
	}
}

// gather snapshots the parents' values in g.Parents order from their
// lock-free slots (every parent finished before this node was dispatched),
// erroring on any parent without a value (a pruned producer the plan
// should not have allowed).
func (rc *runCtx) gather(id dag.NodeID) ([]any, error) {
	parents := rc.g.Parents(id)
	if len(parents) == 0 {
		return nil, nil
	}
	inputs := make([]any, len(parents))
	for i, p := range parents {
		if !rc.published[p] {
			return nil, fmt.Errorf("exec: %s needs parent %s which has no value", rc.g.Node(id).Name, rc.g.Node(p).Name)
		}
		inputs[i] = rc.vals[p]
	}
	return inputs, nil
}

// pathWeights builds the critical-path dispatch weights for one run: each
// node's cost estimate is its best-known history compute time (compute
// nodes) or store load estimate (load nodes), with never-measured nodes
// charged a structural floor (unit cost scaled by out-degree, per
// dag.StructuralCosts) so a cold run still orders by how much downstream
// work each node gates; dag.CriticalPath then turns the costs into
// heaviest-downstream-path weights. Pruned nodes cost 0; weight flowing
// through a pruned node toward a load descendant slightly overstates its
// ancestors, which is harmless for an ordering heuristic (pruned nodes
// themselves never enter a ready queue). The weights are computed once per
// run and never change while it executes. order must be a valid
// topological order of g (from g.Topo), so the only error is an internal
// invariant violation.
func (e *Engine) pathWeights(g *dag.Graph, tasks []Task, plan *opt.Plan, order []dag.NodeID, structural []int64) ([]int64, error) {
	cost := make([]int64, g.Len())
	for i := range cost {
		id := dag.NodeID(i)
		switch plan.States[id] {
		case opt.Compute:
			cost[i] = structural[i]
			if e.History != nil {
				if d, ok := e.History.Compute(g.Node(id).Name); ok && d > 0 {
					cost[i] = d.Nanoseconds()
				}
			}
		case opt.Load:
			cost[i] = structural[i]
			if e.Store != nil && tasks[i].Key != "" {
				if entry, _, ok := e.tiers().Lookup(tasks[i].Key); ok && entry.LoadCost > 0 {
					cost[i] = entry.LoadCost.Nanoseconds()
				}
			}
		}
	}
	w, err := g.CriticalPathOrdered(cost, order)
	if err != nil {
		return nil, fmt.Errorf("exec: critical-path weights over a topological order: %w", err)
	}
	return w, nil
}

// noteLive charges id's freshly published value to the engine's live-bytes
// gauge, remembering the amount so release and the end-of-run settlement
// subtract exactly what was added. Loads are charged their exact stored
// size; computes the history estimate, falling back to the structural
// cold-node floor (coldSizeUnit × (1 + out-degree)) until the node's size
// has been learned from a materialization probe.
func (rc *runCtx) noteLive(id dag.NodeID) {
	if rc.liveSize == nil {
		return
	}
	var est int64
	if rc.plan.States[id] == opt.Load {
		if entry, _, ok := rc.e.tiers().Lookup(rc.tasks[id].Key); ok {
			est = entry.Size
		}
	} else if s, ok := rc.e.historySize(rc.g.Node(id).Name); ok {
		est = s
	} else {
		est = rc.coldSizes[id]
	}
	rc.liveSize[id] = est
	rc.e.LiveBytes.Add(est)
}

// nodeHeap is the dispatcher's shared priority queue of ready nodes: the
// largest critical-path weight dispatches first and ties break on the
// smaller ID, matching the deterministic tie-break of dag.Topo, so
// single-worker runs are a pure function of the graph.
//
// The heap is hand-rolled rather than container/heap: push and pop sit on
// the per-node dispatch path, and the interface-based API boxes every
// NodeID into an allocation (runtime.convT64) plus dynamic dispatch per
// sift step — measurable churn at fine-grained-node scale.
type nodeHeap struct {
	ids    []dag.NodeID
	weight []int64 // the run's critical-path priorities, indexed by node ID
}

func (h *nodeHeap) Len() int { return len(h.ids) }

// push adds id, restoring the heap invariant (sift up).
func (h *nodeHeap) push(id dag.NodeID) {
	h.ids = append(h.ids, id)
	ids, w := h.ids, h.weight
	i := len(ids) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !nodeBefore(w, ids[i], ids[parent]) {
			break
		}
		ids[i], ids[parent] = ids[parent], ids[i]
		i = parent
	}
}

// pop removes and returns the highest-priority node, restoring the heap
// invariant (sift down). The heap must be non-empty.
func (h *nodeHeap) pop() dag.NodeID {
	ids, w := h.ids, h.weight
	top := ids[0]
	n := len(ids) - 1
	ids[0] = ids[n]
	ids = ids[:n]
	h.ids = ids
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		best := l
		if r := l + 1; r < n && nodeBefore(w, ids[r], ids[l]) {
			best = r
		}
		if !nodeBefore(w, ids[best], ids[i]) {
			break
		}
		ids[i], ids[best] = ids[best], ids[i]
		i = best
	}
	return top
}

// nodeBefore reports whether a dispatches before b: larger critical-path
// weight first, then smaller ID.
func nodeBefore(weight []int64, a, b dag.NodeID) bool {
	if weight[a] != weight[b] {
		return weight[a] > weight[b]
	}
	return a < b
}
