// Package exec is HELIX's execution engine (§2.3): it runs a physical plan
// (a per-node {load, compute, prune} assignment) over a workflow DAG,
// measures per-node runtimes and sizes, and makes online materialization
// decisions through a pluggable policy the moment each result becomes
// available.
//
// Scheduling is dependency-counting dataflow: every non-pruned node carries
// a pending-parent counter, a node becomes runnable the instant its last
// parent finishes, and a fixed worker pool drains the ready set until the
// slice completes or the first error cancels all not-yet-dispatched work.
// There are no level barriers, so a straggler delays only its own
// descendants, never unrelated branches. Ready nodes wait in one shared
// priority heap ordered by critical-path weight (each node's heaviest
// downstream cost path, per dag.CriticalPath over the engine's history and
// store estimates), so the run's long pole starts as early as a worker
// frees up. A finishing worker runs its highest-priority newly-ready child
// directly and pushes only the rest, so a dependency chain takes no lock;
// see docs/scheduler.md.
// Materialization runs off the critical path: each completed value is
// handed to a pool of two background writers that decide, encode and
// persist it while downstream consumers are already executing;
// NodeRun.MatDuration records the real write cost, and Execute flushes the
// pipeline — also on error — before returning. Each materialized value is
// encoded exactly once: the size probe for the policy decision is the
// same (pooled) encoding that Store.PutEncoded persists. With a spill tier
// configured (Engine.Spill, a framed store from store.OpenSpill, composed
// with Store by store.Tiered), a hot-budget rejection admits that encoding
// to the cold tier instead of dropping it, and loads fall back to cold,
// where a spilled value stays (see docs/store.md) — still without ever
// re-encoding.
//
// The paper executes on Spark; here nodes run on goroutines and the
// materialization store is local disk. All costs the optimizers consume
// (compute nanoseconds, load nanoseconds, serialized bytes) are measured,
// not modeled.
package exec

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/dag"
	"repro/internal/opt"
	"repro/internal/store"
)

// Task binds a DAG node to its executable operator and store key. Tasks are
// indexed by node ID: tasks[i] drives node i.
type Task struct {
	// Key is the node's result signature — its content address in the store.
	Key string
	// Run computes the node's value from its parents' values (ordered as
	// g.Parents). Must be safe to call from any goroutine. ctx carries the
	// run's cancellation and the fault policy's per-node deadline:
	// long-running operators should honor it (check ctx.Err() in loops,
	// select on ctx.Done() around sleeps) so first-error cancellation and
	// deadlines interrupt them instead of waiting them out. Errors wrapping
	// ErrTransient are retried per Engine.Faults.
	Run func(ctx context.Context, inputs []any) (any, error)
}

// NodeRun records what happened to one node during an Execute call.
type NodeRun struct {
	Name  string
	State opt.State
	// Duration is the node's critical-path time as seen by its consumers:
	// the load or compute time. It never includes MatDuration.
	Duration time.Duration
	// Size is the serialized size, known only if the engine encoded the
	// value (for a materialization decision).
	Size int64
	// Materialized reports whether the result was persisted this run.
	Materialized bool
	// MatReward is the online heuristic's r_i (always 0 under
	// MaterializeAll, which decides on budget alone).
	MatReward int64
	// MatDuration is the measured time spent on the materialization
	// decision, serialization and write. This work happens on a background
	// writer: it neither extends Duration nor delays consumers, but it is
	// still real, measured cost.
	MatDuration time.Duration
	// InflightHit reports that this compute-planned node never ran its
	// operator: a concurrent in-flight computation of the same signature
	// (Engine.SingleFlight) served the value instead — the leader's value
	// taken through the registry, or the store's published bytes for a
	// flight that had just resolved.
	InflightHit bool
}

// Result is the outcome of one Execute call (one workflow iteration).
type Result struct {
	// Values holds every non-pruned node's value — unless the engine ran
	// with ReleaseIntermediates, which drops a non-output value once its
	// last consumer has run.
	Values map[dag.NodeID]any
	// Nodes is per-node accounting, indexed by node ID.
	Nodes []NodeRun
	// Wall is the end-to-end latency of the iteration, including the flush
	// of the background materialization pipeline.
	Wall time.Duration
	// Counters is this run's execution-counter block (spills, retries,
	// encodes, ...); every count is a delta over this one Execute call. See
	// Counters for per-field semantics.
	Counters
}

// Value returns the value of the named node, if present.
func (r *Result) Value(g *dag.Graph, name string) (any, bool) {
	id := g.Lookup(name)
	if id == dag.InvalidNode {
		return nil, false
	}
	v, ok := r.Values[id]
	return v, ok
}

// History accumulates per-node runtime statistics across iterations
// ("runtime statistics from the current and prior executions", §2.3),
// keyed by node name. Safe for concurrent use.
type History struct {
	mu      sync.Mutex
	compute map[string]time.Duration
	size    map[string]int64
}

// NewHistory returns an empty history.
func NewHistory() *History {
	return &History{compute: make(map[string]time.Duration), size: make(map[string]int64)}
}

// ObserveCompute records a measured compute duration and size for a node.
func (h *History) ObserveCompute(name string, d time.Duration, size int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.compute[name] = d
	if size > 0 {
		h.size[name] = size
	}
}

// ObserveSize records a measured serialized size for a node. The async
// materialization writer learns sizes after the compute observation has
// already been made.
func (h *History) ObserveSize(name string, size int64) {
	if size <= 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.size[name] = size
}

// Compute returns the last observed compute duration for name.
func (h *History) Compute(name string) (time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, ok := h.compute[name]
	return d, ok
}

// ComputeMany returns the last observed compute durations for names under a
// single lock acquisition; never-seen names yield zero. The materialization
// path uses it so a cost snapshot is O(ancestors) work without O(ancestors)
// lock round-trips.
func (h *History) ComputeMany(names []string) []time.Duration {
	if len(names) == 0 {
		return nil
	}
	out := make([]time.Duration, len(names))
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, n := range names {
		out[i] = h.compute[n]
	}
	return out
}

// Size returns the last observed serialized size for name.
func (h *History) Size(name string) (int64, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.size[name]
	return s, ok
}

// historySnapshot is the JSON persistence format for History.
type historySnapshot struct {
	ComputeNanos map[string]int64 `json:"compute_nanos"`
	SizeBytes    map[string]int64 `json:"size_bytes"`
}

// Save writes the statistics to path so a future session can warm-start
// ("runtime statistics from the current and prior executions", §2.3).
func (h *History) Save(path string) error {
	h.mu.Lock()
	snap := historySnapshot{
		ComputeNanos: make(map[string]int64, len(h.compute)),
		SizeBytes:    make(map[string]int64, len(h.size)),
	}
	for k, v := range h.compute {
		snap.ComputeNanos[k] = v.Nanoseconds()
	}
	for k, v := range h.size {
		snap.SizeBytes[k] = v
	}
	h.mu.Unlock()
	raw, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("exec: marshal history: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return fmt.Errorf("exec: write history: %w", err)
	}
	return os.Rename(tmp, path)
}

// Load merges previously saved statistics into the history. A missing file
// is not an error (first session); a corrupt file is.
func (h *History) Load(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("exec: read history: %w", err)
	}
	var snap historySnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("exec: parse history %s: %w", path, err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for k, v := range snap.ComputeNanos {
		h.compute[k] = time.Duration(v)
	}
	for k, v := range snap.SizeBytes {
		h.size[k] = v
	}
	return nil
}

// Strategy is an inert placeholder: Execute has one scheduler.
//
// Deprecated: kept only so existing field assignments compile.
type Strategy struct{}

// Ordering is an inert placeholder: ready nodes are always ordered by
// critical-path weight.
//
// Deprecated: kept only so existing field assignments compile.
type Ordering struct{}

// DispatchMode is an inert placeholder: Execute has one dispatcher.
//
// Deprecated: kept only so existing field assignments compile.
type DispatchMode struct{}

// Reweight is an inert placeholder: ready nodes are ordered by the
// critical-path weights computed once at the top of each run, which never
// change while it executes.
//
// Deprecated: kept only so existing field assignments compile.
type Reweight struct{}

// Engine executes plans. Configure once, reuse across iterations.
type Engine struct {
	// Store is the materialization store — the hot tier when Spill is also
	// set; nil disables loads and stores.
	Store *store.Store
	// Spill is the optional cold second-tier store, opened with
	// store.OpenSpill: values the hot tier's budget rejects are admitted
	// here instead of being dropped (evicting the tier's cheapest-to-lose
	// entries to make room), and loads fall back to it. A cold hit is
	// served from the cold tier; nothing moves between tiers. Nil disables
	// tiering; ignored without Store.
	Spill *store.Store
	// Policy decides online materialization; nil means never materialize
	// (the helix-unopt and keystoneml setting): the writer pool never
	// starts and no value is encoded.
	Policy opt.MatPolicy
	// Workers bounds node-level parallelism; <=0 means 4.
	Workers int
	// History receives compute-time observations and supplies estimates for
	// nodes not computed this run; nil disables both.
	History *History
	// Sched is ignored.
	//
	// Deprecated: see Strategy.
	Sched Strategy
	// Order is ignored.
	//
	// Deprecated: see Ordering.
	Order Ordering
	// Dispatch is ignored.
	//
	// Deprecated: see DispatchMode.
	Dispatch DispatchMode
	// Faults is the engine's fault-tolerance policy: per-node attempt
	// budget with exponential backoff for transient operator failures, and
	// an optional per-attempt deadline. The zero value disables both (one
	// attempt, no deadline). Applies to every node run and to lineage
	// recomputes after failed loads.
	Faults FaultPolicy
	// Reweight is ignored: the dispatch weights are computed once per run.
	//
	// Deprecated: see the Reweight type.
	Reweight Reweight
	// ReleaseIntermediates drops a non-output node's value from
	// Result.Values once its last consumer has run, cutting peak memory on
	// wide DAGs. Off by default, so Result.Values holds every non-pruned
	// node's value.
	ReleaseIntermediates bool
	// Codec is ignored: every materialization uses the store's one value
	// format.
	//
	// Deprecated: see store.Codec.
	Codec store.Codec
	// Tenant labels every value this engine materializes with an owner
	// (store.Entry.Owner) for per-tenant budget accounting in a shared
	// store. Empty (the default) leaves entries unowned — the single-user
	// CLI behaviour.
	Tenant string
	// SingleFlight consults the shared store's in-flight computation
	// registry before every compute-planned node: one leader computes each
	// signature, concurrent runs of the same signature park and are served
	// the published result (see joinFlight). Off by default — engines that
	// must recompute by contract (reuse-disabled comparator systems) and
	// private single-session stores keep the historical behaviour; the
	// serve layer's shared reuse-enabled sessions turn it on.
	SingleFlight bool
	// LiveBytes, when non-nil, tracks the serialized-size estimate of the
	// values held in Result.Values while an Execute runs: sizes are
	// added as values are published (exact entry sizes for loads, history
	// estimates for computes — 0 until a node's size has been learned) and
	// subtracted on release and at the end of the run, so Gauge.Peak is the
	// run's high-water mark of in-memory intermediates.
	LiveBytes *store.Gauge

	// tierView is the engine's tiered view over Store and Spill, built
	// lazily (CAS-guarded, so any caller — including a TierCounters racing
	// the first Execute — converges on one shared view and its counters).
	tierView atomic.Pointer[store.Tiered]

	// binaryEncs counts this engine's materialization encodes. Engine-local
	// (not the store package's process-wide counter) so concurrent engines
	// in one process cannot misattribute each other's encodes in Result.
	binaryEncs atomic.Int64
	// unregistered counts this engine's values the codec had no encoder
	// for, per materialization encode attempt.
	unregistered atomic.Int64
}

// UseTiers injects a pre-built (typically shared) tiered store view: the
// engine's Store and Spill are re-pointed at the view's tiers and every
// tiered operation — admissions, cold reads, pinning, counters — goes
// through the one instance. This is how concurrent sessions share a store
// safely: cold admissions serialize on the Tiered's own lock, so two
// sessions over the same directories MUST share one Tiered rather than
// build private views. Call before the first Execute; it must not race an
// in-flight run.
func (e *Engine) UseTiers(t *store.Tiered) {
	e.Store = t.Hot()
	e.Spill = t.Cold()
	e.tierView.Store(t)
}

// tiers returns the engine's tiered store view, building it on first use.
// Safe for concurrent use: the construction races on a compare-and-swap,
// every loser adopts the winner's view, and counters only ever accumulate
// on that single shared instance.
func (e *Engine) tiers() *store.Tiered {
	if t := e.tierView.Load(); t != nil {
		return t
	}
	t := store.NewTiered(e.Store, e.Spill)
	if e.tierView.CompareAndSwap(nil, t) {
		return t
	}
	return e.tierView.Load()
}

// TierCounters snapshots the engine's cumulative tier traffic (spills,
// cold evictions, cold reads) across every Execute so far. Counters
// are all zero without a Spill tier.
func (e *Engine) TierCounters() store.TierCounters {
	if e.Store == nil {
		return store.TierCounters{}
	}
	return e.tiers().Counters()
}

func (e *Engine) workers() int {
	if e.Workers <= 0 {
		return 4
	}
	return e.Workers
}

// BuildCostModel assembles the recomputation optimizer's inputs for the
// graph: compute costs from history (0 for never-seen nodes — optimistic,
// so new operators are computed, never awaited from a store they are not
// in), and load costs from the store's measured entries. With a spill tier
// attached a key is loadable from either tier, priced at the holding
// tier's own load estimate — a spilled value really is slower to load, and
// the optimizer should sometimes prefer recomputing it.
//
// With a spill tier attached, building the model also refreshes each
// loadable entry's recompute-saving eviction hint from the same history
// costs (compute + ancestor closure), so entries adopted from disk or
// carried across iterations rank honestly in the cold tier's reward-aware
// eviction even though no decideAndPersist stamped them this run.
func (e *Engine) BuildCostModel(g *dag.Graph, tasks []Task) (*opt.CostModel, error) {
	if len(tasks) != g.Len() {
		return nil, fmt.Errorf("exec: %d tasks for %d nodes", len(tasks), g.Len())
	}
	cm := opt.NewCostModel(g.Len())
	loadable := make([]dag.NodeID, 0)
	for i := 0; i < g.Len(); i++ {
		name := g.Node(dag.NodeID(i)).Name
		if e.History != nil {
			if d, ok := e.History.Compute(name); ok {
				cm.Compute[i] = d.Nanoseconds()
			}
		}
		if e.Store != nil && tasks[i].Key != "" {
			if entry, _, ok := e.tiers().Lookup(tasks[i].Key); ok {
				cm.Loadable[i] = true
				cm.Load[i] = entry.LoadCost.Nanoseconds()
				if cm.Load[i] <= 0 {
					cm.Load[i] = 1 // loads are never free
				}
				loadable = append(loadable, dag.NodeID(i))
			}
		}
	}
	if e.Spill != nil && len(loadable) > 0 {
		if anc, err := opt.AncestorComputeCosts(g, cm.Compute); err == nil {
			tv := e.tiers()
			for _, id := range loadable {
				tv.SetHint(tasks[id].Key, store.RewardHint{RecomputeNanos: cm.Compute[id] + anc[id]})
			}
		}
	}
	return cm, nil
}

// Execute runs the plan over the graph. The first node error cancels all
// not-yet-dispatched work (and, through the run context, interrupts
// in-flight operators that honor their ctx); errors from nodes already in
// flight are collected and joined. The
// returned Result is complete for every node that ran, and the background
// materialization pipeline is flushed — also on error — before Execute
// returns.
func (e *Engine) Execute(g *dag.Graph, tasks []Task, plan *opt.Plan) (*Result, error) {
	return e.ExecuteCtx(context.Background(), g, tasks, plan)
}

// ExecuteCtx is Execute under a caller-supplied context: cancelling ctx
// cancels the run the same way a fatal node error does. The fault policy's
// per-node deadlines nest under it.
func (e *Engine) ExecuteCtx(ctx context.Context, g *dag.Graph, tasks []Task, plan *opt.Plan) (*Result, error) {
	if len(tasks) != g.Len() {
		return nil, fmt.Errorf("exec: %d tasks for %d nodes", len(tasks), g.Len())
	}
	if len(plan.States) != g.Len() {
		return nil, fmt.Errorf("exec: plan has %d states for %d nodes", len(plan.States), g.Len())
	}
	res := &Result{
		Values: make(map[dag.NodeID]any, g.Len()),
		Nodes:  make([]NodeRun, g.Len()),
	}
	for i := 0; i < g.Len(); i++ {
		res.Nodes[i] = NodeRun{Name: g.Node(dag.NodeID(i)).Name, State: plan.States[i]}
	}
	var before store.TierCounters
	if e.Store != nil {
		before = e.tiers().Counters()
	}
	binBefore, unregBefore := e.binaryEncs.Load(), e.unregistered.Load()
	stats := &faultStats{}
	// Pin every planned-load key before dispatch so the spill tier's
	// within-run eviction cannot delete a value the plan depends on; each
	// pin is released as its load completes, with an end-of-run sweep for
	// error paths. Pointless without a cold tier (the hot tier never
	// evicts), so skipped.
	var pins *pinSet
	if e.Store != nil && e.Spill != nil {
		pins = newPinSet(e.tiers(), tasks, plan)
		defer pins.releaseAll()
	}
	res, err := e.executeDataflow(ctx, g, tasks, plan, res, stats, pins)
	if res != nil {
		res.Retries = stats.retries.Load()
		res.Recomputes = stats.recomputes.Load()
		res.InflightDedupHits = stats.inflightHits.Load()
		res.InflightWaits = stats.inflightWaits.Load()
		res.BinaryEncodes = e.binaryEncs.Load() - binBefore
		res.UnregisteredValues = e.unregistered.Load() - unregBefore
	}
	if res != nil && e.Store != nil {
		after := e.tiers().Counters()
		res.Spills = after.Spills - before.Spills
		res.ColdEvictions = after.ColdEvictions - before.ColdEvictions
		res.CorruptFrames = after.CorruptFrames - before.CorruptFrames
		res.BufferedColdReads = after.ColdReads - before.ColdReads
	}
	return res, err
}

// historySize returns the last observed serialized size for a node name.
func (e *Engine) historySize(name string) (int64, bool) {
	if e.History == nil {
		return 0, false
	}
	return e.History.Size(name)
}

// decideAndPersist is the background writer's materialization step: probe
// the size (history-preferred, encoding cold nodes once to learn it),
// consult the policy, and persist on a yes — degrading to "not
// materialized" on unencodable values, budget races and I/O failures.
// The value is encoded at most once: a probe encoding is kept and
// handed straight to Store.PutEncoded on a yes, and the pooled buffer is
// released before returning either way. computeNanos is c_i and ancNanos
// Σ_{a∈A(i)} c_a; their sum doubles as the persisted entry's
// recompute-saving eviction hint.
// Callers guarantee Policy and Store are set, key is non-empty and not yet
// stored. Returns the elapsed decision+write time, the serialized size (0
// if never encoded), whether the value was stored, and the policy reward.
func (e *Engine) decideAndPersist(name, key string, v any, computeNanos, ancNanos int64) (time.Duration, int64, bool, int64) {
	start := time.Now()
	var enc *store.Encoded
	defer func() {
		if enc != nil {
			enc.Release()
		}
	}()
	// Prefer the history estimate (same node name, previous iteration) over
	// serializing now: the paper's cost model must stay "cheap to compute",
	// and sizes of a node's results are stable across iterations. Cold
	// nodes are encoded once to learn their size, and that probe encoding
	// is reused for the persist below.
	size, ok := e.historySize(name)
	if !ok {
		probe, err := e.encode(v)
		if err != nil {
			// Unencodable values are not materialization candidates.
			return time.Since(start), 0, false, 0
		}
		enc = probe
		size = enc.Size()
	}
	// Both terms are tier-aware: the load estimate is priced at the tier
	// the value would land in (the slower cold tier once it would spill),
	// and the remaining budget includes the spill tier's admission
	// capacity, so a policy keeps materializing past the hot budget.
	tv := e.tiers()
	dec := e.Policy.Decide(opt.MatContext{
		ComputeCost:         computeNanos,
		AncestorComputeCost: ancNanos,
		LoadCost:            tv.EstimateLoad(size).Nanoseconds(),
		Size:                size,
		BudgetRemaining:     tv.Remaining(),
	})
	if !dec.Materialize {
		return time.Since(start), size, false, dec.Reward
	}
	if enc == nil {
		encoded, err := e.encode(v)
		if err != nil {
			return time.Since(start), size, false, dec.Reward
		}
		enc = encoded
		size = enc.Size()
	}
	hint := store.RewardHint{RecomputeNanos: computeNanos + ancNanos, Owner: e.Tenant}
	if _, err := tv.PutEncodedHint(key, enc, hint); err != nil {
		// Budget races (the value fits no tier) and I/O failures degrade to
		// "not materialized"; with a spill tier attached a plain hot-budget
		// rejection lands in the cold tier instead of here.
		return time.Since(start), size, false, dec.Reward
	}
	return time.Since(start), size, true, dec.Reward
}

// encode serializes v for materialization, counting the encode, or — when
// v's type (or a nested value's) has no registered codec — the
// unregistered value, which is then never stored.
func (e *Engine) encode(v any) (*store.Encoded, error) {
	enc, err := store.EncodeValue(v)
	if err != nil {
		if errors.Is(err, codec.ErrUnregistered) {
			e.unregistered.Add(1)
		}
		return nil, err
	}
	e.binaryEncs.Add(1)
	return enc, nil
}
