package exec

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/dag"
	"repro/internal/opt"
	"repro/internal/store"
)

// recomputer converts a failed planned load — a corrupt cold frame, a read
// I/O error, an entry that vanished — into a local recompute of the node's
// unfinished sub-DAG. The DAG is the value's lineage: every stored result's
// recompute path is known, so storage damage degrades to a cache miss
// instead of a run failure.
//
// Recovery is deliberately LOCAL to the recovering worker: it rebuilds the
// failing node from its ancestors through its own memo table, loading every
// ancestor that is intact in the store — whatever the plan chose for it —
// and recomputing the rest, but never reading the run's shared value slots.
// Ancestors the plan pruned were never dispatched, and ancestors the plan
// computes may be running concurrently (their slots are plain, release may
// clear them, and waiting on them could deadlock a single-worker run) —
// duplicating a little compute is the price of a recovery that is race-free
// under every worker count.
//
// Every value recovery recomputes is handed to the run's materialization
// writer (nil when materialization is off), so the store heals: a failed
// frame was deleted on detection, and the policy decides, off the critical
// path, whether to store the recomputed value again.
type recomputer struct {
	e      *Engine
	g      *dag.Graph
	tasks  []Task
	stats  *faultStats
	writer *matWriter
}

// recoverLoad recomputes the value node id's load should have produced.
// loadErr, the failure that triggered recovery, is folded into the error on
// an unrecoverable lineage (an ancestor with no Run function, or an
// operator fault during the recompute).
func (r *recomputer) recoverLoad(ctx context.Context, id dag.NodeID, loadErr error) (any, error) {
	memo := make(map[dag.NodeID]any)
	v, err := r.recompute(ctx, id, memo, true)
	if err != nil {
		return nil, fmt.Errorf("recovering failed load (%v): %w", loadErr, err)
	}
	return v, nil
}

// recompute returns node id's value, memoized per recovery: an ancestor
// with a key is served from the store when it is stored and decodable
// (root already failed its load and always recomputes), everything else
// runs its operator over recursively recovered parent values.
func (r *recomputer) recompute(ctx context.Context, id dag.NodeID, memo map[dag.NodeID]any, root bool) (any, error) {
	if v, ok := memo[id]; ok {
		return v, nil
	}
	if !root && r.e.Store != nil && r.tasks[id].Key != "" {
		if v, _, err := r.e.tiers().Get(r.tasks[id].Key); err == nil {
			memo[id] = v
			return v, nil
		}
		// A missing entry or a damaged frame in the lineage degrades
		// the same way: fall through and recompute this ancestor too.
	}
	parents := r.g.Parents(id)
	inputs := make([]any, len(parents))
	for i, p := range parents {
		v, err := r.recompute(ctx, p, memo, false)
		if err != nil {
			return nil, err
		}
		inputs[i] = v
	}
	if r.tasks[id].Run == nil {
		return nil, fmt.Errorf("exec: recompute %s: node has no Run function", r.g.Node(id).Name)
	}
	name := r.g.Node(id).Name
	start := time.Now()
	v, err := r.tasks[id].Run(ctx, inputs)
	if err != nil {
		return nil, fmt.Errorf("exec: recompute %s: %w", name, err)
	}
	r.stats.recomputes.Add(1)
	if r.writer != nil {
		r.writer.submit(id, name, r.tasks[id].Key, v, time.Since(start), false)
	}
	memo[id] = v
	return v, nil
}

// pinSet holds one Execute call's planned-load pins: every Load-state
// node's key is pinned in the cold tier before dispatch, so the spill
// tier's within-run eviction can never delete a key the plan still
// depends on. Each node's pin is released the moment its load (or recovery)
// completes — CAS-guarded, so the end-of-run sweep that covers error paths
// never double-unpins. Pins are refcounted in the store, so load nodes
// sharing a key compose. A nil *pinSet (no spill tier) is a valid no-op
// receiver.
type pinSet struct {
	tv   *store.Tiered
	keys []string // by node ID; "" = node pinned nothing
	done []atomic.Bool
}

// newPinSet pins every planned-load key and records what to unpin.
func newPinSet(tv *store.Tiered, tasks []Task, plan *opt.Plan) *pinSet {
	p := &pinSet{tv: tv, keys: make([]string, len(tasks)), done: make([]atomic.Bool, len(tasks))}
	for i := range tasks {
		if plan.States[i] == opt.Load && tasks[i].Key != "" {
			p.keys[i] = tasks[i].Key
			tv.Pin(tasks[i].Key)
		}
	}
	return p
}

// release unpins node id's key, exactly once.
func (p *pinSet) release(id dag.NodeID) {
	if p == nil {
		return
	}
	if k := p.keys[id]; k != "" && p.done[id].CompareAndSwap(false, true) {
		p.tv.Unpin(k)
	}
}

// releaseAll unpins every key not already released by its load — the
// end-of-run (and error-path) sweep.
func (p *pinSet) releaseAll() {
	if p == nil {
		return
	}
	for i := range p.keys {
		p.release(dag.NodeID(i))
	}
}
