package core

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/sig"
	"repro/internal/store"
)

// Session drives iterative development: one Session per developer working
// session, one Run call per iteration. The session owns the store, the
// runtime-statistics history, and the previous compiled version for change
// detection — except when Options.SharedTiers/SharedHistory lend it shared
// ones, in which case their owner (the serve layer) manages their
// lifecycle.
type Session struct {
	cfg     Options
	store   *store.Store
	spill   *store.Store
	engine  *exec.Engine
	history *exec.History
	live    store.Gauge
	prev    *Compiled
	iter    int
}

// historyFile is the runtime-statistics snapshot kept next to the store so
// later sessions warm-start with realistic compute-cost estimates.
const historyFile = "helix-history.json"

// Store exposes the session's materialization store — the hot tier when a
// spill tier is configured (nil if disabled).
func (s *Session) Store() *store.Store { return s.store }

// Spill exposes the session's cold spill tier, a framed store opened with
// store.OpenSpill (nil if tiering is disabled).
func (s *Session) Spill() *store.Store { return s.spill }

// TierCounters snapshots the session's cumulative tier traffic (spills,
// cold evictions, cold reads) across all iterations run so far; all zero
// without a spill tier.
func (s *Session) TierCounters() store.TierCounters { return s.engine.TierCounters() }

// History exposes the runtime-statistics history.
func (s *Session) History() *exec.History { return s.history }

// LiveBytes exposes the engine's in-memory intermediate-value gauge:
// Peak() is the high-water mark of serialized-size estimates held in
// memory across all iterations run so far (Reset() starts a fresh
// measurement window). It is how benchmarks assert the peak-memory win of
// releasing consumed intermediates.
func (s *Session) LiveBytes() *store.Gauge { return &s.live }

// Report summarizes one iteration for the user interface (and benchmarks).
type Report struct {
	Iteration int
	System    string
	Workflow  string
	Wall      time.Duration
	PlanCost  int64
	Graph     *dag.Graph
	Plan      *opt.Plan
	Nodes     []exec.NodeRun
	Changes   []sig.Change
	Outputs   map[string]any
	StoreUsed int64
	// SpillUsed is the cold tier's byte usage after the iteration (0
	// without a spill tier).
	SpillUsed int64
	// Counters consolidates this iteration's execution counters (spills,
	// cold reads, recomputes, encodes, ...) under one embedded block;
	// field promotion keeps the old rep.Spills-style selectors working.
	exec.Counters
	// Keys holds each node's content-address store key (the hex Merkle
	// result signature), indexed by dag.NodeID like Plan.States and Nodes.
	// The serve layer joins Plan.States==Load against it to attribute
	// loads to the tenant that materialized the bytes.
	Keys []string
}

// Counts tallies node states in the executed plan.
func (r *Report) Counts() (computed, loaded, pruned int) {
	for _, st := range r.Plan.States {
		switch st {
		case opt.Compute:
			computed++
		case opt.Load:
			loaded++
		case opt.Prune:
			pruned++
		}
	}
	return
}

// Run compiles and executes one iteration of the workflow.
func (s *Session) Run(w *Workflow) (*Report, error) {
	return s.RunCtx(context.Background(), w)
}

// RunCtx is Run under a cancellation context: a canceled ctx stops
// dispatching new nodes, waits for in-flight operators, and returns the
// context's error. Already-materialized values stay valid — a later
// session resumes from them.
func (s *Session) RunCtx(ctx context.Context, w *Workflow) (*Report, error) {
	compiled, err := Compile(w)
	if err != nil {
		return nil, err
	}
	cm, err := s.engine.BuildCostModel(compiled.Graph, compiled.Tasks)
	if err != nil {
		return nil, err
	}
	if !s.cfg.Reuse {
		for i := range cm.Loadable {
			cm.Loadable[i] = false
		}
	}
	for _, cat := range s.cfg.NeverReuse {
		for i := 0; i < compiled.Graph.Len(); i++ {
			if compiled.Category(dag.NodeID(i)) == cat {
				cm.Loadable[i] = false
			}
		}
	}
	plan, err := opt.Optimal(compiled.Graph, cm)
	if err != nil {
		return nil, err
	}
	res, err := s.engine.ExecuteCtx(ctx, compiled.Graph, compiled.Tasks, plan)
	if err != nil {
		return nil, fmt.Errorf("core: iteration %d: %w", s.iter+1, err)
	}
	var changes []sig.Change
	if s.prev != nil {
		changes = sig.Diff(s.prev.Graph, compiled.Graph)
	}
	outputs := make(map[string]any)
	for _, o := range compiled.Graph.Outputs() {
		if v, ok := res.Values[o]; ok {
			outputs[compiled.Graph.Node(o).Name] = v
		}
	}
	s.iter++
	s.prev = compiled
	keys := make([]string, len(compiled.Tasks))
	for i, t := range compiled.Tasks {
		keys[i] = t.Key
	}
	rep := &Report{
		Iteration: s.iter,
		System:    s.cfg.SystemName,
		Workflow:  w.Name(),
		Wall:      res.Wall,
		PlanCost:  plan.Cost,
		Graph:     compiled.Graph,
		Plan:      plan,
		Nodes:     res.Nodes,
		Changes:   changes,
		Outputs:   outputs,
		Counters:  res.Counters,
		Keys:      keys,
	}
	if s.store != nil {
		rep.StoreUsed = s.store.Used()
		if s.spill != nil {
			rep.SpillUsed = s.spill.Used()
		}
	}
	// Persist runtime statistics for future sessions; failure to save
	// degrades warm-start but must not fail the iteration. A shared
	// history's owner persists it itself, and a shared-tiers session has
	// no StoreDir to write into.
	if s.cfg.StoreDir != "" && s.cfg.SharedHistory == nil {
		_ = s.history.Save(s.historyPath())
	}
	return rep, nil
}

// Close flushes session state that outlives the last Run — today the
// runtime-statistics history (when this session owns one and has somewhere
// to persist it). Idempotent; safe on every exit path.
func (s *Session) Close() error {
	if s.cfg.StoreDir != "" && s.cfg.SharedHistory == nil {
		return s.history.Save(s.historyPath())
	}
	return nil
}

// historyPath locates the persisted statistics file. The store directory is
// shared with materialized values; the filename cannot collide with their
// hex-signature keys.
func (s *Session) historyPath() string {
	return filepath.Join(s.cfg.StoreDir, historyFile)
}

// RenderPlan renders the executed plan as the text analogue of Figure 1b:
// one line per node with its state, runtime, and materialization mark.
func (r *Report) RenderPlan() string {
	var b strings.Builder
	fmt.Fprintf(&b, "iteration %d (%s) wall=%v\n", r.Iteration, r.System, r.Wall.Round(time.Microsecond))
	order, err := r.Graph.Topo()
	if err != nil {
		return "invalid graph: " + err.Error()
	}
	for _, id := range order {
		n := r.Graph.Node(id)
		nr := r.Nodes[id]
		mark := " "
		if nr.Materialized {
			mark = "*" // drum-to-the-right in Figure 1b
		}
		state := r.Plan.States[id].String()
		if r.Plan.States[id] == opt.Load {
			state = "load   " // drum-to-the-left
		}
		fmt.Fprintf(&b, "  [%-7s]%s %-12s (%s, %s) %v\n",
			state, mark, n.Name, n.Op, n.Attrs[AttrCategory], nr.Duration.Round(time.Microsecond))
	}
	return b.String()
}

// DOT renders the executed plan as Graphviz, painting states the way the
// demo GUI does: pruned gray, loaded blue, computed white, materialized
// results double-bordered.
func (r *Report) DOT() string {
	return r.Graph.DOT(fmt.Sprintf("%s-iter%d", r.Workflow, r.Iteration), func(id dag.NodeID) string {
		var attrs []string
		switch r.Plan.States[id] {
		case opt.Prune:
			attrs = append(attrs, "style=filled", "fillcolor=gray80", "fontcolor=gray40")
		case opt.Load:
			attrs = append(attrs, "style=filled", "fillcolor=lightblue")
		}
		if r.Nodes[id].Materialized {
			attrs = append(attrs, "peripheries=2")
		}
		if r.Graph.Node(id).Attrs[AttrCategory] == string(CatML) {
			attrs = append(attrs, "color=orange")
		}
		return strings.Join(attrs, ", ")
	})
}
