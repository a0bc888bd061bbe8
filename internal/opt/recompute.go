// Package opt implements HELIX's two optimization problems (§2.2–2.3 of the
// paper):
//
//   - The RECOMPUTATION problem: given a workflow DAG where each node has a
//     compute cost c_i and a load cost l_i (finite only if a previous
//     iteration materialized a result that is still valid), assign each node
//     a state in {load, compute, prune} minimizing total cost, subject to
//     the prune constraint (a computed node's parents must be available) and
//     to output nodes being available. The paper proves this PTIME via a
//     reduction to the PROJECT SELECTION PROBLEM; Optimal implements that
//     reduction exactly.
//
//   - The MATERIALIZATION problem: choose which freshly computed
//     intermediates to persist under a storage budget to minimize future
//     iteration latency. NP-hard (knapsack), so HELIX uses an online cost
//     heuristic; this package provides that heuristic plus the
//     materialize-all (DeepDive) policy and the offline knapsack used as
//     comparators. Never materializing (KeystoneML) is a nil policy.
package opt

import (
	"fmt"
	"math"

	"repro/internal/dag"
	"repro/internal/maxflow"
)

// State is the per-node decision of the recomputation optimizer.
type State int8

const (
	// Prune means the node is not needed this iteration and is skipped.
	Prune State = iota
	// Compute means the node runs its operator on its parents' results.
	Compute
	// Load means the node's result is read back from the materialization
	// store instead of being recomputed.
	Load
)

func (s State) String() string {
	switch s {
	case Prune:
		return "prune"
	case Compute:
		return "compute"
	case Load:
		return "load"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// NoLoad is the load cost for nodes without a reusable materialized result.
// Any plan that loads such a node is worse than computing the whole DAG, so
// the optimizer never chooses it. Kept far below maxflow.Inf so capacities
// (sums of a few costs) cannot overflow.
const NoLoad int64 = 1 << 40

// CostModel carries the optimizer inputs for one DAG. Costs are abstract
// non-negative integers; the execution engine uses nanoseconds.
type CostModel struct {
	// Compute[i] is c_i: the cost to run node i given available parents.
	Compute []int64
	// Loadable[i] reports whether a valid materialized result exists.
	Loadable []bool
	// Load[i] is l_i, meaningful only when Loadable[i].
	Load []int64
}

// NewCostModel allocates a model for n nodes with all loads disabled.
func NewCostModel(n int) *CostModel {
	return &CostModel{
		Compute:  make([]int64, n),
		Loadable: make([]bool, n),
		Load:     make([]int64, n),
	}
}

// loadCost returns l_i, substituting NoLoad when no materialization exists.
func (cm *CostModel) loadCost(i int) int64 {
	if cm.Loadable[i] {
		return cm.Load[i]
	}
	return NoLoad
}

// Plan is a state assignment for every node plus its total cost under the
// cost model (Eq. 1 in the paper).
type Plan struct {
	States []State
	Cost   int64
}

// PlanCost evaluates Eq. (1) for an arbitrary assignment, returning an error
// if the assignment is infeasible (an output pruned, a computed node with a
// pruned parent, or a load of a non-materialized node).
func PlanCost(g *dag.Graph, cm *CostModel, states []State) (int64, error) {
	if len(states) != g.Len() {
		return 0, fmt.Errorf("opt: %d states for %d nodes", len(states), g.Len())
	}
	var total int64
	for i, s := range states {
		id := dag.NodeID(i)
		switch s {
		case Compute:
			for _, p := range g.Parents(id) {
				if states[p] == Prune {
					return 0, fmt.Errorf("opt: node %s computed but parent %s pruned",
						g.Node(id).Name, g.Node(p).Name)
				}
			}
			total += cm.Compute[i]
		case Load:
			if !cm.Loadable[i] {
				return 0, fmt.Errorf("opt: node %s loaded but not materialized", g.Node(id).Name)
			}
			total += cm.Load[i]
		case Prune:
			if g.Node(id).Output {
				return 0, fmt.Errorf("opt: output node %s pruned", g.Node(id).Name)
			}
		}
	}
	return total, nil
}

// Optimal solves the recomputation problem exactly in polynomial time via
// the PROJECT SELECTION reduction.
//
// Reduction. For each node i introduce two binary "projects":
//
//	w_i — node i is available (loaded or computed),
//	x_i — node i is computed.
//
// Cost of an assignment is Σ c_i·x_i + l_i·(w_i − x_i), with monotone
// implications x_i ⇒ w_i, x_i ⇒ w_p for every parent p (the prune
// constraint), and w_o forced for outputs. Rewriting the objective as
// Σ (l_i − c_i)·x_i + Σ l_i·w_i (to be minimized) yields a maximum-weight
// closure instance with profit(x_i) = l_i − c_i and profit(w_i) = −l_i,
// which ProjectSelection solves by min-cut. Nodes with w unselected are
// pruned; with x selected, computed; otherwise loaded.
func Optimal(g *dag.Graph, cm *CostModel) (*Plan, error) {
	n := g.Len()
	if len(cm.Compute) != n || len(cm.Loadable) != n || len(cm.Load) != n {
		return nil, fmt.Errorf("opt: cost model sized %d for %d nodes", len(cm.Compute), n)
	}
	if _, err := g.Topo(); err != nil {
		return nil, err
	}
	// Project indices: x_i = i, w_i = n + i.
	ps := maxflow.NewProjectSelection(2 * n)
	for i := 0; i < n; i++ {
		l := cm.loadCost(i)
		c := cm.Compute[i]
		if c < 0 || l < 0 {
			return nil, fmt.Errorf("opt: negative cost on node %s", g.Node(dag.NodeID(i)).Name)
		}
		ps.SetProfit(i, l-c)
		ps.SetProfit(n+i, -l)
		ps.Require(i, n+i) // computing i requires i available
		for _, p := range g.Parents(dag.NodeID(i)) {
			ps.Require(i, n+int(p)) // computing i requires parent available
		}
		if g.Node(dag.NodeID(i)).Output {
			ps.Force(n + i)
		}
	}
	sel, _, err := ps.Solve()
	if err != nil {
		return nil, err
	}
	states := make([]State, n)
	for i := 0; i < n; i++ {
		switch {
		case !sel[n+i]:
			states[i] = Prune
		case sel[i]:
			states[i] = Compute
		default:
			states[i] = Load
		}
	}
	// The min-cut may mark w_i selected with x_i selected for a node whose
	// optimal handling is degenerate (e.g. zero costs); PlanCost validates
	// feasibility and prices the plan.
	cost, err := PlanCost(g, cm, states)
	if err != nil {
		return nil, fmt.Errorf("opt: internal: optimal plan infeasible: %w", err)
	}
	return &Plan{States: states, Cost: cost}, nil
}

// BruteForce solves the recomputation problem by enumerating all 3^n state
// assignments. Exponential — usable only for n ≲ 14; it exists as the
// testing oracle that certifies Optimal's reduction.
func BruteForce(g *dag.Graph, cm *CostModel) (*Plan, error) {
	n := g.Len()
	if n > 14 {
		return nil, fmt.Errorf("opt: brute force limited to 14 nodes, got %d", n)
	}
	states := make([]State, n)
	best := make([]State, n)
	bestCost := int64(math.MaxInt64)
	found := false
	var rec func(int)
	rec = func(i int) {
		if i == n {
			cost, err := PlanCost(g, cm, states)
			if err == nil && cost < bestCost {
				bestCost = cost
				copy(best, states)
				found = true
			}
			return
		}
		for _, s := range []State{Prune, Compute, Load} {
			if s == Load && !cm.Loadable[i] {
				continue
			}
			states[i] = s
			rec(i + 1)
		}
	}
	rec(0)
	if !found {
		return nil, fmt.Errorf("opt: no feasible plan")
	}
	return &Plan{States: best, Cost: bestCost}, nil
}

// GreedyLoadAll is the naive reuse baseline: load every loadable node whose
// result is valid, compute everything else needed for the outputs, prune the
// rest. It ignores the possibility that recomputing from an available parent
// may beat loading (the l_k >> c_k case the paper highlights), so it can be
// arbitrarily worse than Optimal; it exists for the ablation benchmarks.
func GreedyLoadAll(g *dag.Graph, cm *CostModel) (*Plan, error) {
	n := g.Len()
	states := make([]State, n)
	// Needed set: walk up from outputs, stopping at loadable nodes.
	needed := make([]bool, n)
	var visit func(dag.NodeID)
	visit = func(v dag.NodeID) {
		if needed[v] {
			return
		}
		needed[v] = true
		if cm.Loadable[v] {
			states[v] = Load
			return // parents not needed
		}
		states[v] = Compute
		for _, p := range g.Parents(v) {
			visit(p)
		}
	}
	for _, o := range g.Outputs() {
		visit(o)
	}
	cost, err := PlanCost(g, cm, states)
	if err != nil {
		return nil, err
	}
	return &Plan{States: states, Cost: cost}, nil
}

// ComputeAll is the no-reuse baseline: compute every node on a path to an
// output, prune the rest. This is what a one-shot system (KeystoneML) or
// unoptimized HELIX does every iteration.
func ComputeAll(g *dag.Graph, cm *CostModel) (*Plan, error) {
	n := g.Len()
	states := make([]State, n)
	live := g.Slice()
	for i := 0; i < n; i++ {
		if live[dag.NodeID(i)] {
			states[i] = Compute
		}
	}
	cost, err := PlanCost(g, cm, states)
	if err != nil {
		return nil, err
	}
	return &Plan{States: states, Cost: cost}, nil
}
