package opt

import (
	"fmt"
	"sort"

	"repro/internal/dag"
)

// MatDecision is a materialization policy's answer for one node.
type MatDecision struct {
	Materialize bool
	// Reward is the policy's estimate r_i = 2*l_i - (c_i + Σ_{a∈A(i)} c_a);
	// negative means materializing is predicted to pay off next iteration.
	// Only the online heuristic fills it in.
	Reward int64
}

// MatContext is everything a policy may consult when a node's result becomes
// available. The decision must be made immediately ("online constraint",
// §2.3): HELIX cannot buffer intermediates for deferred decisions.
type MatContext struct {
	// ComputeCost is the measured c_i of this node in the current run.
	ComputeCost int64
	// AncestorComputeCost is Σ_{a∈A(i)} c_a for the current run (cost to
	// rebuild everything beneath i from scratch).
	AncestorComputeCost int64
	// LoadCost is the predicted l_i (estimated from the serialized size and
	// store throughput).
	LoadCost int64
	// Size is the serialized size of the result in bytes.
	Size int64
	// BudgetRemaining is the storage budget left, in bytes.
	BudgetRemaining int64
}

// MatPolicy decides, at the moment a node's result becomes available,
// whether to persist it for future iterations.
type MatPolicy interface {
	// Decide is called once per computed node, in completion order.
	Decide(ctx MatContext) MatDecision
}

// OnlineHeuristic is the paper's materialization cost model (§2.3): at
// iteration t, materializing node i costs ≈ l_i now (writing is priced like
// one load) and saves the recomputation chain next iteration, for a net
// change r_i = 2*l_i − (c_i + Σ_{a∈A(i)} c_a). Materialize iff r_i < 0 and
// the serialized size fits the remaining budget.
type OnlineHeuristic struct{}

// Decide implements MatPolicy.
func (OnlineHeuristic) Decide(ctx MatContext) MatDecision {
	r := 2*ctx.LoadCost - (ctx.ComputeCost + ctx.AncestorComputeCost)
	return MatDecision{
		Materialize: r < 0 && ctx.Size <= ctx.BudgetRemaining,
		Reward:      r,
	}
}

// MaterializeAll persists every intermediate that fits, modeling DeepDive's
// approach ("materializes the results of all feature extraction and
// engineering steps").
type MaterializeAll struct{}

// Decide implements MatPolicy.
func (MaterializeAll) Decide(ctx MatContext) MatDecision {
	return MatDecision{Materialize: ctx.Size <= ctx.BudgetRemaining}
}

// MatItem is one candidate for the offline knapsack solver.
type MatItem struct {
	Node dag.NodeID
	// Benefit is the predicted next-iteration saving from having this node
	// loadable: (c_i + Σ ancestors c) − l_i, clamped at ≥ 0.
	Benefit int64
	// Cost is the one-time write cost (we price it l_i, like the online
	// model does).
	Cost int64
	// Size in bytes, consumed from the budget.
	Size int64
}

// KnapsackOffline solves the materialization problem optimally *under the
// same simplifying assumptions as the online model* (one more iteration,
// everything reusable, per-node independence) but with full knowledge of all
// candidates — a 0/1 knapsack by size. It is exponential-free (DP in
// O(n·W/gran)) and exists to quantify how close the online heuristic gets in
// the ablation benchmarks. Budget granularity: sizes are bucketed into
// `gran`-byte units to bound the DP table.
func KnapsackOffline(items []MatItem, budget int64, gran int64) ([]bool, int64, error) {
	if gran <= 0 {
		return nil, 0, fmt.Errorf("opt: knapsack granularity must be positive, got %d", gran)
	}
	if budget < 0 {
		return nil, 0, fmt.Errorf("opt: negative budget %d", budget)
	}
	w := int(budget / gran)
	n := len(items)
	// value[j][cap] with rolling array + choice tracking.
	val := make([]int64, w+1)
	take := make([][]bool, n)
	sizes := make([]int, n)
	for i, it := range items {
		sizes[i] = int((it.Size + gran - 1) / gran)
		take[i] = make([]bool, w+1)
		net := it.Benefit - it.Cost
		if net <= 0 || sizes[i] > w {
			continue // never worth taking
		}
		for cap := w; cap >= sizes[i]; cap-- {
			if cand := val[cap-sizes[i]] + net; cand > val[cap] {
				val[cap] = cand
				take[i][cap] = true
			}
		}
	}
	chosen := make([]bool, n)
	cap := w
	for i := n - 1; i >= 0; i-- {
		if take[i][cap] {
			chosen[i] = true
			cap -= sizes[i]
		}
	}
	return chosen, val[w], nil
}

// AncestorClosures precomputes, for every node, its strict ancestors as a
// slice in ascending ID order. The execution engine snapshots it once per
// run so each online materialization decision walks a flat slice instead of
// re-traversing the graph (and re-locking shared state) per ancestor.
// O(V·(V+E)) worst case, fine at workflow scale (tens of nodes).
func AncestorClosures(g *dag.Graph) [][]dag.NodeID {
	out := make([][]dag.NodeID, g.Len())
	for i := 0; i < g.Len(); i++ {
		anc := g.Ancestors(dag.NodeID(i))
		if len(anc) == 0 {
			continue
		}
		closure := make([]dag.NodeID, 0, len(anc))
		for a := range anc {
			closure = append(closure, a)
		}
		sort.Slice(closure, func(x, y int) bool { return closure[x] < closure[y] })
		out[i] = closure
	}
	return out
}

// AncestorComputeCosts precomputes Σ_{a∈A(i)} c_a for every node — the
// recomputation-chain term of the online heuristic.
func AncestorComputeCosts(g *dag.Graph, compute []int64) ([]int64, error) {
	if len(compute) != g.Len() {
		return nil, fmt.Errorf("opt: %d costs for %d nodes", len(compute), g.Len())
	}
	out := make([]int64, g.Len())
	for i, closure := range AncestorClosures(g) {
		for _, a := range closure {
			out[i] += compute[a]
		}
	}
	return out, nil
}
