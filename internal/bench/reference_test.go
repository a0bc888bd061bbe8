package bench

import (
	"context"
	"fmt"

	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/store"
)

// sequentialRun is the reference executor of the equivalence suites: a
// single-threaded interpreter of a plan, simple enough to check by
// reading. It walks g.Topo() in order and skips Prune nodes. A Load node
// reads its key from st. A Compute node gathers its parents' values in
// g.Parents order and calls Run; when its key is non-empty and not yet
// stored it persists the value with st.Put and marks it Materialized —
// what an unbudgeted MaterializeAll policy decides. No goroutines, locks,
// single-flights, background writers or tiers are involved. st may be nil
// for plans without loads, which then materialize nothing.
//
// Any failure panics: the reference runs clean tasks over valid plans, so
// an error means the test itself is broken.
func sequentialRun(g *dag.Graph, tasks []exec.Task, plan *opt.Plan, st *store.Store) *exec.Result {
	order, err := g.Topo()
	if err != nil {
		panic(fmt.Sprintf("reference: %v", err))
	}
	res := &exec.Result{
		Values: make(map[dag.NodeID]any, g.Len()),
		Nodes:  make([]exec.NodeRun, g.Len()),
	}
	for i := range res.Nodes {
		res.Nodes[i] = exec.NodeRun{Name: g.Node(dag.NodeID(i)).Name, State: plan.States[i]}
	}
	for _, id := range order {
		name, key := g.Node(id).Name, tasks[id].Key
		switch plan.States[id] {
		case opt.Prune:
			continue
		case opt.Load:
			v, err := st.Get(key)
			if err != nil {
				panic(fmt.Sprintf("reference: load %s: %v", name, err))
			}
			res.Values[id] = v
		case opt.Compute:
			parents := g.Parents(id)
			inputs := make([]any, len(parents))
			for i, p := range parents {
				v, ok := res.Values[p]
				if !ok {
					panic(fmt.Sprintf("reference: %s needs parent %s which has no value", name, g.Node(p).Name))
				}
				inputs[i] = v
			}
			v, err := tasks[id].Run(context.Background(), inputs)
			if err != nil {
				panic(fmt.Sprintf("reference: compute %s: %v", name, err))
			}
			res.Values[id] = v
			if st != nil && key != "" && !st.Has(key) {
				if err := st.Put(key, v); err != nil {
					panic(fmt.Sprintf("reference: store %s: %v", name, err))
				}
				res.Nodes[id].Materialized = true
			}
		}
	}
	return res
}
