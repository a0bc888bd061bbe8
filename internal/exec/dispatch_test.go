package exec

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dag"
	"repro/internal/opt"
	"repro/internal/store"
)

// TestSingleWorkerDeterministic: with one worker, dispatch must be a pure
// function of the graph — the same ordering guarantee the ordering tests
// pin for the ready heap, here checked across the chase path (a finishing
// worker keeps the best child directly).
func TestSingleWorkerDeterministic(t *testing.T) {
	build := func() (*dag.Graph, []Task, *[]dag.NodeID) {
		g := dag.New()
		root := g.MustAddNode("root", "scan")
		var order []dag.NodeID
		task := func(id dag.NodeID) Task {
			return Task{Run: func(context.Context, []any) (any, error) {
				order = append(order, id) // single worker: no lock needed
				return 0, nil
			}}
		}
		tasks := []Task{task(root)}
		// Two chains of different lengths: the chase path, the heap pops
		// and the tie-breaks all get exercised.
		prev := root
		for i := 0; i < 3; i++ {
			id := g.MustAddNode(fmt.Sprintf("a%d", i), "op")
			g.MustAddEdge(prev, id)
			tasks = append(tasks, task(id))
			prev = id
		}
		g.Node(prev).Output = true
		prev = root
		for i := 0; i < 2; i++ {
			id := g.MustAddNode(fmt.Sprintf("b%d", i), "op")
			g.MustAddEdge(prev, id)
			tasks = append(tasks, task(id))
			prev = id
		}
		g.Node(prev).Output = true
		return g, tasks, &order
	}
	var first []dag.NodeID
	for run := 0; run < 3; run++ {
		g, tasks, order := build()
		e := &Engine{Workers: 1}
		if _, err := e.Execute(g, tasks, allCompute(g.Len())); err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = append([]dag.NodeID(nil), (*order)...)
		} else if !reflect.DeepEqual(*order, first) {
			t.Fatalf("run %d dispatch order %v differs from first run %v", run, *order, first)
		}
	}
}

// TestColdWeightsUseStructuralFloor: with no history at all, critical-path
// dispatch must still prefer the node that gates more downstream work —
// the structural cold-cost floor (unit × (1 + out-degree)) replaces the
// old flat unit cost that made all never-measured siblings look equal.
func TestColdWeightsUseStructuralFloor(t *testing.T) {
	g := dag.New()
	root := g.MustAddNode("root", "scan")
	// narrow has the smaller ID: under a flat cold cost the ID tie-break
	// would dispatch it first.
	narrow := g.MustAddNode("narrow", "op")
	hub := g.MustAddNode("hub", "op")
	g.MustAddEdge(root, narrow)
	g.MustAddEdge(root, hub)
	g.Node(narrow).Output = true
	var order []string
	task := func(name string) Task {
		return Task{Run: func(context.Context, []any) (any, error) {
			order = append(order, name)
			return 0, nil
		}}
	}
	tasks := []Task{task("root"), task("narrow"), task("hub")}
	for i := 0; i < 3; i++ {
		id := g.MustAddNode(fmt.Sprintf("leaf%d", i), "op")
		g.MustAddEdge(hub, id)
		g.Node(id).Output = true
		tasks = append(tasks, task(fmt.Sprintf("leaf%d", i)))
	}
	e := &Engine{Workers: 1}
	if _, err := e.Execute(g, tasks, allCompute(g.Len())); err != nil {
		t.Fatal(err)
	}
	if len(order) < 2 || order[0] != "root" || order[1] != "hub" {
		t.Errorf("cold dispatch order = %v, want the high-out-degree hub right after root", order)
	}
}

// TestLiveBytesGaugeColdStructuralEstimate: with no learned sizes the
// gauge charges compute nodes the structural floor instead of zero, so a
// first iteration still reports an honest peak.
func TestLiveBytesGaugeColdStructuralEstimate(t *testing.T) {
	g, tasks := buildChain(t) // a -> b -> c, c output; out-degrees 1,1,0
	var gauge store.Gauge
	e := &Engine{Workers: 1, LiveBytes: &gauge, ReleaseIntermediates: true}
	if _, err := e.Execute(g, tasks, allCompute(3)); err != nil {
		t.Fatal(err)
	}
	// a and b coexist until b's completion releases a: 2·coldSizeUnit each.
	if want := int64(4 * coldSizeUnit); gauge.Peak() != want {
		t.Errorf("cold peak = %d, want %d (two 2-consumer-scaled estimates)", gauge.Peak(), want)
	}
	if gauge.Live() != 0 {
		t.Errorf("live = %d after run, want 0 after settlement", gauge.Live())
	}
}

// TestManyWorkersFewNodes: more workers than runnable nodes must neither
// deadlock nor leave workers spinning — the pool is clamped and surplus
// configurations drain cleanly.
func TestManyWorkersFewNodes(t *testing.T) {
	g, tasks := buildChain(t)
	e := &Engine{Workers: 64}
	res, err := e.Execute(g, tasks, allCompute(3))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Value(g, "c"); v.(string) != "abc" {
		t.Errorf("c = %v", v)
	}
}

// TestAllPruned: a plan with nothing runnable returns an empty result
// without spawning workers.
func TestAllPruned(t *testing.T) {
	g, tasks := buildChain(t)
	plan := allCompute(3)
	for i := range plan.States {
		plan.States[i] = opt.Prune
	}
	res, err := (&Engine{}).Execute(g, tasks, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 0 {
		t.Errorf("pruned-everything run produced values: %v", res.Values)
	}
}
