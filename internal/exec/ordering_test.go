package exec

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/opt"
	"repro/internal/store"
)

// orderedDAG builds a single-worker ordering probe: root feeds a cheap
// 4-node chain (low IDs) and one straggler (highest ID, so an ID tie-break
// alone would run it last among the ready set). Tasks record their
// dispatch order.
func orderedDAG() (*dag.Graph, []Task, *[]string, *sync.Mutex) {
	g := dag.New()
	root := g.MustAddNode("root", "scan")
	var order []string
	var mu sync.Mutex
	logRun := func(name string) {
		mu.Lock()
		order = append(order, name)
		mu.Unlock()
	}
	task := func(name string) Task {
		return Task{Run: func(context.Context, []any) (any, error) {
			logRun(name)
			return 0, nil
		}}
	}
	tasks := []Task{task("root")}
	prev := root
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("c%d", i)
		id := g.MustAddNode(name, "op")
		g.MustAddEdge(prev, id)
		tasks = append(tasks, task(name))
		prev = id
	}
	g.Node(prev).Output = true
	straggler := g.MustAddNode("straggler", "learner")
	g.MustAddEdge(root, straggler)
	g.Node(straggler).Output = true
	tasks = append(tasks, task("straggler"))
	return g, tasks, &order, &mu
}

// TestCriticalPathUsesHistoryCosts is the cost-awareness property: once
// history knows the straggler is expensive, critical-path ordering
// dispatches it before the structurally deeper but cheap chain, even
// though every chain node has a lower ID.
func TestCriticalPathUsesHistoryCosts(t *testing.T) {
	g, tasks, order, mu := orderedDAG()
	h := NewHistory()
	h.ObserveCompute("straggler", 80*time.Millisecond, 0)
	e := &Engine{Workers: 1, History: h}
	if _, err := e.Execute(g, tasks, allCompute(g.Len())); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := append([]string(nil), (*order)...)
	mu.Unlock()
	if len(got) < 2 || got[0] != "root" || got[1] != "straggler" {
		t.Errorf("dispatch order = %v, want root then straggler", got)
	}
}

// TestCriticalPathTieBreakDeterministic: with no history every node costs
// the same, so among equal-weight ready nodes the smaller ID must win —
// repeatedly, so single-worker dispatch is a pure function of the graph.
func TestCriticalPathTieBreakDeterministic(t *testing.T) {
	build := func() (*dag.Graph, []Task, *[]dag.NodeID, *sync.Mutex) {
		g := dag.New()
		root := g.MustAddNode("root", "scan")
		var order []dag.NodeID
		var mu sync.Mutex
		task := func(id dag.NodeID) Task {
			return Task{Run: func(context.Context, []any) (any, error) {
				mu.Lock()
				order = append(order, id)
				mu.Unlock()
				return 0, nil
			}}
		}
		tasks := []Task{task(root)}
		for i := 0; i < 8; i++ {
			id := g.MustAddNode(fmt.Sprintf("leaf%d", i), "op")
			g.MustAddEdge(root, id)
			g.Node(id).Output = true
			tasks = append(tasks, task(id))
		}
		return g, tasks, &order, &mu
	}
	var first []dag.NodeID
	for run := 0; run < 3; run++ {
		g, tasks, order, mu := build()
		e := &Engine{Workers: 1}
		if _, err := e.Execute(g, tasks, allCompute(g.Len())); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		got := append([]dag.NodeID(nil), (*order)...)
		mu.Unlock()
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("run %d: equal-weight dispatch not in ascending ID order: %v", run, got)
			}
		}
		if run == 0 {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d dispatch order %v differs from first run %v", run, got, first)
		}
	}
}

// TestLiveBytesGauge pins the gauge accounting on a single-worker chain
// with known sizes: a and b overlap (peak = both) until b's completion
// releases a, c never coexists with a, and the end-of-run settlement
// returns Live to zero while Peak survives.
func TestLiveBytesGauge(t *testing.T) {
	g, tasks := buildChain(t) // a -> b -> c, c output
	h := NewHistory()
	h.ObserveSize("a", 100)
	h.ObserveSize("b", 50)
	h.ObserveSize("c", 25)
	var gauge store.Gauge
	e := &Engine{Workers: 1, History: h, LiveBytes: &gauge, ReleaseIntermediates: true}
	if _, err := e.Execute(g, tasks, allCompute(3)); err != nil {
		t.Fatal(err)
	}
	if gauge.Peak() != 150 {
		t.Errorf("release-on peak = %d, want 150 (a+b coexist, a released before c)", gauge.Peak())
	}
	if gauge.Live() != 0 {
		t.Errorf("live = %d after run, want 0 after settlement", gauge.Live())
	}

	gauge.Reset()
	e.ReleaseIntermediates = false
	if _, err := e.Execute(g, tasks, allCompute(3)); err != nil {
		t.Fatal(err)
	}
	if gauge.Peak() != 175 {
		t.Errorf("release-off peak = %d, want 175 (all values retained)", gauge.Peak())
	}
	if gauge.Live() != 0 {
		t.Errorf("live = %d after run, want 0 after settlement", gauge.Live())
	}
}

// TestLiveBytesGaugeCountsLoads: loaded values are charged their exact
// stored size, not a history estimate.
func TestLiveBytesGaugeCountsLoads(t *testing.T) {
	g, tasks := buildChain(t)
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("kb", "ab"); err != nil {
		t.Fatal(err)
	}
	entry, _ := st.Lookup("kb")
	plan := allCompute(3)
	plan.States[0] = opt.Prune
	plan.States[1] = opt.Load
	var gauge store.Gauge
	e := &Engine{Store: st, LiveBytes: &gauge}
	if _, err := e.Execute(g, tasks, plan); err != nil {
		t.Fatal(err)
	}
	if gauge.Peak() < entry.Size {
		t.Errorf("peak = %d, want at least the loaded entry's %d bytes", gauge.Peak(), entry.Size)
	}
	if gauge.Live() != 0 {
		t.Errorf("live = %d after run, want 0", gauge.Live())
	}
}
