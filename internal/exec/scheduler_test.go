package exec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/opt"
	"repro/internal/store"
)

// TestDataflowOutOfOrderCompletion is the no-barrier property: a deep chain
// of cheap nodes must drain to completion while a shallow expensive sibling
// is still running. Under a barrier between DAG levels the chain's second
// link could not even start before the straggler finished its level.
func TestDataflowOutOfOrderCompletion(t *testing.T) {
	g := dag.New()
	root := g.MustAddNode("root", "scan")
	slow := g.MustAddNode("slow", "learner")
	g.MustAddEdge(root, slow)
	g.Node(slow).Output = true
	prev := root
	const depth = 4
	for i := 0; i < depth; i++ {
		id := g.MustAddNode(fmt.Sprintf("c%d", i), "extract")
		g.MustAddEdge(prev, id)
		prev = id
	}
	g.Node(prev).Output = true
	chainTail := prev

	var order []string
	var mu sync.Mutex
	logDone := func(name string) {
		mu.Lock()
		order = append(order, name)
		mu.Unlock()
	}
	tasks := make([]Task, g.Len())
	tasks[root] = Task{Run: func(context.Context, []any) (any, error) { return 0, nil }}
	tasks[slow] = Task{Run: func(context.Context, []any) (any, error) {
		time.Sleep(80 * time.Millisecond)
		logDone("slow")
		return 1, nil
	}}
	for i := 0; i < depth; i++ {
		name := fmt.Sprintf("c%d", i)
		id := g.Lookup(name)
		tasks[id] = Task{Run: func(_ context.Context, in []any) (any, error) {
			time.Sleep(time.Millisecond)
			logDone(name)
			return in[0].(int) + 1, nil
		}}
	}

	e := &Engine{Workers: 2}
	res, err := e.Execute(g, tasks, allCompute(g.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Values[chainTail]; v.(int) != depth {
		t.Errorf("chain tail = %v, want %d", v, depth)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) == 0 || order[len(order)-1] != "slow" {
		t.Errorf("straggler should finish last, completion order = %v", order)
	}
}

// TestDataflowFailureCancelsPending checks mid-flight failure semantics:
// every error from nodes already running is collected and joined, and no
// new work is dispatched after the first failure — descendants of a failed
// node never run.
func TestDataflowFailureCancelsPending(t *testing.T) {
	g := dag.New()
	fastBoom := g.MustAddNode("fast-boom", "x")
	slowBoom := g.MustAddNode("slow-boom", "x")
	child := g.MustAddNode("child", "x")
	g.MustAddEdge(fastBoom, child)
	g.Node(child).Output = true
	g.Node(slowBoom).Output = true

	errFast := errors.New("fast failure")
	errSlow := errors.New("slow failure")
	var childRan int32
	tasks := make([]Task, g.Len())
	tasks[fastBoom] = Task{Run: func(context.Context, []any) (any, error) {
		time.Sleep(10 * time.Millisecond)
		return nil, errFast
	}}
	tasks[slowBoom] = Task{Run: func(context.Context, []any) (any, error) {
		time.Sleep(40 * time.Millisecond)
		return nil, errSlow
	}}
	tasks[child] = Task{Run: func(context.Context, []any) (any, error) {
		atomic.AddInt32(&childRan, 1)
		return 0, nil
	}}

	e := &Engine{Workers: 4}
	_, err := e.Execute(g, tasks, allCompute(g.Len()))
	if !errors.Is(err, errFast) {
		t.Errorf("first error dropped: %v", err)
	}
	if !errors.Is(err, errSlow) {
		t.Errorf("in-flight error dropped instead of joined: %v", err)
	}
	if atomic.LoadInt32(&childRan) != 0 {
		t.Error("descendant of failed node was dispatched")
	}
}

// encodeValues renders a Result's value map into deterministic bytes so two
// runs can be compared for byte-identical output.
func encodeValues(t *testing.T, g *dag.Graph, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i := 0; i < g.Len(); i++ {
		v, ok := res.Values[dag.NodeID(i)]
		if !ok {
			fmt.Fprintf(&buf, "%d:<none>;", i)
			continue
		}
		raw, err := store.Encode(v)
		if err != nil {
			t.Fatalf("encode node %d: %v", i, err)
		}
		fmt.Fprintf(&buf, "%d:%x;", i, raw)
	}
	return buf.Bytes()
}

// equivalenceDAG is a mixed-shape graph (chain + diamond + wide fan) with
// deterministic integer tasks, exercising loads, prunes and computes.
func equivalenceDAG(t *testing.T) (*dag.Graph, []Task, *opt.Plan) {
	t.Helper()
	g := dag.New()
	root := g.MustAddNode("root", "scan")
	l := g.MustAddNode("left", "extract")
	r := g.MustAddNode("right", "extract")
	join := g.MustAddNode("join", "concat")
	g.MustAddEdge(root, l)
	g.MustAddEdge(root, r)
	g.MustAddEdge(l, join)
	g.MustAddEdge(r, join)
	var leaves []dag.NodeID
	for i := 0; i < 5; i++ {
		id := g.MustAddNode(fmt.Sprintf("leaf%d", i), "model")
		g.MustAddEdge(join, id)
		g.Node(id).Output = true
		leaves = append(leaves, id)
	}
	dead := g.MustAddNode("dead", "x")
	g.MustAddEdge(root, dead)

	tasks := make([]Task, g.Len())
	tasks[root] = Task{Key: "kroot", Run: func(context.Context, []any) (any, error) { return 1, nil }}
	tasks[l] = Task{Key: "kleft", Run: func(_ context.Context, in []any) (any, error) { return in[0].(int) * 3, nil }}
	tasks[r] = Task{Key: "kright", Run: func(_ context.Context, in []any) (any, error) { return in[0].(int) * 5, nil }}
	tasks[join] = Task{Key: "kjoin", Run: func(_ context.Context, in []any) (any, error) { return in[0].(int) + in[1].(int), nil }}
	for i, id := range leaves {
		mult := i + 1
		tasks[id] = Task{Key: fmt.Sprintf("kleaf%d", i), Run: func(_ context.Context, in []any) (any, error) {
			return in[0].(int) * mult, nil
		}}
	}
	tasks[dead] = Task{Key: "kdead", Run: func(context.Context, []any) (any, error) { return 0, nil }}

	plan := allCompute(g.Len())
	plan.States[dead] = opt.Prune
	return g, tasks, plan
}

// TestSchedulerEquivalence runs the mixed-shape equivalence DAG and checks
// the result against values worked out by hand: byte-identical Values,
// the plan's per-node states, and — with a store — every computed node
// materialized exactly once under its own key, holding its value.
func TestSchedulerEquivalence(t *testing.T) {
	want := map[string]int{"root": 1, "left": 3, "right": 5, "join": 8,
		"leaf0": 8, "leaf1": 16, "leaf2": 24, "leaf3": 32, "leaf4": 40}
	for _, withStore := range []bool{false, true} {
		name := "pure-compute"
		if withStore {
			name = "with-materialization"
		}
		t.Run(name, func(t *testing.T) {
			g, tasks, plan := equivalenceDAG(t)
			e := &Engine{Workers: 4}
			if withStore {
				st, err := store.Open(t.TempDir(), 0)
				if err != nil {
					t.Fatal(err)
				}
				e.Store = st
				e.Policy = opt.MaterializeAll{}
			}
			res, err := e.Execute(g, tasks, plan)
			if err != nil {
				t.Fatal(err)
			}
			expect := &Result{Values: make(map[dag.NodeID]any)}
			for n, v := range want {
				expect.Values[g.Lookup(n)] = v
			}
			if got, exp := encodeValues(t, g, res), encodeValues(t, g, expect); !bytes.Equal(got, exp) {
				t.Errorf("values differ:\n      got: %s\n expected: %s", got, exp)
			}
			for i, nr := range res.Nodes {
				if nr.State != plan.States[i] {
					t.Errorf("node %d state %v, plan %v", i, nr.State, plan.States[i])
				}
				if wantMat := withStore && plan.States[i] == opt.Compute; nr.Materialized != wantMat {
					t.Errorf("node %d materialized %v, want %v", i, nr.Materialized, wantMat)
				}
			}
			if withStore {
				if n := len(e.Store.Entries()); n != len(want) {
					t.Fatalf("%d store entries, want %d", n, len(want))
				}
				for n, v := range want {
					got, err := e.Store.Get(tasks[g.Lookup(n)].Key)
					if err != nil || got != v {
						t.Errorf("stored %s = %v (%v), want %d", n, got, err, v)
					}
				}
			}
		})
	}
}

// TestDataflowFlushOnError: when a node fails mid-run, materialization jobs
// already handed to the async writer must still be decided, written and
// accounted before Execute returns.
func TestDataflowFlushOnError(t *testing.T) {
	g := dag.New()
	okNode := g.MustAddNode("ok", "scan")
	boom := g.MustAddNode("boom", "x")
	g.Node(okNode).Output = true
	g.Node(boom).Output = true

	errBoom := errors.New("boom")
	tasks := make([]Task, g.Len())
	tasks[okNode] = Task{Key: "kok", Run: func(context.Context, []any) (any, error) { return "payload", nil }}
	tasks[boom] = Task{Run: func(context.Context, []any) (any, error) {
		time.Sleep(30 * time.Millisecond) // let ok finish and submit its write
		return nil, errBoom
	}}

	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Workers: 2, Store: st, Policy: opt.MaterializeAll{}}
	res, err := e.Execute(g, tasks, allCompute(g.Len()))
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v", err)
	}
	if !st.Has("kok") {
		t.Error("async write not flushed before Execute returned")
	}
	if !res.Nodes[okNode].Materialized || res.Nodes[okNode].MatDuration <= 0 {
		t.Errorf("writer accounting missing after flush-on-error: %+v", res.Nodes[okNode])
	}
}

// TestDataflowMatOffCriticalPath: a slow materialization write must not
// delay the completion of the producing node's children. The store write is
// made slow by writing a large value; the child only sleeps briefly, so if
// the child had to wait for the parent's write the wall time would include
// both.
func TestDataflowMatDurationRecorded(t *testing.T) {
	g := dag.New()
	a := g.MustAddNode("a", "scan")
	b := g.MustAddNode("b", "extract")
	g.MustAddEdge(a, b)
	g.Node(b).Output = true
	payload := bytes.Repeat([]byte{7}, 1<<20)
	tasks := []Task{
		{Key: "ka", Run: func(context.Context, []any) (any, error) { return payload, nil }},
		{Key: "kb", Run: func(_ context.Context, in []any) (any, error) { return len(in[0].([]byte)), nil }},
	}
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Store: st, Policy: opt.MaterializeAll{}}
	res, err := e.Execute(g, tasks, allCompute(2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Nodes[a].Materialized {
		t.Fatalf("a not materialized: %+v", res.Nodes[a])
	}
	if res.Nodes[a].MatDuration <= 0 {
		t.Error("MatDuration not measured by async writer")
	}
	if res.Nodes[a].Size <= 0 {
		t.Error("size not learned by async writer")
	}
	if v, _ := res.Value(g, "b"); v.(int) != len(payload) {
		t.Errorf("b = %v", v)
	}
}

// TestReleaseIntermediates: with the flag on, a non-output value disappears
// from Result.Values once its last consumer has run; outputs survive.
func TestReleaseIntermediates(t *testing.T) {
	g, tasks := buildChain(t) // a -> b -> c, c output
	e := &Engine{ReleaseIntermediates: true}
	res, err := e.Execute(g, tasks, allCompute(3))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := res.Value(g, "c"); !ok || v.(string) != "abc" {
		t.Errorf("output c = %v, %v", v, ok)
	}
	for _, name := range []string{"a", "b"} {
		if _, ok := res.Value(g, name); ok {
			t.Errorf("intermediate %s not released", name)
		}
	}

	// Releasing allocates nothing per node: on a chain, where every finish
	// releases its parent, the allocations release adds to a run stay the
	// same however long the chain grows.
	if short, long := releaseAllocs(t, 20), releaseAllocs(t, 400); long > short {
		t.Errorf("release adds %.0f allocations to a 400-node chain, %.0f to a 20-node one", long, short)
	}
}

// releaseAllocs returns how many more allocations an n-node chain's run
// makes with ReleaseIntermediates on than with it off.
func releaseAllocs(t *testing.T, n int) float64 {
	g := dag.New()
	tasks := make([]Task, n)
	for i := 0; i < n; i++ {
		id := g.MustAddNode(fmt.Sprintf("n%d", i), "x")
		if i > 0 {
			g.MustAddEdge(id-1, id)
		}
		tasks[i] = Task{Run: func(context.Context, []any) (any, error) { return i, nil }}
	}
	g.Node(dag.NodeID(n - 1)).Output = true
	plan := allCompute(n)
	allocs := func(release bool) float64 {
		e := &Engine{Workers: 1, ReleaseIntermediates: release}
		return testing.AllocsPerRun(10, func() {
			if _, err := e.Execute(g, tasks, plan); err != nil {
				t.Fatal(err)
			}
		})
	}
	return allocs(true) - allocs(false)
}

// TestReleaseIntermediatesDiamond: a value consumed by several children is
// only released after the last of them has run, and the released value was
// still delivered to every consumer.
func TestReleaseIntermediatesDiamond(t *testing.T) {
	g := dag.New()
	a := g.MustAddNode("a", "scan")
	b := g.MustAddNode("b", "x")
	c := g.MustAddNode("c", "x")
	d := g.MustAddNode("d", "join")
	g.MustAddEdge(a, b)
	g.MustAddEdge(a, c)
	g.MustAddEdge(b, d)
	g.MustAddEdge(c, d)
	g.Node(d).Output = true
	tasks := []Task{
		{Run: func(context.Context, []any) (any, error) { return 2, nil }},
		{Run: func(_ context.Context, in []any) (any, error) { return in[0].(int) * 3, nil }},
		{Run: func(_ context.Context, in []any) (any, error) {
			time.Sleep(10 * time.Millisecond)
			return in[0].(int) * 5, nil
		}},
		{Run: func(_ context.Context, in []any) (any, error) { return in[0].(int) + in[1].(int), nil }},
	}
	e := &Engine{Workers: 4, ReleaseIntermediates: true}
	res, err := e.Execute(g, tasks, allCompute(4))
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Values[d]; v.(int) != 16 {
		t.Errorf("d = %v, want 16", v)
	}
	if len(res.Values) != 1 {
		t.Errorf("intermediates retained: %v", res.Values)
	}
}
