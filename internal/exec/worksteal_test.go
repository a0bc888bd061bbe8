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

// wideSleepDAG is a root fanning out to `width` sleeping leaves — enough
// simultaneous work that every worker must engage, guaranteeing
// cross-worker transfers under work-stealing.
func wideSleepDAG(width int, d time.Duration) (*dag.Graph, []Task) {
	g := dag.New()
	root := g.MustAddNode("root", "scan")
	tasks := []Task{{Run: func(context.Context, []any) (any, error) { return 0, nil }}}
	for i := 0; i < width; i++ {
		id := g.MustAddNode(fmt.Sprintf("leaf%d", i), "op")
		g.MustAddEdge(root, id)
		g.Node(id).Output = true
		idx := int(id)
		tasks = append(tasks, Task{Run: func(_ context.Context, in []any) (any, error) {
			time.Sleep(d)
			return in[0].(int) + idx, nil
		}})
	}
	return g, tasks
}

// TestWorkStealCrossWorkerTransfers: on a wide DAG with several workers,
// work must actually move between workers — the Steals/Handoffs counters
// are non-zero.
func TestWorkStealCrossWorkerTransfers(t *testing.T) {
	g, tasks := wideSleepDAG(32, 2*time.Millisecond)
	e := &Engine{Workers: 4}
	res, err := e.Execute(g, tasks, allCompute(g.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Steals+res.Handoffs == 0 {
		t.Error("work-stealing run moved no work between workers (steals+handoffs = 0)")
	}
}

// stealFixture builds a three-deque dispatcher over nodes weighted
// {10, 30, 30}: node 0 sits alone on deque 1, nodes 1 and 2 on deque 2,
// and worker 0 — the thief — holds nothing.
func stealFixture() *wsDispatch {
	weight := []int64{10, 30, 30}
	d := &wsDispatch{runCtx: &runCtx{}, weight: weight}
	d.parkCond = sync.NewCond(&d.parkMu)
	d.overflowTop.Store(wsTopEmpty)
	d.deques = make([]wsDeque, 3)
	d.tops = make([]wsTop, 3)
	for i := range d.deques {
		d.deques[i].h.weight = weight
	}
	d.deques[1].h.push(0)
	d.deques[2].h.push(1)
	d.deques[2].h.push(2)
	for i := range d.deques {
		d.publishTop(i, &d.deques[i].h)
	}
	return d
}

// TestStealPassesOverStrandedVictim: a thief's random probe applies the
// stranding consult to every victim. A deque whose only node weighs under
// half the published global best is passed over for the urgent work,
// whichever deque the probe reaches first — before the fix, a node left
// alone on a deque by earlier steal-halves was taken by the first idle
// thief to probe it, rescuing a deceptively under-weighted chain at random.
// Once nothing else is takeable (here: a stale published top), the passed-
// over victim is robbed anyway.
func TestStealPassesOverStrandedVictim(t *testing.T) {
	for seed := 0; seed < 8; seed++ {
		d := stealFixture()
		rng := wsRand(seed)
		id, ok := d.stealBatch(0, &rng, -1)
		if !ok || id != 1 {
			t.Fatalf("seed %d: stole (%d, %v), want the urgent node 1", seed, id, ok)
		}
		if d.deques[1].h.Len() != 1 {
			t.Fatalf("seed %d: the stranded node left its deque", seed)
		}
	}

	d := stealFixture()
	d.deques[2].h.ids = nil // drained, but its top of 30 is still published
	rng := wsRand(0)
	if id, ok := d.stealBatch(0, &rng, -1); !ok || id != 0 {
		t.Fatalf("with only the stranded node takeable, stole (%d, %v), want node 0", id, ok)
	}
}

// TestWorkStealSingleWorkerDeterministic: with one worker there is nothing
// to steal, and dispatch must be a pure function of the graph — the same
// ordering guarantee the ordering tests pin for the ready-queue, here
// checked across the chase path (a finishing worker keeps the best child
// directly).
func TestWorkStealSingleWorkerDeterministic(t *testing.T) {
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
		// Two chains of different lengths plus loose leaves: the chase path,
		// the deque pops and the tie-breaks all get exercised.
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

// TestWorkStealManyWorkersFewNodes: more workers than runnable nodes must
// neither deadlock nor leave workers spinning — the pool is clamped and
// surplus configurations drain cleanly.
func TestWorkStealManyWorkersFewNodes(t *testing.T) {
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

// TestWorkStealAllPruned: a plan with nothing runnable returns an empty
// result without spawning workers.
func TestWorkStealAllPruned(t *testing.T) {
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
