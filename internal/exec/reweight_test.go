package exec

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dag"
)

// liarProbeDAG is a single-worker re-prioritization probe: root fans out to
// `decoys` sleeping nodes (op "decoy", history claims them expensive) and
// one two-link chain (op "liar", history claims it cheap, actually slow).
// With one worker nothing is stolen and every pop takes the heaviest ready
// node, so the test can assert where the chain lands.
func liarProbeDAG(decoys int, decoyDur time.Duration) (*dag.Graph, []Task, *History, *[]string, *sync.Mutex) {
	g := dag.New()
	root := g.MustAddNode("root", "scan")
	var order []string
	var mu sync.Mutex
	mk := func(name string, d time.Duration) Task {
		return Task{Run: func(context.Context, []any) (any, error) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			time.Sleep(d)
			return 0, nil
		}}
	}
	tasks := []Task{mk("root", 0)}
	h := NewHistory()
	for i := 0; i < decoys; i++ {
		name := fmt.Sprintf("decoy%d", i)
		id := g.MustAddNode(name, "decoy")
		g.MustAddEdge(root, id)
		g.Node(id).Output = true
		tasks = append(tasks, mk(name, decoyDur))
		h.ObserveCompute(name, 50*time.Millisecond, 0) // the lie: claimed expensive
	}
	prev := root
	for l := 0; l < 2; l++ {
		name := fmt.Sprintf("liar%d", l)
		id := g.MustAddNode(name, "liar")
		g.MustAddEdge(prev, id)
		// The lie: claimed cheap relative to the decoys' 50ms, but with
		// enough absolute weight that a corrected decoy estimate (its
		// measured sleep, including scheduler overshoot on a loaded box)
		// still ranks below the chain.
		tasks = append(tasks, mk(name, decoyDur))
		h.ObserveCompute(name, 10*time.Millisecond, 0)
		prev = id
	}
	g.Node(prev).Output = true
	return g, tasks, h, &order, &mu
}

// TestAdaptiveRepriotizesMidRun is the tentpole's behavioural pin: under a
// lying history, static weights bury the chain behind every decoy, while a
// forced adaptive pass corrects the decoy group off the first measured
// completions and the chain dispatches before the remaining decoys.
func TestAdaptiveRepriotizesMidRun(t *testing.T) {
	const decoys = 12
	pos := func(order []string, name string) int {
		for i, n := range order {
			if n == name {
				return i
			}
		}
		return -1
	}
	run := func(mode Reweight) []string {
		g, tasks, h, order, mu := liarProbeDAG(decoys, 200*time.Microsecond)
		e := &Engine{
			Workers:               1,
			History:               h,
			Reweight:              mode,
			ReweightInterval:      2,
			ReweightMinDivergence: time.Nanosecond,
		}
		res, err := e.Execute(g, tasks, allCompute(g.Len()))
		if err != nil {
			t.Fatal(err)
		}
		if mode == Adaptive && res.Reweights == 0 {
			t.Fatal("adaptive run performed no passes despite forced trigger")
		}
		if mode == ReweightOff && res.Reweights != 0 {
			t.Fatalf("static run reported %d passes", res.Reweights)
		}
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), (*order)...)
	}

	static := run(ReweightOff)
	if p := pos(static, "liar0"); p != decoys+1 {
		t.Fatalf("static dispatch ran liar0 at position %d, want %d (after every decoy): %v", p, decoys+1, static)
	}
	adaptive := run(Adaptive)
	if p := pos(adaptive, "liar0"); p >= decoys {
		t.Errorf("adaptive dispatch never re-prioritized: liar0 at position %d of %v", p, adaptive)
	}
}

// TestReweightDefaultsQuietOnAccurateEstimates: with estimates that match
// reality to within the divergence thresholds, the default trigger never
// fires — honest runs pay zero passes.
func TestReweightDefaultsQuietOnAccurateEstimates(t *testing.T) {
	g, tasks, _, _, _ := liarProbeDAG(8, 10*time.Millisecond)
	h := NewHistory()
	for i := 0; i < g.Len(); i++ {
		// Accurate claims — including the root, which sleeps 0: every node's
		// estimate matches its real duration, so sleep jitter may cross the
		// absolute divergence floor but stays far under the 50%-of-estimates
		// relative bar (10ms sleeps would need 5ms of overshoot per node).
		d := 10 * time.Millisecond
		if g.Node(dag.NodeID(i)).Name == "root" {
			d = 100 * time.Microsecond
		}
		h.ObserveCompute(g.Node(dag.NodeID(i)).Name, d, 0)
	}
	e := &Engine{Workers: 4, History: h} // Adaptive by default
	res, err := e.Execute(g, tasks, allCompute(g.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reweights != 0 {
		t.Errorf("accurate-estimate run paid %d passes, want 0", res.Reweights)
	}
}

// TestReweighterTriggerWindow pins the trigger arithmetic: a pass needs
// the completion interval, the absolute divergence floor, and divergence
// at least half the accumulated estimates.
func TestReweighterTriggerWindow(t *testing.T) {
	g := dag.New()
	a := g.MustAddNode("a", "op")
	b := g.MustAddNode("b", "op")
	g.MustAddEdge(a, b)
	order, err := g.Topo()
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{ReweightInterval: 2, ReweightMinDivergence: time.Millisecond}
	rc := &runCtx{e: e, g: g}
	rw := newReweighter(rc, order, []int64{int64(time.Millisecond), int64(time.Millisecond)}, []int64{2, 1})

	rw.observe(a, int64(10*time.Millisecond)) // 9ms divergence, 1 completion
	if rw.shouldPass() {
		t.Error("trigger fired below the completion interval")
	}
	rw.observe(b, int64(time.Millisecond)) // accurate: no extra divergence
	if !rw.shouldPass() {
		t.Error("trigger silent with 2 completions, 9ms divergence over 2ms estimates")
	}
	rw.maybePass()
	if got := rw.passes.Load(); got != 1 {
		t.Fatalf("passes = %d, want 1", got)
	}
	// The pass resets the window: no further completions, no second pass.
	rw.maybePass()
	if got := rw.passes.Load(); got != 1 {
		t.Errorf("pass ran on an empty window: passes = %d", got)
	}
}

// TestReweighterSkipsStartedNodes: a pass corrects only not-yet-started
// nodes; started nodes keep their cost and weight.
func TestReweighterSkipsStartedNodes(t *testing.T) {
	g := dag.New()
	a := g.MustAddNode("a", "op")
	b := g.MustAddNode("b", "op")
	c := g.MustAddNode("c", "op")
	g.MustAddEdge(a, b)
	g.MustAddEdge(b, c)
	order, _ := g.Topo()
	e := &Engine{ReweightInterval: 1, ReweightMinDivergence: time.Nanosecond}
	rc := &runCtx{e: e, g: g}
	ms := int64(time.Millisecond)
	rw := newReweighter(rc, order, []int64{ms, ms, ms}, []int64{3 * ms, 2 * ms, ms})

	rw.markStarted(a)
	rw.observe(a, 10*ms) // 10× the estimate: op "op" corrects ×10
	rw.maybePass()
	if got := rw.passes.Load(); got != 1 {
		t.Fatalf("passes = %d, want 1", got)
	}
	w, epoch := rw.current()
	if epoch != 1 {
		t.Fatalf("epoch = %d, want 1", epoch)
	}
	// b and c were corrected to 10ms each; a keeps its published weight.
	if w[c] != 10*ms {
		t.Errorf("weight[c] = %d, want %d", w[c], 10*ms)
	}
	if w[b] != 20*ms {
		t.Errorf("weight[b] = %d, want %d", w[b], 20*ms)
	}
	if w[a] != 3*ms {
		t.Errorf("weight[a] = %d (started node re-weighted), want untouched %d", w[a], 3*ms)
	}
	if got := rw.cost[a].Load(); got != ms {
		t.Errorf("cost[a] = %d (started node corrected), want %d", got, ms)
	}
}

// TestReweighterCorrectionDoesNotCompound: the per-group sums are a
// per-pass window, so a group corrected accurately by pass 1 is not
// re-multiplied by its stale lifetime ratio when an unrelated group
// triggers pass 2.
func TestReweighterCorrectionDoesNotCompound(t *testing.T) {
	g := dag.New()
	a := g.MustAddNode("a", "liar") // finished: reveals the lie
	b := g.MustAddNode("b", "liar") // pending: corrected by pass 1
	c := g.MustAddNode("c", "other")
	g.MustAddEdge(a, b)
	g.MustAddEdge(b, c)
	order, _ := g.Topo()
	e := &Engine{ReweightInterval: 1, ReweightMinDivergence: time.Nanosecond}
	rc := &runCtx{e: e, g: g}
	ms := int64(time.Millisecond)
	rw := newReweighter(rc, order, []int64{ms, ms, ms}, []int64{3 * ms, 2 * ms, ms})

	rw.markStarted(a)
	rw.observe(a, 10*ms) // liar group is 10× its estimate
	rw.maybePass()
	if got := rw.cost[b].Load(); got != 10*ms {
		t.Fatalf("cost[b] after pass 1 = %d, want %d", got, 10*ms)
	}
	// An unrelated group diverges; the liar group has no new observations
	// this window, so its corrected cost must not be multiplied again.
	rw.markStarted(c)
	rw.observe(c, 10*ms)
	rw.maybePass()
	if got := rw.passes.Load(); got != 2 {
		t.Fatalf("passes = %d, want 2", got)
	}
	if got := rw.cost[b].Load(); got != 10*ms {
		t.Errorf("cost[b] after pass 2 = %d, want %d (lifetime ratio re-applied?)", got, 10*ms)
	}
}

// TestNodeHeapEpochFix: a heap sorted under old weights re-sorts itself on
// its next fix() after a pass publishes, and pops in the new order.
func TestNodeHeapEpochFix(t *testing.T) {
	g := dag.New()
	a := g.MustAddNode("a", "op")
	b := g.MustAddNode("b", "op")
	order, _ := g.Topo()
	e := &Engine{ReweightInterval: 1, ReweightMinDivergence: time.Nanosecond}
	rc := &runCtx{e: e, g: g}
	oldW := []int64{10, 1} // a first
	rw := newReweighter(rc, order, []int64{1, 1}, oldW)

	h := &nodeHeap{weight: oldW}
	h.push(a)
	h.push(b)

	// Publish inverted weights under a new epoch.
	newW := []int64{1, 10} // b first
	rw.weights.Store(&newW)
	rw.epoch.Add(1)

	rw.fix(h)
	if h.epoch != 1 {
		t.Fatalf("heap epoch = %d after fix, want 1", h.epoch)
	}
	if got := h.pop(); got != b {
		t.Errorf("post-fix pop = %v, want b (new weights)", got)
	}
	// Second fix at the same epoch is a no-op.
	rw.fix(h)
	if got := h.pop(); got != a {
		t.Errorf("second pop = %v, want a", got)
	}
}
