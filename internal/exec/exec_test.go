package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/opt"
	"repro/internal/store"
)

// buildChain returns a->b->c with c output, plus tasks that concatenate
// their input with the node name.
func buildChain(t *testing.T) (*dag.Graph, []Task) {
	t.Helper()
	g := dag.New()
	a := g.MustAddNode("a", "scan")
	b := g.MustAddNode("b", "extract")
	c := g.MustAddNode("c", "learner")
	g.MustAddEdge(a, b)
	g.MustAddEdge(b, c)
	g.Node(c).Output = true
	tasks := []Task{
		{Key: "ka", Run: func(context.Context, []any) (any, error) { return "a", nil }},
		{Key: "kb", Run: func(_ context.Context, in []any) (any, error) { return in[0].(string) + "b", nil }},
		{Key: "kc", Run: func(_ context.Context, in []any) (any, error) { return in[0].(string) + "c", nil }},
	}
	return g, tasks
}

func allCompute(n int) *opt.Plan {
	states := make([]opt.State, n)
	for i := range states {
		states[i] = opt.Compute
	}
	return &opt.Plan{States: states}
}

func TestExecuteComputeChain(t *testing.T) {
	g, tasks := buildChain(t)
	e := &Engine{}
	res, err := e.Execute(g, tasks, allCompute(3))
	if err != nil {
		t.Fatal(err)
	}
	v, ok := res.Value(g, "c")
	if !ok || v.(string) != "abc" {
		t.Errorf("c = %v, %v", v, ok)
	}
	if res.Wall <= 0 {
		t.Error("wall time not measured")
	}
	for i, nr := range res.Nodes {
		if nr.State != opt.Compute {
			t.Errorf("node %d state %v", i, nr.State)
		}
	}
}

func TestExecutePrunedNodesSkipped(t *testing.T) {
	g, tasks := buildChain(t)
	dead := g.MustAddNode("dead", "x")
	g.MustAddEdge(g.Lookup("a"), dead)
	ran := int32(0)
	tasks = append(tasks, Task{Key: "kd", Run: func(context.Context, []any) (any, error) {
		atomic.AddInt32(&ran, 1)
		return "dead", nil
	}})
	plan := allCompute(4)
	plan.States[dead] = opt.Prune
	e := &Engine{}
	res, err := e.Execute(g, tasks, plan)
	if err != nil {
		t.Fatal(err)
	}
	if ran != 0 {
		t.Error("pruned node executed")
	}
	if _, ok := res.Values[dead]; ok {
		t.Error("pruned node has a value")
	}
}

func TestExecuteLoadFromStore(t *testing.T) {
	g, tasks := buildChain(t)
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("kb", "ab"); err != nil {
		t.Fatal(err)
	}
	plan := allCompute(3)
	plan.States[0] = opt.Prune
	plan.States[1] = opt.Load
	ranA := int32(0)
	tasks[0].Run = func(context.Context, []any) (any, error) { atomic.AddInt32(&ranA, 1); return "a", nil }
	e := &Engine{Store: st}
	res, err := e.Execute(g, tasks, plan)
	if err != nil {
		t.Fatal(err)
	}
	if ranA != 0 {
		t.Error("pruned ancestor executed")
	}
	v, _ := res.Value(g, "c")
	if v.(string) != "abc" {
		t.Errorf("c = %v", v)
	}
	if res.Nodes[1].State != opt.Load || res.Nodes[1].Duration <= 0 {
		t.Errorf("load accounting wrong: %+v", res.Nodes[1])
	}
}

func TestExecuteLoadWithoutStore(t *testing.T) {
	g, tasks := buildChain(t)
	plan := allCompute(3)
	plan.States[0] = opt.Load
	e := &Engine{}
	if _, err := e.Execute(g, tasks, plan); err == nil {
		t.Fatal("load without store accepted")
	}
}

func TestExecutePropagatesOperatorError(t *testing.T) {
	g, tasks := buildChain(t)
	boom := errors.New("boom")
	tasks[1].Run = func(context.Context, []any) (any, error) { return nil, boom }
	e := &Engine{}
	_, err := e.Execute(g, tasks, allCompute(3))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "b") {
		t.Errorf("error does not name the failing node: %v", err)
	}
}

func TestExecuteValidation(t *testing.T) {
	g, tasks := buildChain(t)
	e := &Engine{}
	if _, err := e.Execute(g, tasks[:1], allCompute(3)); err == nil {
		t.Error("mis-sized tasks accepted")
	}
	if _, err := e.Execute(g, tasks, allCompute(1)); err == nil {
		t.Error("mis-sized plan accepted")
	}
	tasks[2].Run = nil
	if _, err := e.Execute(g, tasks, allCompute(3)); err == nil {
		t.Error("nil Run accepted")
	}
}

func TestExecuteMaterializesWithPolicy(t *testing.T) {
	g, tasks := buildChain(t)
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Store: st, Policy: opt.MaterializeAll{}}
	res, err := e.Execute(g, tasks, allCompute(3))
	if err != nil {
		t.Fatal(err)
	}
	for i, nr := range res.Nodes {
		if !nr.Materialized {
			t.Errorf("node %d not materialized: %+v", i, nr)
		}
		if nr.Size <= 0 {
			t.Errorf("node %d size not recorded", i)
		}
	}
	if !st.Has("ka") || !st.Has("kb") || !st.Has("kc") {
		t.Error("store missing materialized keys")
	}
	// Values round-trip.
	v, err := st.Get("kc")
	if err != nil || v.(string) != "abc" {
		t.Errorf("stored value = %v, %v", v, err)
	}
}

// TestExecuteNilPolicySkipsEncoding: a nil Policy never materializes, even
// with a store attached — no entries, no learned sizes, no encodes.
func TestExecuteNilPolicySkipsEncoding(t *testing.T) {
	g, tasks := buildChain(t)
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Store: st}
	res, err := e.Execute(g, tasks, allCompute(3))
	if err != nil {
		t.Fatal(err)
	}
	for i, nr := range res.Nodes {
		if nr.Materialized || nr.Size != 0 {
			t.Errorf("node %d: %+v", i, nr)
		}
	}
	if len(st.Entries()) != 0 {
		t.Error("nil policy stored entries")
	}
	if res.BinaryEncodes != 0 {
		t.Errorf("BinaryEncodes = %d, want 0", res.BinaryEncodes)
	}
}

func TestExecuteSkipsAlreadyStoredKeys(t *testing.T) {
	g, tasks := buildChain(t)
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("kb", "stale"); err != nil {
		t.Fatal(err)
	}
	e := &Engine{Store: st, Policy: opt.MaterializeAll{}}
	res, err := e.Execute(g, tasks, allCompute(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes[1].Materialized {
		t.Error("re-materialized an existing key")
	}
	// Content addressing means the existing value is identical in real use;
	// the engine must not overwrite.
	v, err := st.Get("kb")
	if err != nil || v.(string) != "stale" {
		t.Errorf("overwrote existing entry: %v", v)
	}
}

// TestExecuteUnencodableValueNotMaterialized: a value with no registered
// codec is never stored and is counted in UnregisteredValues at either
// encode site — the size probe of a node with no size history, and the
// persist after a history-sized yes — while its encodable sibling persists.
func TestExecuteUnencodableValueNotMaterialized(t *testing.T) {
	type unregistered struct{ X int }
	for _, withHistory := range []bool{false, true} {
		g, tasks := buildChain(t)
		st, err := store.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		tasks[0].Run = func(context.Context, []any) (any, error) { return unregistered{1}, nil }
		tasks[1].Run = func(_ context.Context, in []any) (any, error) { return "b", nil }
		e := &Engine{Store: st, Policy: opt.MaterializeAll{}}
		if withHistory {
			e.History = NewHistory()
			e.History.ObserveSize("a", 8)
		}
		res, err := e.Execute(g, tasks, allCompute(3))
		if err != nil {
			t.Fatalf("history=%v: %v", withHistory, err)
		}
		if res.Nodes[0].Materialized || st.Has("ka") {
			t.Errorf("history=%v: unencodable value materialized", withHistory)
		}
		if res.UnregisteredValues != 1 {
			t.Errorf("history=%v: UnregisteredValues = %d, want 1", withHistory, res.UnregisteredValues)
		}
		if !res.Nodes[1].Materialized {
			t.Errorf("history=%v: encodable sibling not materialized", withHistory)
		}
	}
}

func TestExecuteBudgetExhaustionDegrades(t *testing.T) {
	g, tasks := buildChain(t)
	st, err := store.Open(t.TempDir(), 2) // too small for any encoded value
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Store: st, Policy: opt.MaterializeAll{}}
	res, err := e.Execute(g, tasks, allCompute(3))
	if err != nil {
		t.Fatal(err)
	}
	for i, nr := range res.Nodes {
		if nr.Materialized {
			t.Errorf("node %d materialized over budget", i)
		}
	}
	if _, ok := res.Value(g, "c"); !ok {
		t.Error("execution did not complete despite budget exhaustion")
	}
}

// TestExecuteCountsColdEvictions: under cold-budget pressure every value
// spills (the hot tier admits nothing) into a cold tier that holds two of
// them, so each later spill deletes one earlier value. The run's counter
// block must report those deletions, matching the tier's own count.
func TestExecuteCountsColdEvictions(t *testing.T) {
	const n = 5
	g := dag.New()
	tasks := make([]Task, n)
	for i := range tasks {
		id := g.MustAddNode(fmt.Sprintf("v%d", i), "scan")
		g.Node(id).Output = true
		val := strings.Repeat(string(rune('a'+i)), 100)
		tasks[i] = Task{Key: fmt.Sprintf("k%d", i), Run: func(context.Context, []any) (any, error) { return val, nil }}
	}
	raw, err := store.Encode(strings.Repeat("a", 100))
	if err != nil {
		t.Fatal(err)
	}
	hot, err := store.Open(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := store.OpenSpill(t.TempDir(), 2*int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Workers: 2, Store: hot, Spill: cold, Policy: opt.MaterializeAll{}}
	res, err := e.Execute(g, tasks, allCompute(n))
	if err != nil {
		t.Fatal(err)
	}
	if res.Spills != n || res.ColdEvictions != n-2 {
		t.Errorf("spills %d, cold evictions %d; want %d and %d", res.Spills, res.ColdEvictions, n, n-2)
	}
	if got := len(cold.Entries()); got != 2 {
		t.Errorf("cold tier holds %d values, want 2", got)
	}
	if tc := e.TierCounters(); tc.ColdEvictions != res.ColdEvictions {
		t.Errorf("tier counts %d cold evictions, run reports %d", tc.ColdEvictions, res.ColdEvictions)
	}
	var total Counters
	total.Add(res.Counters)
	total.Add(res.Counters)
	if total.ColdEvictions != 2*res.ColdEvictions {
		t.Errorf("Counters.Add summed %d cold evictions, want %d", total.ColdEvictions, 2*res.ColdEvictions)
	}
}

func TestExecuteParallelLevels(t *testing.T) {
	// A wide level of slow nodes should run concurrently: with 8 workers,
	// 8 nodes sleeping 30ms each must finish well under 8*30ms.
	g := dag.New()
	root := g.MustAddNode("root", "scan")
	tasks := []Task{{Run: func(context.Context, []any) (any, error) { return 0, nil }}}
	for i := 0; i < 8; i++ {
		id := g.MustAddNode(fmt.Sprintf("w%d", i), "x")
		g.MustAddEdge(root, id)
		g.Node(id).Output = true
		tasks = append(tasks, Task{Run: func(context.Context, []any) (any, error) {
			time.Sleep(30 * time.Millisecond)
			return 0, nil
		}})
	}
	e := &Engine{Workers: 8}
	start := time.Now()
	if _, err := e.Execute(g, tasks, allCompute(9)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Errorf("level not parallel: took %v", elapsed)
	}
}

func TestExecuteWorkerLimitRespected(t *testing.T) {
	g := dag.New()
	var cur, peak int32
	var tasks []Task
	for i := 0; i < 6; i++ {
		id := g.MustAddNode(fmt.Sprintf("n%d", i), "x")
		g.Node(id).Output = true
		tasks = append(tasks, Task{Run: func(context.Context, []any) (any, error) {
			c := atomic.AddInt32(&cur, 1)
			for {
				p := atomic.LoadInt32(&peak)
				if c <= p || atomic.CompareAndSwapInt32(&peak, p, c) {
					break
				}
			}
			time.Sleep(10 * time.Millisecond)
			atomic.AddInt32(&cur, -1)
			return 0, nil
		}})
	}
	e := &Engine{Workers: 2}
	if _, err := e.Execute(g, tasks, allCompute(6)); err != nil {
		t.Fatal(err)
	}
	if peak > 2 {
		t.Errorf("peak concurrency %d > 2", peak)
	}
}

func TestHistoryObserveAndEstimate(t *testing.T) {
	h := NewHistory()
	if _, ok := h.Compute("x"); ok {
		t.Error("phantom history")
	}
	h.ObserveCompute("x", 5*time.Millisecond, 100)
	d, ok := h.Compute("x")
	if !ok || d != 5*time.Millisecond {
		t.Errorf("compute = %v, %v", d, ok)
	}
	s, ok := h.Size("x")
	if !ok || s != 100 {
		t.Errorf("size = %d, %v", s, ok)
	}
	// Zero size is not recorded.
	h.ObserveCompute("y", time.Millisecond, 0)
	if _, ok := h.Size("y"); ok {
		t.Error("zero size recorded")
	}
}

func TestBuildCostModel(t *testing.T) {
	g, tasks := buildChain(t)
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("kb", "cached"); err != nil {
		t.Fatal(err)
	}
	h := NewHistory()
	h.ObserveCompute("a", 7*time.Millisecond, 10)
	e := &Engine{Store: st, History: h}
	cm, err := e.BuildCostModel(g, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Compute[0] != (7 * time.Millisecond).Nanoseconds() {
		t.Errorf("compute[0] = %d", cm.Compute[0])
	}
	if cm.Compute[1] != 0 {
		t.Errorf("unseen node compute = %d, want 0", cm.Compute[1])
	}
	if !cm.Loadable[1] || cm.Load[1] <= 0 {
		t.Errorf("stored node not loadable: %+v", cm)
	}
	if cm.Loadable[0] || cm.Loadable[2] {
		t.Error("phantom loadable")
	}
	if _, err := e.BuildCostModel(g, tasks[:1]); err == nil {
		t.Error("mis-sized tasks accepted")
	}
}

func TestEngineEndToEndReuse(t *testing.T) {
	// Iteration 1: compute all, materialize all. Iteration 2: optimizer
	// should load instead of recompute, skipping the slow operator.
	g, tasks := buildChain(t)
	slowRan := int32(0)
	tasks[1].Run = func(_ context.Context, in []any) (any, error) {
		atomic.AddInt32(&slowRan, 1)
		time.Sleep(20 * time.Millisecond)
		return in[0].(string) + "b", nil
	}
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHistory()
	e := &Engine{Store: st, Policy: opt.MaterializeAll{}, History: h}

	cm1, err := e.BuildCostModel(g, tasks)
	if err != nil {
		t.Fatal(err)
	}
	plan1, err := opt.Optimal(g, cm1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(g, tasks, plan1); err != nil {
		t.Fatal(err)
	}
	if slowRan != 1 {
		t.Fatalf("iteration 1 should compute the slow node once, ran %d", slowRan)
	}

	// Iteration 2: same workflow (same keys).
	cm2, err := e.BuildCostModel(g, tasks)
	if err != nil {
		t.Fatal(err)
	}
	plan2, err := opt.Optimal(g, cm2)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := e.Execute(g, tasks, plan2)
	if err != nil {
		t.Fatal(err)
	}
	if slowRan != 1 {
		t.Errorf("iteration 2 recomputed the slow node (ran %d times total)", slowRan)
	}
	v, _ := res2.Value(g, "c")
	if v == nil {
		// c may itself be loaded rather than recomputed — either way the
		// output value must exist.
		t.Error("output missing in iteration 2")
	}
}
