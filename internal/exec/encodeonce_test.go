package exec

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/opt"
	"repro/internal/store"
)

// materializedCount tallies nodes the run persisted.
func materializedCount(res *Result) int {
	n := 0
	for _, nr := range res.Nodes {
		if nr.Materialized {
			n++
		}
	}
	return n
}

// TestEncodeOncePerMaterializedValue is the encode-once acceptance check:
// with cold history (so the size probe must serialize), the store codec
// performs exactly one encode per materialized value — the probe
// encoding is threaded through to the persist instead of re-encoding.
// Asserted via the instrumented codec counter.
func TestEncodeOncePerMaterializedValue(t *testing.T) {
	// "worksteal" is this subtest's historical name; it runs the shared-heap dispatcher.
	t.Run("worksteal", func(t *testing.T) {
		g, tasks := buildChain(t)
		// Fresh keys so every value is a materialization candidate.
		for i := range tasks {
			tasks[i].Key = fmt.Sprintf("enc-once-%d", i)
		}
		st, err := store.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		e := &Engine{Workers: 4, Store: st, Policy: opt.MaterializeAll{}}
		before := store.EncodeCalls()
		res, err := e.Execute(g, tasks, allCompute(g.Len()))
		if err != nil {
			t.Fatal(err)
		}
		encodes := store.EncodeCalls() - before
		mat := materializedCount(res)
		if mat != g.Len() {
			t.Fatalf("materialized %d of %d nodes", mat, g.Len())
		}
		if encodes != int64(mat) {
			t.Errorf("%d encodes for %d materialized values, want exactly one each", encodes, mat)
		}
	})
}

// TestEncodeOnceWarmHistory: with sizes already learned, the decision uses
// the history estimate and the single encode happens at persist time —
// still exactly one per materialized value.
func TestEncodeOnceWarmHistory(t *testing.T) {
	g, tasks := buildChain(t)
	for i := range tasks {
		tasks[i].Key = fmt.Sprintf("enc-warm-%d", i)
	}
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHistory()
	for _, name := range []string{"a", "b", "c"} {
		h.ObserveSize(name, 32)
	}
	e := &Engine{Workers: 2, Store: st, Policy: opt.MaterializeAll{}, History: h}
	before := store.EncodeCalls()
	res, err := e.Execute(g, tasks, allCompute(g.Len()))
	if err != nil {
		t.Fatal(err)
	}
	encodes := store.EncodeCalls() - before
	if mat := materializedCount(res); encodes != int64(mat) {
		t.Errorf("%d encodes for %d materialized values under warm history", encodes, mat)
	}
}

// TestMatWriterDedupesInFlightKeys: two nodes sharing one result signature
// must not race to double-write — the second submission is dropped while
// the first is still in flight, so the value is encoded and persisted once
// and the budget is charged once.
func TestMatWriterDedupesInFlightKeys(t *testing.T) {
	g := dag.New()
	a := g.MustAddNode("a", "op")
	b := g.MustAddNode("b", "op")
	join := g.MustAddNode("join", "agg")
	g.MustAddEdge(a, join)
	g.MustAddEdge(b, join)
	g.Node(join).Output = true
	// a and b produce the identical value under the identical key — the
	// shared-subcomputation case content addressing creates.
	tasks := []Task{
		{Key: "shared-key", Run: func(context.Context, []any) (any, error) { return "same", nil }},
		{Key: "shared-key", Run: func(context.Context, []any) (any, error) { return "same", nil }},
		{Key: "kjoin", Run: func(_ context.Context, in []any) (any, error) { return in[0].(string) + in[1].(string), nil }},
	}
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Workers: 4, Store: st, Policy: opt.MaterializeAll{}}
	before := store.EncodeCalls()
	if _, err := e.Execute(g, tasks, allCompute(g.Len())); err != nil {
		t.Fatal(err)
	}
	if !st.Has("shared-key") || !st.Has("kjoin") {
		t.Fatal("expected both keys persisted")
	}
	// One encode for the shared key, one for the join.
	if encodes := store.EncodeCalls() - before; encodes != 2 {
		t.Errorf("%d encodes, want 2 (shared key submitted once)", encodes)
	}
	entry, _ := st.Lookup("shared-key")
	if st.Used() != entry.Size+mustLookupSize(t, st, "kjoin") {
		t.Errorf("store used %d bytes: shared key double-charged (entry %d)", st.Used(), entry.Size)
	}
}

// TestAncestorCostOverlapsRunningAncestor pins the interleaving where a
// cost-sensitive policy's ancestor walk runs while an ancestor is still
// computing: compute A → load L → compute X, so X is dispatched the moment
// L's load returns and its materialization decision (OnlineHeuristic reads
// the recomputation-chain term) overlaps A's compute. The walk must read
// the atomic duration plane — under -race this test is the regression
// guard for the res.Nodes Duration race — and fall back to the history
// estimate for the still-running ancestor.
func TestAncestorCostOverlapsRunningAncestor(t *testing.T) {
	g := dag.New()
	a := g.MustAddNode("slow-anc", "op")
	l := g.MustAddNode("cut", "op")
	x := g.MustAddNode("x", "op")
	g.MustAddEdge(a, l)
	g.MustAddEdge(l, x)
	g.Node(a).Output = true
	g.Node(x).Output = true
	tasks := []Task{
		{Key: "anc-a", Run: func(context.Context, []any) (any, error) {
			time.Sleep(30 * time.Millisecond)
			return 1, nil
		}},
		{Key: "anc-l", Run: func(_ context.Context, in []any) (any, error) { return in[0].(int) + 1, nil }},
		{Key: "anc-x", Run: func(_ context.Context, in []any) (any, error) { return in[0].(int) * 2, nil }},
	}
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("anc-l", 2); err != nil {
		t.Fatal(err)
	}
	plan := allCompute(3)
	plan.States[l] = opt.Load
	e := &Engine{Workers: 2, Store: st, Policy: opt.OnlineHeuristic{}}
	res, err := e.Execute(g, tasks, plan)
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Values[x]; v.(int) != 4 {
		t.Errorf("x = %v, want 4", v)
	}
	if res.Nodes[a].Duration < 30*time.Millisecond {
		t.Errorf("ancestor duration %v not recorded post-join", res.Nodes[a].Duration)
	}
}

func mustLookupSize(t *testing.T, st *store.Store, key string) int64 {
	t.Helper()
	e, ok := st.Lookup(key)
	if !ok {
		t.Fatalf("key %s missing", key)
	}
	return e.Size
}
