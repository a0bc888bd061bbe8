package exec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/dag"
	"repro/internal/opt"
	"repro/internal/store"
)

func TestRecomputeAfterVanishedFile(t *testing.T) {
	// A planned load whose backing file vanished out from under the store
	// (single tier, no spill) recovers by lineage recompute.
	// "worksteal" is this subtest's historical name; it runs the shared-heap dispatcher.
	t.Run("worksteal", func(t *testing.T) {
		g, tasks := buildChain(t)
		dir := t.TempDir()
		st, err := store.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		prime := &Engine{Workers: 2, Store: st, Policy: opt.MaterializeAll{}}
		if _, err := prime.Execute(g, tasks, allCompute(3)); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(dir, "kb")); err != nil {
			t.Fatal(err)
		}
		plan := allCompute(3)
		plan.States[0] = opt.Prune
		plan.States[1] = opt.Load
		e := &Engine{Workers: 2, Store: st}
		res, err := e.Execute(g, tasks, plan)
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := res.Value(g, "c"); !ok || v.(string) != "abc" {
			t.Fatalf("c = %v, %v", v, ok)
		}
		if res.Recomputes < 1 {
			t.Fatalf("Recomputes = %d, want >= 1", res.Recomputes)
		}
	})
}

// TestVanishedFileDroppedAndRematerialized: an entry whose file vanished is
// deleted on its failed load, in either tier, so the recomputed value is
// re-materialized and the next iteration's load succeeds instead of
// recomputing the node on every iteration.
func TestVanishedFileDroppedAndRematerialized(t *testing.T) {
	for _, spill := range []bool{false, true} {
		t.Run(fmt.Sprintf("spill=%v", spill), func(t *testing.T) {
			g, tasks := buildChain(t)
			hotDir, coldDir := t.TempDir(), t.TempDir()
			dir, hotBudget := hotDir, int64(0)
			var cold *store.Store
			if spill {
				// A one-byte hot tier spills every value to the cold tier.
				dir, hotBudget = coldDir, 1
				var err error
				if cold, err = store.OpenSpill(coldDir, 0); err != nil {
					t.Fatal(err)
				}
			}
			hot, err := store.Open(hotDir, hotBudget)
			if err != nil {
				t.Fatal(err)
			}
			e := &Engine{Workers: 2, Store: hot, Spill: cold, Policy: opt.MaterializeAll{}}
			if _, err := e.Execute(g, tasks, allCompute(3)); err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(filepath.Join(dir, "kb")); err != nil {
				t.Fatal(err)
			}
			plan := allCompute(3)
			plan.States[0] = opt.Prune
			plan.States[1] = opt.Load
			for iter, wantRecomputes := range []int64{1, 0} {
				res, err := e.Execute(g, tasks, plan)
				if err != nil {
					t.Fatal(err)
				}
				if v, ok := res.Value(g, "c"); !ok || v.(string) != "abc" {
					t.Fatalf("iteration %d: c = %v, %v", iter+2, v, ok)
				}
				if res.Recomputes != wantRecomputes {
					t.Errorf("iteration %d: Recomputes = %d, want %d", iter+2, res.Recomputes, wantRecomputes)
				}
				if wantRecomputes > 0 && !res.Nodes[1].Materialized {
					t.Errorf("iteration %d: recomputed b not re-materialized", iter+2)
				}
			}
		})
	}
}

// TestRecoveryLoadsStoredPrunedAncestor: when a planned load fails, its
// recovery loads every ancestor that is intact in the store — a pruned one
// too — instead of recomputing it, so one damaged value costs one operator
// run.
func TestRecoveryLoadsStoredPrunedAncestor(t *testing.T) {
	g, tasks := buildChain(t)
	ref, err := (&Engine{Workers: 1}).Execute(g, tasks, allCompute(3))
	if err != nil {
		t.Fatal(err)
	}
	var aCalls atomic.Int32
	innerA := tasks[0].Run
	tasks[0].Run = func(ctx context.Context, in []any) (any, error) {
		aCalls.Add(1)
		return innerA(ctx, in)
	}
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("ka", ref.Values[0]); err != nil {
		t.Fatal(err)
	}
	if err := st.PutBytes("kb", append([]byte{'G'}, "legacy gob payload"...)); err != nil {
		t.Fatal(err)
	}
	plan := allCompute(3)
	plan.States[0] = opt.Prune
	plan.States[1] = opt.Load
	res, err := (&Engine{Workers: 2, Store: st}).Execute(g, tasks, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recomputes != 1 || res.CorruptFrames != 1 {
		t.Errorf("recomputes %d, corrupt %d; want 1 and 1", res.Recomputes, res.CorruptFrames)
	}
	if n := aCalls.Load(); n != 0 {
		t.Errorf("stored pruned ancestor a recomputed %d times", n)
	}
	got, ok := res.Value(g, "c")
	if !ok {
		t.Fatal("c missing")
	}
	want, _ := ref.Value(g, "c")
	gotRaw, err := store.Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	wantRaw, err := store.Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotRaw, wantRaw) {
		t.Errorf("c = %v, reference %v", got, want)
	}
}

// TestUndecodableLoadsDroppedAndRematerialized: a stored payload that fails
// to decode — here a gob-tagged entry an older version wrote, one in each
// tier — must be deleted on its failed load, so the recomputed value is
// re-materialized and the next cost model plans a load that succeeds
// instead of one that always falls back to recompute.
func TestUndecodableLoadsDroppedAndRematerialized(t *testing.T) {
	g := dag.New()
	g.Node(g.MustAddNode("x", "scan")).Output = true
	g.Node(g.MustAddNode("y", "scan")).Output = true
	tasks := []Task{
		{Key: "kx", Run: func(context.Context, []any) (any, error) { return "value-x", nil }},
		{Key: "ky", Run: func(context.Context, []any) (any, error) { return "value-y", nil }},
	}
	hot, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := store.OpenSpill(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	legacy := append([]byte{'G'}, "legacy gob payload"...)
	if err := hot.PutBytes("kx", legacy); err != nil {
		t.Fatal(err)
	}
	if err := cold.PutBytes("ky", legacy); err != nil {
		t.Fatal(err)
	}
	e := &Engine{Workers: 2, Store: hot, Spill: cold, Policy: opt.MaterializeAll{}}
	plan := &opt.Plan{States: []opt.State{opt.Load, opt.Load}}
	res, err := e.Execute(g, tasks, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recomputes != 2 || res.CorruptFrames != 2 {
		t.Errorf("recomputes %d, corrupt %d; want 2 and 2", res.Recomputes, res.CorruptFrames)
	}
	for i, name := range []string{"x", "y"} {
		if v, _ := res.Value(g, name); v != "value-"+name {
			t.Errorf("%s = %v", name, v)
		}
		if !res.Nodes[i].Materialized {
			t.Errorf("%s: recovered value not re-materialized", name)
		}
	}
	cm, err := e.BuildCostModel(g, tasks)
	if err != nil {
		t.Fatal(err)
	}
	for i, task := range tasks {
		if !cm.Loadable[i] {
			t.Errorf("%s not loadable after re-materialization", task.Key)
			continue
		}
		if v, _, err := e.tiers().Get(task.Key); err != nil || v != "value-"+g.Node(dag.NodeID(i)).Name {
			t.Errorf("%s loads %v, %v", task.Key, v, err)
		}
	}
}

// TestRecoveryRematerializesRecomputedAncestors: when a planned load and
// its stored parent both hold undecodable payloads, recovery recomputes
// both, and both go back to the writer — not just the failed load — so the
// next cost model plans both as loads instead of computing the parent
// again.
func TestRecoveryRematerializesRecomputedAncestors(t *testing.T) {
	g, tasks := buildChain(t)
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	legacy := append([]byte{'G'}, "legacy gob payload"...)
	for _, key := range []string{"ka", "kb"} {
		if err := st.PutBytes(key, legacy); err != nil {
			t.Fatal(err)
		}
	}
	plan := allCompute(3)
	plan.States[0] = opt.Prune
	plan.States[1] = opt.Load
	e := &Engine{Workers: 2, Store: st, Policy: opt.MaterializeAll{}}
	res, err := e.Execute(g, tasks, plan)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Value(g, "c"); v != "abc" {
		t.Fatalf("c = %v", v)
	}
	if res.Recomputes != 2 || res.CorruptFrames != 2 {
		t.Errorf("recomputes %d, corrupt %d; want 2 and 2", res.Recomputes, res.CorruptFrames)
	}
	for i, want := range []string{"a", "ab"} {
		if !res.Nodes[i].Materialized {
			t.Errorf("%s: recomputed value not re-materialized", g.Node(dag.NodeID(i)).Name)
		}
		if v, _, err := e.tiers().Get(tasks[i].Key); err != nil || v != want {
			t.Errorf("%s loads %v, %v; want %q", tasks[i].Key, v, err, want)
		}
	}
	cm, err := e.BuildCostModel(g, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if !cm.Loadable[0] || !cm.Loadable[1] {
		t.Errorf("loadable = %v, want ka and kb loadable", cm.Loadable)
	}
}

func TestPinSetReleaseOnce(t *testing.T) {
	hot, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := store.OpenSpill(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tv := store.NewTiered(hot, cold)
	tasks := []Task{{Key: "ka"}, {Key: "kb"}, {Key: ""}}
	plan := &opt.Plan{States: []opt.State{opt.Load, opt.Compute, opt.Load}}
	p := newPinSet(tv, tasks, plan)
	if !cold.Pinned("ka") {
		t.Fatal("planned-load key not pinned at run start")
	}
	if cold.Pinned("kb") {
		t.Fatal("compute-state key pinned")
	}
	p.release(0)
	if cold.Pinned("ka") {
		t.Fatal("key still pinned after its load released it")
	}
	// The end-of-run sweep must not double-unpin an already-released key:
	// pin it again externally and confirm the sweep leaves it alone.
	tv.Pin("ka")
	p.releaseAll()
	if !cold.Pinned("ka") {
		t.Fatal("releaseAll double-unpinned a key its load already released")
	}
	tv.Unpin("ka")

	// A nil pinSet (no spill tier) is a valid no-op receiver.
	var nilPins *pinSet
	nilPins.release(0)
	nilPins.releaseAll()
}

func TestDropCollateralCancels(t *testing.T) {
	boom := errors.New("root cause")
	mixed := []error{context.Canceled, boom, fmt.Errorf("worker: %w", context.Canceled)}
	got := dropCollateralCancels(mixed)
	if len(got) != 1 || !errors.Is(got[0], boom) {
		t.Fatalf("got %v, want just the root cause", got)
	}
	onlyCancels := []error{context.Canceled, fmt.Errorf("w: %w", context.Canceled)}
	if got := dropCollateralCancels(onlyCancels); len(got) != 2 {
		t.Fatalf("external cancellation lost: got %v", got)
	}
}
