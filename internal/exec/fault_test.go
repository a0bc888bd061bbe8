package exec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/opt"
	"repro/internal/store"
)

func TestClassifyDefault(t *testing.T) {
	cases := []struct {
		err  error
		want ErrorClass
	}{
		{ErrTransient, ClassTransient},
		{fmt.Errorf("flaky source: %w", ErrTransient), ClassTransient},
		{context.DeadlineExceeded, ClassTransient},
		{fmt.Errorf("attempt timed out: %w", context.DeadlineExceeded), ClassTransient},
		{errors.New("segfault in operator"), ClassFatal},
		{context.Canceled, ClassFatal},
	}
	for _, tc := range cases {
		if got := ClassifyDefault(tc.err); got != tc.want {
			t.Errorf("ClassifyDefault(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	p := FaultPolicy{BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond, JitterSeed: 42}
	for _, id := range []dag.NodeID{0, 3, 17} {
		for attempt := 1; attempt <= 6; attempt++ {
			raw := p.BaseBackoff << (attempt - 1)
			if raw > p.MaxBackoff {
				raw = p.MaxBackoff
			}
			d := p.backoff(id, attempt)
			if d < raw/2 || d > raw {
				t.Errorf("backoff(node %d, attempt %d) = %v, want within [%v, %v]", id, attempt, d, raw/2, raw)
			}
			if again := p.backoff(id, attempt); again != d {
				t.Errorf("backoff(node %d, attempt %d) not deterministic: %v then %v", id, attempt, d, again)
			}
		}
	}
	// Different seeds decorrelate the jitter stream (deterministically, so
	// this assertion is stable).
	q := p
	q.JitterSeed = 43
	same := 0
	for attempt := 1; attempt <= 6; attempt++ {
		if p.backoff(0, attempt) == q.backoff(0, attempt) {
			same++
		}
	}
	if same == 6 {
		t.Error("jitter identical across seeds 42 and 43 for every attempt")
	}
}

func TestBackoffZeroPolicyUsesDefaults(t *testing.T) {
	var p FaultPolicy
	for attempt := 1; attempt <= 12; attempt++ {
		d := p.backoff(1, attempt)
		if d <= 0 || d > defaultMaxBackoff {
			t.Fatalf("attempt %d: backoff %v outside (0, %v]", attempt, d, defaultMaxBackoff)
		}
	}
}

func TestRetryTransientThenSucceed(t *testing.T) {
	// "worksteal" is this subtest's historical name; it runs the shared-heap dispatcher.
	t.Run("worksteal", func(t *testing.T) {
		g, tasks := buildChain(t)
		var calls atomic.Int32
		inner := tasks[1].Run
		tasks[1].Run = func(ctx context.Context, in []any) (any, error) {
			if calls.Add(1) <= 2 {
				return nil, fmt.Errorf("blip %d: %w", calls.Load(), ErrTransient)
			}
			return inner(ctx, in)
		}
		e := &Engine{Workers: 2, Faults: FaultPolicy{MaxAttempts: 4, BaseBackoff: time.Microsecond, MaxBackoff: 10 * time.Microsecond}}
		res, err := e.Execute(g, tasks, allCompute(3))
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := res.Value(g, "c"); !ok || v.(string) != "abc" {
			t.Fatalf("c = %v, %v", v, ok)
		}
		if res.Retries != 2 {
			t.Fatalf("Retries = %d, want 2", res.Retries)
		}
	})
}

func TestRetryBudgetExhausted(t *testing.T) {
	g, tasks := buildChain(t)
	var calls atomic.Int32
	tasks[1].Run = func(context.Context, []any) (any, error) {
		calls.Add(1)
		return nil, fmt.Errorf("never recovers: %w", ErrTransient)
	}
	e := &Engine{Workers: 2, Faults: FaultPolicy{MaxAttempts: 3, BaseBackoff: time.Microsecond}}
	_, err := e.Execute(g, tasks, allCompute(3))
	if err == nil {
		t.Fatal("run succeeded with a permanently failing node")
	}
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v, want the operator error preserved", err)
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("err = %v, want the attempt count surfaced", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("operator ran %d times, want exactly the 3-attempt budget", got)
	}
}

func TestFatalErrorNeverRetried(t *testing.T) {
	g, tasks := buildChain(t)
	boom := errors.New("operator bug")
	var calls atomic.Int32
	tasks[1].Run = func(context.Context, []any) (any, error) {
		calls.Add(1)
		return nil, boom
	}
	e := &Engine{Workers: 2, Faults: FaultPolicy{MaxAttempts: 5, BaseBackoff: time.Microsecond}}
	res, err := e.Execute(g, tasks, allCompute(3))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the fatal error", err)
	}
	if strings.Contains(err.Error(), "attempts") {
		t.Fatalf("err = %v; a first-attempt fatal must not be wrapped in retry accounting", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("fatal operator ran %d times, want 1", calls.Load())
	}
	if res != nil && res.Retries != 0 {
		t.Fatalf("Retries = %d, want 0", res.Retries)
	}
}

func TestCustomClassifier(t *testing.T) {
	g, tasks := buildChain(t)
	flaky := errors.New("my own flaky error")
	var calls atomic.Int32
	inner := tasks[1].Run
	tasks[1].Run = func(ctx context.Context, in []any) (any, error) {
		if calls.Add(1) == 1 {
			return nil, flaky
		}
		return inner(ctx, in)
	}
	e := &Engine{Workers: 2, Faults: FaultPolicy{
		MaxAttempts: 3,
		BaseBackoff: time.Microsecond,
		Classify: func(err error) ErrorClass {
			if errors.Is(err, flaky) {
				return ClassTransient
			}
			return ClassFatal
		},
	}}
	res, err := e.Execute(g, tasks, allCompute(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries != 1 {
		t.Fatalf("Retries = %d, want 1", res.Retries)
	}
}

func TestNodeTimeoutInterruptsSlowAttempt(t *testing.T) {
	g, tasks := buildChain(t)
	var calls atomic.Int32
	inner := tasks[1].Run
	tasks[1].Run = func(ctx context.Context, in []any) (any, error) {
		if calls.Add(1) == 1 {
			// A ctx-honoring stall far past the node deadline: only the
			// per-attempt timeout can end it promptly.
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(10 * time.Second):
				return nil, errors.New("deadline never fired")
			}
		}
		return inner(ctx, in)
	}
	e := &Engine{Workers: 2, Faults: FaultPolicy{
		MaxAttempts: 3,
		BaseBackoff: time.Microsecond,
		NodeTimeout: 5 * time.Millisecond,
	}}
	start := time.Now()
	res, err := e.Execute(g, tasks, allCompute(3))
	if err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > 2*time.Second {
		t.Fatalf("run took %v; the deadline did not interrupt the stalled attempt", wall)
	}
	if v, ok := res.Value(g, "c"); !ok || v.(string) != "abc" {
		t.Fatalf("c = %v, %v", v, ok)
	}
	if res.Retries < 1 {
		t.Fatalf("Retries = %d, want the deadline expiry retried", res.Retries)
	}
}

func TestRetriesDuringRecompute(t *testing.T) {
	// A failed load's recovery runs operators under the same fault policy:
	// a transient fault inside the recompute retries there too.
	g, tasks := buildChain(t)
	dir := t.TempDir()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var bCalls atomic.Int32
	innerB := tasks[1].Run
	tasks[1].Run = func(ctx context.Context, in []any) (any, error) {
		if bCalls.Add(1) == 1 {
			return nil, fmt.Errorf("recompute blip: %w", ErrTransient)
		}
		return innerB(ctx, in)
	}
	e := &Engine{Workers: 2, Store: st, Policy: opt.MaterializeAll{},
		Faults: FaultPolicy{MaxAttempts: 3, BaseBackoff: time.Microsecond}}
	if _, err := e.Execute(g, tasks, allCompute(3)); err != nil {
		t.Fatal(err)
	}
	// Damage the persisted value of b, then plan to load it.
	if err := os.Remove(filepath.Join(dir, "kb")); err != nil {
		t.Fatal(err)
	}
	bCalls.Store(0)
	plan := allCompute(3)
	plan.States[0] = opt.Prune
	plan.States[1] = opt.Load
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
	if res.Retries < 1 {
		t.Fatalf("Retries = %d, want the recompute's transient fault retried", res.Retries)
	}
}

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
