package exec

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/opt"
	"repro/internal/store"
)

// layeredDAG builds levels×width layers where every node consumes the whole
// previous layer — the maximum-interleaving shape for refcounted release
// (every completion decrements width counters) racing the async
// materialization writer (every completion also submits a write job).
func layeredDAG(levels, width int, keyTag string) (*dag.Graph, []Task) {
	g := dag.New()
	var prev []dag.NodeID
	var tasks []Task
	for l := 0; l < levels; l++ {
		var cur []dag.NodeID
		for w := 0; w < width; w++ {
			id := g.MustAddNode(fmt.Sprintf("n%d_%d", l, w), "op")
			for _, p := range prev {
				g.MustAddEdge(p, id)
			}
			cur = append(cur, id)
			base := l*width + w
			tasks = append(tasks, Task{
				Key: fmt.Sprintf("k-%s-%d", keyTag, base),
				Run: func(_ context.Context, in []any) (any, error) {
					sum := base
					for _, v := range in {
						sum += v.(int)
					}
					return sum, nil
				},
			})
		}
		prev = cur
	}
	for _, id := range prev {
		g.Node(id).Output = true
	}
	return g, tasks
}

// TestReleaseWriterStress hammers the async materialization writer
// interleaved with refcounted release: fresh keys every iteration keep the
// writer pool busy while completions concurrently drop the very values the
// writer captured. Run under -race in CI, this is the detector's fodder
// for the value-ownership contract (jobs own a reference; release never
// invalidates a pending write).
func TestReleaseWriterStress(t *testing.T) {
	// "worksteal" is this subtest's historical name; it runs the shared-heap dispatcher.
	t.Run("worksteal", func(t *testing.T) {
		st, err := store.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		var gauge store.Gauge
		for iter := 0; iter < 15; iter++ {
			g, tasks := layeredDAG(4, 6, fmt.Sprintf("ok-%d", iter))
			e := &Engine{
				Workers:              8,
				Store:                st,
				Policy:               opt.MaterializeAll{},
				ReleaseIntermediates: true,
				LiveBytes:            &gauge,
			}
			res, err := e.Execute(g, tasks, allCompute(g.Len()))
			if err != nil {
				t.Fatal(err)
			}
			// Only the output layer survives release.
			if want := 6; len(res.Values) != want {
				t.Fatalf("iter %d: %d values retained, want %d outputs", iter, len(res.Values), want)
			}
			// Every computed value must have reached the store despite release.
			for i := range tasks {
				if !st.Has(tasks[i].Key) {
					t.Fatalf("iter %d: key %s missing: release raced the writer", iter, tasks[i].Key)
				}
			}
			if gauge.Live() != 0 {
				t.Fatalf("iter %d: gauge live = %d, want 0 after settlement", iter, gauge.Live())
			}
		}
	})
}

// TestReleaseWriterErrorCancellationStress drives the error path of the
// same interleaving: a mid-graph node fails while siblings are completing,
// submitting writes and releasing inputs. Execute must cancel undispatched
// work, flush the writer — landing every already-submitted write — settle
// the gauge, and still report the failure.
func TestReleaseWriterErrorCancellationStress(t *testing.T) {
	boom := errors.New("boom")
	// "worksteal" is this subtest's historical name; it runs the shared-heap dispatcher.
	t.Run("worksteal", func(t *testing.T) {
		var gauge store.Gauge
		for iter := 0; iter < 15; iter++ {
			st, err := store.Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			g, tasks := layeredDAG(4, 6, fmt.Sprintf("err-%d", iter))
			// Fail one second-layer node; stagger it slightly so first-layer
			// writes and releases are mid-flight when the cancellation lands.
			victim := g.Lookup("n1_3")
			tasks[victim] = Task{Key: tasks[victim].Key, Run: func(ctx context.Context, in []any) (any, error) {
				time.Sleep(time.Duration(iter%3) * 100 * time.Microsecond)
				return nil, boom
			}}
			e := &Engine{
				Workers:              8,
				Store:                st,
				Policy:               opt.MaterializeAll{},
				ReleaseIntermediates: true,
				LiveBytes:            &gauge,
			}
			res, err := e.Execute(g, tasks, allCompute(g.Len()))
			if !errors.Is(err, boom) {
				t.Fatalf("iter %d: err = %v, want boom", iter, err)
			}
			// Whatever completed must be fully accounted: a value present in
			// the result and marked materialized must really be in the store.
			for id, nr := range res.Nodes {
				if nr.Materialized && !st.Has(tasks[id].Key) {
					t.Fatalf("iter %d: node %d marked materialized but not stored", iter, id)
				}
			}
			if gauge.Live() != 0 {
				t.Fatalf("iter %d: gauge live = %d, want 0 after error settlement", iter, gauge.Live())
			}
		}
	})
}

// TestSpillPromoteReleaseStress hammers the tiered store under everything
// at once: a hot tier small enough that almost every materialization
// spills and almost every load hits cold, concurrent with refcounted
// release, the chase and the async writer pipeline. (The name predates
// the rule that a cold hit is served from the cold tier; nothing is
// promoted.)
// Values must match a single-worker reference, every materialized key must
// land in exactly one tier, and the hot tier must never exceed its budget.
func TestSpillPromoteReleaseStress(t *testing.T) {
	const hotBudget = 150 // a couple of encoded ints; everything else spills
	// "worksteal" is this subtest's historical name; it runs the shared-heap dispatcher.
	t.Run("worksteal", func(t *testing.T) {
		for iter := 0; iter < 8; iter++ {
			g, tasks := layeredDAG(5, 8, fmt.Sprintf("spill-%d", iter))
			for i := range tasks {
				run := tasks[i].Run
				delay := time.Duration((i*11+iter)%5) * 40 * time.Microsecond
				tasks[i] = Task{Key: tasks[i].Key, Run: func(ctx context.Context, in []any) (any, error) {
					time.Sleep(delay)
					return run(ctx, in)
				}}
			}
			ref := &Engine{Workers: 1}
			want, err := ref.Execute(g, tasks, allCompute(g.Len()))
			if err != nil {
				t.Fatal(err)
			}
			hot, err := store.Open(t.TempDir(), hotBudget)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := store.OpenSpill(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			// Pre-populate every third key through the tiered admission
			// path and plan those nodes as loads, so cold hits run
			// concurrently with computes, spills and releases.
			tiers := store.NewTiered(hot, cold)
			plan := allCompute(g.Len())
			for i := 0; i < g.Len(); i += 3 {
				raw, err := store.Encode(want.Values[dag.NodeID(i)])
				if err != nil {
					t.Fatal(err)
				}
				if _, err := tiers.PutBytes(tasks[i].Key, raw); err != nil {
					t.Fatal(err)
				}
				plan.States[i] = opt.Load
			}
			var gauge store.Gauge
			e := &Engine{
				Workers:              8,
				Store:                hot,
				Spill:                cold,
				Policy:               opt.MaterializeAll{},
				ReleaseIntermediates: true,
				LiveBytes:            &gauge,
			}
			res, err := e.Execute(g, tasks, plan)
			if err != nil {
				t.Fatal(err)
			}
			for id, v := range res.Values {
				if v != want.Values[id] {
					t.Fatalf("iter %d: node %d = %v, reference %v", iter, id, v, want.Values[id])
				}
			}
			for i := range tasks {
				inHot, inCold := hot.Has(tasks[i].Key), cold.Has(tasks[i].Key)
				if !inHot && !inCold {
					t.Fatalf("iter %d: key %s in no tier", iter, tasks[i].Key)
				}
				if inHot && inCold {
					t.Fatalf("iter %d: key %s in both tiers", iter, tasks[i].Key)
				}
			}
			if hot.Used() > hotBudget {
				t.Fatalf("iter %d: hot tier used %d over its %d budget", iter, hot.Used(), hotBudget)
			}
			if res.Spills == 0 {
				t.Fatalf("iter %d: no spills despite the %d-byte hot tier", iter, hotBudget)
			}
			if gauge.Live() != 0 {
				t.Fatalf("iter %d: gauge live = %d, want 0 after settlement", iter, gauge.Live())
			}
		}
	})
}

// TestSpillErrorCancellationStress drives the tiered store into the error
// path: a mid-graph node fails while spills, cold reads and releases are
// mid-flight. Execute must cancel undispatched work, flush the writer —
// landing every already-submitted write in some tier — and keep the hot
// tier inside its budget.
func TestSpillErrorCancellationStress(t *testing.T) {
	boom := errors.New("boom")
	const hotBudget = 150
	// "worksteal" is this subtest's historical name; it runs the shared-heap dispatcher.
	t.Run("worksteal", func(t *testing.T) {
		for iter := 0; iter < 8; iter++ {
			g, tasks := layeredDAG(4, 6, fmt.Sprintf("spillerr-%d", iter))
			victim := g.Lookup("n1_3")
			tasks[victim] = Task{Key: tasks[victim].Key, Run: func(ctx context.Context, in []any) (any, error) {
				time.Sleep(time.Duration(iter%3) * 100 * time.Microsecond)
				return nil, boom
			}}
			hot, err := store.Open(t.TempDir(), hotBudget)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := store.OpenSpill(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			e := &Engine{
				Workers:              8,
				Store:                hot,
				Spill:                cold,
				Policy:               opt.MaterializeAll{},
				ReleaseIntermediates: true,
			}
			res, err := e.Execute(g, tasks, allCompute(g.Len()))
			if !errors.Is(err, boom) {
				t.Fatalf("iter %d: err = %v, want boom", iter, err)
			}
			for id, nr := range res.Nodes {
				if nr.Materialized && !hot.Has(tasks[id].Key) && !cold.Has(tasks[id].Key) {
					t.Fatalf("iter %d: node %d marked materialized but in no tier", iter, id)
				}
			}
			if hot.Used() > hotBudget {
				t.Fatalf("iter %d: hot tier used %d over its %d budget", iter, hot.Used(), hotBudget)
			}
		}
	})
}

// TestFinishReleaseStress is the dispatch interleaving stress: many workers
// over a wide-and-deep layered graph with uneven task durations, so heap
// pushes and pops, waits and wakeups, chases, refcounted release and the
// writer pipeline all overlap. Values are checked against a single-worker
// reference run; under -race this is the detector's coverage of the
// shared-heap protocol.
func TestFinishReleaseStress(t *testing.T) {
	for iter := 0; iter < 8; iter++ {
		g, tasks := layeredDAG(5, 8, fmt.Sprintf("finish%d", iter))
		// Uneven durations shift which worker is ahead, forcing heap and
		// wakeup traffic instead of a lockstep drain.
		for i := range tasks {
			run := tasks[i].Run
			delay := time.Duration((i*7+iter)%5) * 50 * time.Microsecond
			tasks[i] = Task{Key: tasks[i].Key, Run: func(ctx context.Context, in []any) (any, error) {
				time.Sleep(delay)
				return run(ctx, in)
			}}
		}
		ref := &Engine{Workers: 1}
		want, err := ref.Execute(g, tasks, allCompute(g.Len()))
		if err != nil {
			t.Fatal(err)
		}
		e := &Engine{Workers: 8, ReleaseIntermediates: true}
		res, err := e.Execute(g, tasks, allCompute(g.Len()))
		if err != nil {
			t.Fatal(err)
		}
		for id, v := range res.Values {
			if v != want.Values[id] {
				t.Fatalf("iter %d: node %d = %v, reference %v", iter, id, v, want.Values[id])
			}
		}
	}
}
