package exec

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dag"
)

// withTransients wraps every third task with a counted transient failure
// (two injected faults each), fresh counters per call. exec cannot import
// the bench harness (bench imports exec), so this is the stress tests' own
// minimal FaultyOp.
func withTransients(tasks []Task) ([]Task, int) {
	out := make([]Task, len(tasks))
	injected := 0
	for i, tk := range tasks {
		out[i] = tk
		if i%3 != 0 {
			continue
		}
		injected += 2
		var remaining atomic.Int32
		remaining.Store(2)
		inner := tk.Run
		out[i].Run = func(ctx context.Context, in []any) (any, error) {
			if remaining.Add(-1) >= 0 {
				return nil, fmt.Errorf("stress blip: %w", ErrTransient)
			}
			return inner(ctx, in)
		}
	}
	return out, injected
}

// TestRetryStealReleaseStress runs retried transient faults concurrently
// with everything else the scheduler does between completions — shared-heap
// pushes and pops, refcounted release. Run with -race in CI; correctness
// here is that every run completes with the clean reference's output
// values and accounts for every injected fault. The test and subtest names
// predate the shared-heap dispatcher and are kept so test ids stay stable.
func TestRetryStealReleaseStress(t *testing.T) {
	refG, refTasks := layeredDAG(4, 6, "fault-ref")
	ref := &Engine{Workers: 1}
	refRes, err := ref.Execute(refG, refTasks, allCompute(refG.Len()))
	if err != nil {
		t.Fatal(err)
	}
	wantOut := make(map[string]any)
	for id, v := range refRes.Values {
		if refG.Node(id).Output {
			wantOut[refG.Node(id).Name] = v
		}
	}
	// "worksteal" is this subtest's historical name; it runs the shared-heap dispatcher.
	t.Run("worksteal", func(t *testing.T) {
		for iter := 0; iter < 10; iter++ {
			g, tasks := layeredDAG(4, 6, fmt.Sprintf("fault-%d", iter))
			faulted, injected := withTransients(tasks)
			e := &Engine{
				Workers:              8,
				ReleaseIntermediates: true,
				Faults: FaultPolicy{
					MaxAttempts: 4,
					BaseBackoff: time.Microsecond,
					MaxBackoff:  20 * time.Microsecond,
					JitterSeed:  int64(iter),
				},
			}
			res, err := e.Execute(g, faulted, allCompute(g.Len()))
			if err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
			if res.Retries != int64(injected) {
				t.Fatalf("iter %d: Retries = %d, want %d injected", iter, res.Retries, injected)
			}
			for id, v := range res.Values {
				if !g.Node(id).Output {
					t.Fatalf("iter %d: non-output value survived release", iter)
				}
				if want := wantOut[g.Node(id).Name]; !reflect.DeepEqual(v, want) {
					t.Fatalf("iter %d: %s = %v, want %v", iter, g.Node(id).Name, v, want)
				}
			}
			if len(res.Values) != len(wantOut) {
				t.Fatalf("iter %d: %d outputs, want %d", iter, len(res.Values), len(wantOut))
			}
		}
	})
}

// TestRetryErrorCancelStress races in-flight retries (with their backoff
// sleeps) against first-error cancellation from a fatal sibling: the run
// must report the fatal cause — never a collateral context.Canceled — and
// cancelled retry loops must not keep retrying after shutdown.
func TestRetryErrorCancelStress(t *testing.T) {
	boom := errors.New("fatal sibling")
	// "worksteal" is this subtest's historical name; it runs the shared-heap dispatcher.
	t.Run("worksteal", func(t *testing.T) {
		for iter := 0; iter < 10; iter++ {
			g, tasks := layeredDAG(3, 8, fmt.Sprintf("cancel-%d", iter))
			// Middle-layer nodes retry forever (transient, ctx-honoring
			// backoff); one of them is fatal instead.
			for w := 0; w < 8; w++ {
				id := dag.NodeID(8 + w)
				if w == 3 {
					tasks[id].Run = func(context.Context, []any) (any, error) {
						return nil, boom
					}
					continue
				}
				tasks[id].Run = func(ctx context.Context, in []any) (any, error) {
					return nil, fmt.Errorf("forever flaky: %w", ErrTransient)
				}
			}
			e := &Engine{
				Workers: 8,
				Faults: FaultPolicy{
					MaxAttempts: 1 << 20, // effectively unbounded: only cancellation ends the loop
					BaseBackoff: 50 * time.Microsecond,
					MaxBackoff:  time.Millisecond,
				},
			}
			start := time.Now()
			_, err := e.Execute(g, tasks, allCompute(g.Len()))
			if !errors.Is(err, boom) {
				t.Fatalf("iter %d: err = %v, want the fatal cause", iter, err)
			}
			if errors.Is(err, context.Canceled) {
				t.Fatalf("iter %d: collateral cancellation surfaced: %v", iter, err)
			}
			if wall := time.Since(start); wall > 5*time.Second {
				t.Fatalf("iter %d: run took %v; cancelled retry loops kept spinning", iter, wall)
			}
		}
	})
}
