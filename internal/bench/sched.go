package bench

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/store"
)

// SchedDAG bundles a synthetic scheduler-stress graph with its tasks and an
// all-compute plan. The tasks burn wall-clock with time.Sleep (operator
// work is opaque to the scheduler; only its duration matters) or, for the
// CPU-bound shapes, with a spin loop that keeps a core busy — the honest
// way to measure scheduler overhead and ordering effects under real
// contention. All tasks produce deterministic integers so two runs can be
// compared value-for-value.
type SchedDAG struct {
	Name  string
	G     *dag.Graph
	Tasks []exec.Task
}

// Plan returns an all-compute plan sized to the DAG.
func (s *SchedDAG) Plan() *opt.Plan {
	states := make([]opt.State, s.G.Len())
	for i := range states {
		states[i] = opt.Compute
	}
	return &opt.Plan{States: states}
}

// sleepCtx sleeps for d unless ctx is cancelled first, in which case it
// returns the context's error immediately — the pattern every sleeping
// bench operator uses so first-error cancellation and per-node deadlines
// actually interrupt in-flight work instead of waiting it out.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// spinCtx busy-loops for roughly d (occupying a core, unlike sleepCtx),
// checking ctx periodically so cancellation interrupts the spin.
func spinCtx(ctx context.Context, d time.Duration) error {
	var spins uint64
	for start := time.Now(); time.Since(start) < d; {
		spins++
		if spins%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
	return ctx.Err()
}

// sleepTask returns a deterministic task: sleep d, then emit a value
// derived from the inputs and the node's own index.
func sleepTask(idx int, d time.Duration) exec.Task {
	return exec.Task{Run: func(ctx context.Context, in []any) (any, error) {
		if err := sleepCtx(ctx, d); err != nil {
			return nil, err
		}
		sum := idx
		for _, v := range in {
			sum += v.(int)
		}
		return sum, nil
	}}
}

// spinTask returns a deterministic CPU-bound task: busy-loop for roughly d
// (occupying a core, unlike time.Sleep which frees it), then emit a value
// derived from the inputs and the node's own index. The spin counter never
// feeds the result, so values stay deterministic across machines.
func spinTask(idx int, d time.Duration) exec.Task {
	return exec.Task{Run: func(ctx context.Context, in []any) (any, error) {
		if err := spinCtx(ctx, d); err != nil {
			return nil, err
		}
		sum := idx
		for _, v := range in {
			sum += v.(int)
		}
		return sum, nil
	}}
}

// StragglerLevelDAG is the worst case for a wave executor that puts a
// barrier between DAG levels: `width` independent chains of depth `levels`
// hang off one root, and chain w's node at level w (the diagonal) runs for
// `slow` while every other node runs for `fast`. Such an executor would pay
// the straggler once per level (≈ levels·slow total, because every level
// contains exactly one slow node); dependency-counting scheduling overlaps
// the stragglers across chains, so the wall approaches one chain's cost
// (slow + (levels-1)·fast). width should not exceed the worker count if the
// comparison is to isolate scheduling rather than queueing.
func StragglerLevelDAG(levels, width int, slow, fast time.Duration) *SchedDAG {
	g := dag.New()
	root := g.MustAddNode("root", "scan")
	tasks := []exec.Task{sleepTask(0, 0)}
	for w := 0; w < width; w++ {
		prev := root
		for l := 0; l < levels; l++ {
			id := g.MustAddNode(fmt.Sprintf("c%d_l%d", w, l), "op")
			g.MustAddEdge(prev, id)
			d := fast
			if l == w%levels {
				d = slow
			}
			tasks = append(tasks, sleepTask(int(id), d))
			prev = id
		}
		g.Node(prev).Output = true
	}
	return &SchedDAG{Name: "straggler-level", G: g, Tasks: tasks}
}

// WideDAG is a root fanning out to `width` uniform leaves feeding one join:
// the shape that stresses ready-queue dispatch and (with the engine's
// release flag) peak value retention.
func WideDAG(width int, cost time.Duration) *SchedDAG {
	g := dag.New()
	root := g.MustAddNode("root", "scan")
	tasks := []exec.Task{sleepTask(0, 0)}
	join := g.MustAddNode("join", "agg")
	tasks = append(tasks, sleepTask(1, 0))
	for w := 0; w < width; w++ {
		id := g.MustAddNode(fmt.Sprintf("leaf%d", w), "op")
		g.MustAddEdge(root, id)
		g.MustAddEdge(id, join)
		tasks = append(tasks, sleepTask(int(id), cost))
	}
	g.Node(join).Output = true
	return &SchedDAG{Name: "wide", G: g, Tasks: tasks}
}

// SkewedLevelDAG builds `levels` waves of `width` independent nodes (each
// wired to one hub node of the previous wave) where the first node of each
// wave costs `slow` and the rest cost `fast` — the "skewed level" shape: a
// barrier idles width-1 workers per wave while dataflow streams the cheap
// majority of the next wave through.
func SkewedLevelDAG(levels, width int, slow, fast time.Duration) *SchedDAG {
	g := dag.New()
	root := g.MustAddNode("root", "scan")
	tasks := []exec.Task{sleepTask(0, 0)}
	hub := root
	for l := 0; l < levels; l++ {
		var nextHub dag.NodeID
		for w := 0; w < width; w++ {
			id := g.MustAddNode(fmt.Sprintf("l%d_n%d", l, w), "op")
			g.MustAddEdge(hub, id)
			d := fast
			if w == 0 {
				d = slow
			}
			// The cheap second node is the next wave's hub, so the slow
			// node never gates the spine the next wave hangs off.
			if w == 1 || width == 1 {
				nextHub = id
			}
			tasks = append(tasks, sleepTask(int(id), d))
		}
		hub = nextHub
	}
	g.Node(hub).Output = true
	for w := 0; w < g.Len(); w++ {
		if len(g.Children(dag.NodeID(w))) == 0 {
			g.Node(dag.NodeID(w)).Output = true
		}
	}
	return &SchedDAG{Name: "skewed-level", G: g, Tasks: tasks}
}

// StragglerChainDAG pairs one shallow expensive node with a deep chain of
// cheap nodes joining into a final output — the out-of-order-completion
// shape: the cheap chain must finish ahead of the straggler even though it
// is many levels deeper.
func StragglerChainDAG(depth int, slow, fast time.Duration) *SchedDAG {
	g := dag.New()
	root := g.MustAddNode("root", "scan")
	tasks := []exec.Task{sleepTask(0, 0)}
	straggler := g.MustAddNode("straggler", "learner")
	g.MustAddEdge(root, straggler)
	tasks = append(tasks, sleepTask(int(straggler), slow))
	prev := root
	for i := 0; i < depth; i++ {
		id := g.MustAddNode(fmt.Sprintf("chain%d", i), "op")
		g.MustAddEdge(prev, id)
		tasks = append(tasks, sleepTask(int(id), fast))
		prev = id
	}
	join := g.MustAddNode("join", "agg")
	g.MustAddEdge(straggler, join)
	g.MustAddEdge(prev, join)
	g.Node(join).Output = true
	tasks = append(tasks, sleepTask(int(join), 0))
	return &SchedDAG{Name: "straggler-chain", G: g, Tasks: tasks}
}

// fanoutChain builds the ordering-adversarial wide-fanout topology: a root
// fans out to `short` independent single-node branches plus one chain of
// `depth` nodes, all joining into one output. The chain is added last, so
// its IDs are the highest — the worst case for dispatch in ID order, which
// would drain every cheap branch before the run's long pole gets a worker
// (makespan ≈ ⌈short/workers⌉ + depth task-lengths). Critical-path
// ordering starts the chain immediately and fills the remaining workers
// with the branches (makespan ≈ max(depth, short/(workers-1))
// task-lengths).
func fanoutChain(name string, short, depth int, d time.Duration, mk func(int, time.Duration) exec.Task) *SchedDAG {
	g := dag.New()
	root := g.MustAddNode("root", "scan")
	tasks := []exec.Task{mk(0, 0)}
	join := g.MustAddNode("join", "agg")
	tasks = append(tasks, mk(1, 0))
	for s := 0; s < short; s++ {
		id := g.MustAddNode(fmt.Sprintf("s%d", s), "op")
		g.MustAddEdge(root, id)
		g.MustAddEdge(id, join)
		tasks = append(tasks, mk(int(id), d))
	}
	prev := root
	for l := 0; l < depth; l++ {
		id := g.MustAddNode(fmt.Sprintf("chain%d", l), "op")
		g.MustAddEdge(prev, id)
		tasks = append(tasks, mk(int(id), d))
		prev = id
	}
	g.MustAddEdge(prev, join)
	g.Node(join).Output = true
	return &SchedDAG{Name: name, G: g, Tasks: tasks}
}

// FanoutChainDAG is the sleep-based fanout-plus-chain shape: because
// sleeping tasks do not occupy a core, the ordering effect (critical-path
// dispatch starting the chain before the cheap branches) shows in wall
// time on any machine, including single-core CI runners.
func FanoutChainDAG(short, depth int, d time.Duration) *SchedDAG {
	return fanoutChain("fanout-chain", short, depth, d, sleepTask)
}

// CPUFanoutDAG is the same topology with spin-loop (CPU-bound) tasks: the
// honest workload for measuring scheduler overhead under real core
// contention. The ordering win additionally needs spare cores: on a
// single-core host total work equals makespan whatever the order.
func CPUFanoutDAG(short, depth int, spin time.Duration) *SchedDAG {
	return fanoutChain("cpu-fanout", short, depth, spin, spinTask)
}

// busyTask returns a deterministic dispatch-overhead probe: no sleep, no
// spin — just the input mix. With tasks this fine the wall time of a run is
// dominated by the scheduler itself, which is exactly what the contention
// shapes measure.
func busyTask(idx int) exec.Task {
	return exec.Task{Run: func(_ context.Context, in []any) (any, error) {
		sum := idx
		for _, v := range in {
			sum += v.(int)
		}
		return sum, nil
	}}
}

// ContentionDAG is the dispatch-contention worst case: `chains` independent
// chains of `depth` fine-grained nodes hang off one root and join into one
// output — a wide DAG of tiny tasks where every node completion is a
// dispatch event. A dispatcher that queued every ready node would take its
// mutex on each of the chains×depth transitions; with the chase a finishing
// worker runs its chain's next link itself, so the steady state touches no
// shared lock at all. Tasks are pure
// dispatch probes (no sleep, no spin), so wall time ≈ scheduler overhead.
func ContentionDAG(chains, depth int) *SchedDAG {
	g := dag.New()
	root := g.MustAddNode("root", "scan")
	tasks := []exec.Task{busyTask(0)}
	join := g.MustAddNode("join", "agg")
	tasks = append(tasks, busyTask(1))
	for c := 0; c < chains; c++ {
		prev := root
		for l := 0; l < depth; l++ {
			id := g.MustAddNode(fmt.Sprintf("ch%d_l%d", c, l), "op")
			g.MustAddEdge(prev, id)
			tasks = append(tasks, busyTask(int(id)))
			prev = id
		}
		g.MustAddEdge(prev, join)
	}
	g.Node(join).Output = true
	return &SchedDAG{Name: "contention-wide", G: g, Tasks: tasks}
}

// RunSched executes the DAG once with a fresh engine at the given worker
// count and intermediate-release setting, returning the result for
// wall-time and value inspection.
func RunSched(sd *SchedDAG, workers int, release bool) (*exec.Result, error) {
	e := &exec.Engine{Workers: workers, ReleaseIntermediates: release}
	return e.Execute(sd.G, sd.Tasks, sd.Plan())
}

// DefaultShapes returns the canonical scheduler stress shapes at their
// default sizes; Shape looks one up by name.
func DefaultShapes() []*SchedDAG {
	return []*SchedDAG{
		StragglerLevelDAG(4, 4, 8*time.Millisecond, 500*time.Microsecond),
		WideDAG(64, 500*time.Microsecond),
		SkewedLevelDAG(4, 4, 6*time.Millisecond, 500*time.Microsecond),
		StragglerChainDAG(12, 10*time.Millisecond, 300*time.Microsecond),
		FanoutChainDAG(12, 6, time.Millisecond),
		CPUFanoutDAG(12, 6, time.Millisecond),
		ContentionDAG(128, 32),
		DefaultSpillDAG(),
		DefaultRecomputeHeavyDAG(),
		DefaultCodecDAG(),
	}
}

// Shape returns the default stress shape with the given name.
func Shape(name string) (*SchedDAG, error) {
	for _, sd := range DefaultShapes() {
		if sd.Name == name {
			return sd, nil
		}
	}
	return nil, fmt.Errorf("bench: no scheduler shape %q", name)
}

// SchedValuesEqual checks that two scheduler runs produced byte-identical
// (encoded) values for every node — the correctness half of a
// scheduler comparison.
func SchedValuesEqual(a, b *exec.Result) error {
	if len(a.Values) != len(b.Values) {
		return fmt.Errorf("bench: value counts differ: %d vs %d", len(a.Values), len(b.Values))
	}
	for id, v := range a.Values {
		ra, err := store.Encode(v)
		if err != nil {
			return fmt.Errorf("bench: encode node %d: %w", id, err)
		}
		rb, err := store.Encode(b.Values[id])
		if err != nil {
			return fmt.Errorf("bench: encode node %d: %w", id, err)
		}
		if !bytes.Equal(ra, rb) {
			return fmt.Errorf("bench: node %d: values not byte-identical across schedulers", id)
		}
	}
	return nil
}
