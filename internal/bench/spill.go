package bench

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/store"
)

// payloadTask returns a deterministic task that sleeps d and emits a
// payloadBytes-sized string derived from the node's index and its inputs
// (the root's int seeds the pattern), so values are byte-identical across
// runs and schedulers while being big enough to pressure a storage budget.
func payloadTask(idx, payloadBytes int, d time.Duration) exec.Task {
	return exec.Task{
		Key: fmt.Sprintf("spill-p%d", idx),
		Run: func(ctx context.Context, in []any) (any, error) {
			if err := sleepCtx(ctx, d); err != nil {
				return nil, err
			}
			seed := idx
			for _, v := range in {
				seed = seed*31 + v.(int)
			}
			pat := fmt.Sprintf("p%d:%d|", idx, seed)
			var b strings.Builder
			b.Grow(payloadBytes)
			for b.Len() < payloadBytes {
				b.WriteString(pat)
			}
			return b.String()[:payloadBytes], nil
		},
	}
}

// SpillDAG is the tiered-store pressure shape: a root fans out to
// `producers` payload nodes (each emitting a deterministic payloadBytes-
// sized string after sleeping d) joining into one output, so with a
// materialize-everything policy the run persists ≈ producers×payloadBytes
// bytes. Size the hot budget below that and admission must spill — the
// workload the tiered-store acceptance tests drive. As a plain scheduler
// shape (no store attached) it doubles as a wide-fanout dispatch workload
// with large values.
func SpillDAG(producers, payloadBytes int, d time.Duration) *SchedDAG {
	g := dag.New()
	root := g.MustAddNode("root", "scan")
	tasks := []exec.Task{{Key: "spill-root", Run: func(context.Context, []any) (any, error) { return 1, nil }}}
	join := g.MustAddNode("join", "agg")
	for p := 0; p < producers; p++ {
		id := g.MustAddNode(fmt.Sprintf("pay%d", p), "op")
		g.MustAddEdge(root, id)
		g.MustAddEdge(id, join)
		tasks = append(tasks, payloadTask(int(id), payloadBytes, d))
	}
	g.Node(join).Output = true
	tasks = append(tasks, exec.Task{
		Key: "spill-join",
		Run: func(_ context.Context, in []any) (any, error) {
			sum := 17
			for _, v := range in {
				s := v.(string)
				sum = sum*31 + len(s) + int(s[0])
			}
			return sum, nil
		},
	})
	// The join's task was appended after the producers, matching its ID
	// (root=0, join=1, producers=2..): reorder so tasks[i] drives node i.
	ordered := make([]exec.Task, len(tasks))
	ordered[0] = tasks[0]
	ordered[1] = tasks[len(tasks)-1]
	copy(ordered[2:], tasks[1:len(tasks)-1])
	return &SchedDAG{Name: "spill", G: g, Tasks: ordered}
}

// DefaultSpillDAG returns the canonical spill-pressure shape: 24 producers
// × 32 KiB payloads, ≈ 786 KiB materialized per all-compute iteration. The
// 1ms producer sleep dominates the payload construction.
func DefaultSpillDAG() *SchedDAG {
	return SpillDAG(24, 32<<10, time.Millisecond)
}

// OutputValuesEqual checks that two runs agree byte-identically on every
// graph output value. Unlike SchedValuesEqual it ignores non-output nodes:
// two runs under different plans legitimately retain different
// intermediates (a pruned subgraph has no values at all), but the outputs
// must match whatever the plan.
func OutputValuesEqual(g *dag.Graph, a, b *exec.Result) error {
	for _, id := range g.Outputs() {
		av, aok := a.Values[id]
		bv, bok := b.Values[id]
		if !aok || !bok {
			return fmt.Errorf("bench: output node %d present %v vs %v", id, aok, bok)
		}
		ra, err := store.Encode(av)
		if err != nil {
			return fmt.Errorf("bench: encode output %d: %w", id, err)
		}
		rb, err := store.Encode(bv)
		if err != nil {
			return fmt.Errorf("bench: encode output %d: %w", id, err)
		}
		if !bytes.Equal(ra, rb) {
			return fmt.Errorf("bench: output node %d: values not byte-identical", id)
		}
	}
	return nil
}
