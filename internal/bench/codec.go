package bench

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/dag"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/store"
)

// codecExampleSet builds a deterministic FeatureMap-heavy *data.ExampleSet:
// `examples` examples of `features` features each, values derived from seed.
// Feature names are shared across examples (realistic for extracted feature
// columns), which is exactly the shape where the binary codec's string
// table pays off most.
func codecExampleSet(seed, examples, features int) *data.ExampleSet {
	set := &data.ExampleSet{Examples: make([]data.Example, examples)}
	for i := range set.Examples {
		fm := make(data.FeatureMap, features)
		for f := 0; f < features; f++ {
			fm[fmt.Sprintf("feat_%03d", f)] = float64((seed+i*31+f*7)%1000) / 8
		}
		set.Examples[i] = data.Example{
			Features: fm,
			Label:    float64((seed + i) % 2),
			HasLabel: true,
		}
	}
	return set
}

// CodecDAG is the serialization-pressure shape: a root fans out to
// `producers` nodes that each emit a FeatureMap-heavy *data.ExampleSet
// (after sleeping d, so scheduling noise doesn't swamp the serialization
// signal) joining into one scalar output. With a materialize-everything
// policy every producer value rides store.EncodeValue on the persist
// path — the workload MeasureCodecStore drives through the cold tier.
func CodecDAG(producers, examples, features int, d time.Duration) *SchedDAG {
	g := dag.New()
	root := g.MustAddNode("root", "scan")
	tasks := []exec.Task{{Key: "codec-root", Run: func(context.Context, []any) (any, error) { return 1, nil }}}
	join := g.MustAddNode("join", "agg")
	for p := 0; p < producers; p++ {
		id := g.MustAddNode(fmt.Sprintf("set%d", p), "op")
		g.MustAddEdge(root, id)
		g.MustAddEdge(id, join)
		// Producers are outputs too: a later iteration must reproduce the
		// serialized sets themselves, so its plan loads the spilled values
		// (driving the cold-read path) instead of pruning down to the join.
		g.Node(id).Output = true
		idx := int(id)
		tasks = append(tasks, exec.Task{
			Key: fmt.Sprintf("codec-set%d", idx),
			Run: func(ctx context.Context, in []any) (any, error) {
				if err := sleepCtx(ctx, d); err != nil {
					return nil, err
				}
				seed := idx
				for _, v := range in {
					seed = seed*31 + v.(int)
				}
				return codecExampleSet(seed, examples, features), nil
			},
		})
	}
	g.Node(join).Output = true
	tasks = append(tasks, exec.Task{
		Key: "codec-join",
		Run: func(_ context.Context, in []any) (any, error) {
			sum := 17
			for _, v := range in {
				set := v.(*data.ExampleSet)
				sum = sum*31 + set.Len()
				for _, ex := range set.Examples {
					sum += len(ex.Features)
				}
			}
			return sum, nil
		},
	})
	// Reorder so tasks[i] drives node i (root=0, join=1, producers=2..).
	ordered := make([]exec.Task, len(tasks))
	ordered[0] = tasks[0]
	ordered[1] = tasks[len(tasks)-1]
	copy(ordered[2:], tasks[1:len(tasks)-1])
	return &SchedDAG{Name: "codec", G: g, Tasks: ordered}
}

// DefaultCodecDAG returns the canonical serialization-pressure shape: 16
// producers × (48 examples × 24 features) ≈ 18K feature entries materialized
// per all-compute iteration. The 1ms producer sleep keeps scheduling noise
// out of the serialization signal while the persist path still serializes
// every producer value.
func DefaultCodecDAG() *SchedDAG {
	return CodecDAG(16, 48, 24, time.Millisecond)
}

// CodecMeasurement is the outcome of two store-backed iterations of the
// codec shape (materialize-all with a spill-forcing hot budget, then the
// optimizer's plan over the measured cost model).
type CodecMeasurement struct {
	Iter1WallMS float64 `json:"iter1_wall_ms"`
	Iter2WallMS float64 `json:"iter2_wall_ms"`
	// BinaryEncodes counts encodes across both iterations: the encode-once
	// contract means it equals the number of persisted values.
	BinaryEncodes int64 `json:"binary_encodes"`
	// ColdReads counts cold-tier loads across both iterations.
	ColdReads int64 `json:"cold_reads"`
	Spills    int64 `json:"spills"`
	Loaded2   int   `json:"loaded_2"`
	Computed2 int   `json:"computed_2"`
}

// MeasureCodecStore drives the codec shape through two iterations rooted at
// dir: iteration 1 all-compute through a spill-forcing tiered store (hot
// budget below the materialized footprint so cold reads actually happen),
// iteration 2 on the optimizer's plan over the measured per-tier cost
// model. Both Results are returned for value checks.
func MeasureCodecStore(sd *SchedDAG, dir string, hotBudget, spillBudget int64, workers int) (CodecMeasurement, [2]*exec.Result, error) {
	var out [2]*exec.Result
	var m CodecMeasurement
	st, err := store.Open(filepath.Join(dir, "hot"), hotBudget)
	if err != nil {
		return m, out, err
	}
	sp, err := store.OpenSpill(filepath.Join(dir, "cold"), spillBudget)
	if err != nil {
		return m, out, err
	}
	e := &exec.Engine{
		Workers: workers,
		Store:   st,
		Spill:   sp,
		Policy:  opt.MaterializeAll{},
		History: exec.NewHistory(),
	}
	res1, err := e.Execute(sd.G, sd.Tasks, sd.Plan())
	if err != nil {
		return m, out, err
	}
	cm, err := e.BuildCostModel(sd.G, sd.Tasks)
	if err != nil {
		return m, out, err
	}
	plan2, err := opt.Optimal(sd.G, cm)
	if err != nil {
		return m, out, err
	}
	res2, err := e.Execute(sd.G, sd.Tasks, plan2)
	if err != nil {
		return m, out, err
	}
	out[0], out[1] = res1, res2
	m.Iter1WallMS = float64(res1.Wall.Microseconds()) / 1000
	m.Iter2WallMS = float64(res2.Wall.Microseconds()) / 1000
	m.BinaryEncodes = res1.BinaryEncodes + res2.BinaryEncodes
	m.ColdReads = res1.BufferedColdReads + res2.BufferedColdReads
	m.Spills = res1.Spills + res2.Spills
	for _, s := range plan2.States {
		switch s {
		case opt.Load:
			m.Loaded2++
		case opt.Compute:
			m.Computed2++
		}
	}
	return m, out, nil
}
