package bench

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/store"
)

// Canonical recompute-heavy dimensions (DefaultRecomputeHeavyDAG and the
// eviction tests' cold budget). The arithmetic the shape is built
// around: the chain materializes chainDepth×chainPayload ≈ 20 KiB whose
// recompute cost is serial (2 ms per link), the fillers materialize
// fillers×fillerPayload ≈ 768 KiB of cheap parallel work, and the default
// cold budget holds roughly two thirds of the total — so the cold tier
// must evict ≈ 280 KiB during the first iteration and the *choice* of
// victims decides whether the second iteration replays a 20 ms serial
// chain or re-stamps a few hundred microseconds of fillers.
const (
	rheavyChainDepth    = 10
	rheavyFillers       = 24
	rheavyChainPayload  = 2 << 10
	rheavyFillerPayload = 32 << 10
	// RecomputeHeavyColdBudget is the default cold-tier budget for
	// MeasureEviction on this shape.
	RecomputeHeavyColdBudget = int64(512 << 10)
	// RecomputeHeavyCrownKey is the store key of the chain's last node —
	// the 2 KiB value whose recompute cost is the whole serial chain.
	// Reward-aware eviction keeps it (highest saving-per-byte in the tier)
	// although it is the oldest unpinned entry once the fillers start
	// landing, so a recency ranking would evict it.
	RecomputeHeavyCrownKey = "rheavy-crown"
)

var (
	rheavyChainDur  = 2 * time.Millisecond
	rheavyFillerDur = 200 * time.Microsecond
)

// rheavyTask returns a deterministic keyed task: sleep d, then emit a
// payloadBytes-sized string derived from idx and the inputs (ints hash by
// value, strings by length and first byte), byte-identical across runs and
// schedulers.
func rheavyTask(key string, idx, payloadBytes int, d time.Duration) exec.Task {
	return exec.Task{
		Key: key,
		Run: func(ctx context.Context, in []any) (any, error) {
			if err := sleepCtx(ctx, d); err != nil {
				return nil, err
			}
			seed := idx
			for _, v := range in {
				switch x := v.(type) {
				case int:
					seed = seed*31 + x
				case string:
					seed = seed*31 + len(x) + int(x[0])
				}
			}
			pat := fmt.Sprintf("r%d:%d|", idx, seed)
			var b strings.Builder
			b.Grow(payloadBytes)
			for b.Len() < payloadBytes {
				b.WriteString(pat)
			}
			return b.String()[:payloadBytes], nil
		},
	}
}

// RecomputeHeavyDAG is the eviction stress shape: a root feeds a
// serial chain of chainDepth nodes (chainDur each, small chainPayload
// values) whose last link — the "crown", keyed RecomputeHeavyCrownKey and
// marked Output — fans out to `fillers` cheap wide nodes (fillerDur each,
// large fillerPayload values) joining into one output.
//
// Under a cold-tier budget that cannot hold everything, the shape separates
// reward from recency. The chain entries are the oldest in the tier by the
// time the fillers flood in, so a recency ranking would delete exactly them
// — the entries whose loss costs a serial chainDepth×chainDur recompute
// next iteration. Reward-aware ranking sees the chain's saving-per-byte
// (serial ancestor compute over a tiny payload) tower over the fillers'
// (sub-ms compute over 16× the bytes) and sacrifices fillers instead. As a
// plain scheduler shape (no store attached) it is a serial-tail-plus-fanout
// dispatch workload.
func RecomputeHeavyDAG(chainDepth, fillers, chainPayload, fillerPayload int, chainDur, fillerDur time.Duration) *SchedDAG {
	g := dag.New()
	root := g.MustAddNode("root", "scan")
	tasks := []exec.Task{{Key: "rheavy-root", Run: func(context.Context, []any) (any, error) { return 1, nil }}}
	prev := root
	for c := 0; c < chainDepth; c++ {
		key := fmt.Sprintf("rheavy-c%d", c)
		if c == chainDepth-1 {
			key = RecomputeHeavyCrownKey
		}
		id := g.MustAddNode(fmt.Sprintf("chain%d", c), "chain")
		g.MustAddEdge(prev, id)
		tasks = append(tasks, rheavyTask(key, int(id), chainPayload, chainDur))
		prev = id
	}
	crown := prev
	g.Node(crown).Output = true
	join := g.MustAddNode("join", "agg")
	for f := 0; f < fillers; f++ {
		id := g.MustAddNode(fmt.Sprintf("fill%d", f), "filler")
		g.MustAddEdge(crown, id)
		g.MustAddEdge(id, join)
		tasks = append(tasks, rheavyTask(fmt.Sprintf("rheavy-f%d", f), int(id), fillerPayload, fillerDur))
	}
	g.Node(join).Output = true
	joinTask := exec.Task{
		Key: "rheavy-join",
		Run: func(_ context.Context, in []any) (any, error) {
			sum := 17
			for _, v := range in {
				s := v.(string)
				sum = sum*31 + len(s) + int(s[0])
			}
			return sum, nil
		},
	}
	// The join's node ID precedes the fillers' (it was added first so the
	// crown's fanout could edge into it): splice its task into place.
	ordered := make([]exec.Task, 0, len(tasks)+1)
	ordered = append(ordered, tasks[:1+chainDepth]...)
	ordered = append(ordered, joinTask)
	ordered = append(ordered, tasks[1+chainDepth:]...)
	return &SchedDAG{Name: "recompute-heavy", G: g, Tasks: ordered}
}

// DefaultRecomputeHeavyDAG returns the canonical recompute-heavy shape:
// a 10-link × 2 ms serial chain with 2 KiB payloads crowned by an Output
// node, fanning out to 24 × 200 µs fillers with 32 KiB payloads.
func DefaultRecomputeHeavyDAG() *SchedDAG {
	return RecomputeHeavyDAG(rheavyChainDepth, rheavyFillers, rheavyChainPayload, rheavyFillerPayload, rheavyChainDur, rheavyFillerDur)
}

// EvictionMeasurement is the cold tier's eviction outcome over two
// iterations of the recompute-heavy shape under spill pressure.
type EvictionMeasurement struct {
	ColdBudget  int64   `json:"cold_budget"`
	Iter1WallMS float64 `json:"iter1_wall_ms"`
	Iter2WallMS float64 `json:"iter2_wall_ms"`
	Evictions   int64   `json:"evictions"`
	ColdUsed    int64   `json:"cold_used"`
	// CrownRetained reports whether the chain's crown entry survived the
	// first iteration's eviction pressure — the single-bit summary of what
	// the policy chose to sacrifice.
	CrownRetained bool `json:"crown_retained"`
	// Loaded2 and Computed2 count the second iteration's plan states: how
	// much of the first run's materialization survived eviction usefully.
	Loaded2   int `json:"loaded_2"`
	Computed2 int `json:"computed_2"`
}

// MeasureEviction drives the shape through two iterations with a 1-byte
// hot tier (every materialization is forced through cold-tier admission,
// so the cold tier's eviction decides everything) and a cold tier of
// coldBudget bytes: iteration 1 all-compute, iteration 2 on the optimizer's
// plan over the per-tier cost model the first run left behind. Both
// iterations' Results are returned for value and plan checks against an
// unpressured reference.
func MeasureEviction(sd *SchedDAG, dir string, coldBudget int64, workers int) (EvictionMeasurement, [2]*exec.Result, error) {
	var out [2]*exec.Result
	st, err := store.Open(filepath.Join(dir, "hot"), 1)
	if err != nil {
		return EvictionMeasurement{}, out, err
	}
	sp, err := store.OpenSpill(filepath.Join(dir, "cold"), coldBudget)
	if err != nil {
		return EvictionMeasurement{}, out, err
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
		return EvictionMeasurement{}, out, err
	}
	crown := sp.Has(RecomputeHeavyCrownKey)
	cm, err := e.BuildCostModel(sd.G, sd.Tasks)
	if err != nil {
		return EvictionMeasurement{}, out, err
	}
	plan2, err := opt.Optimal(sd.G, cm)
	if err != nil {
		return EvictionMeasurement{}, out, err
	}
	res2, err := e.Execute(sd.G, sd.Tasks, plan2)
	if err != nil {
		return EvictionMeasurement{}, out, err
	}
	out[0], out[1] = res1, res2
	m := EvictionMeasurement{
		ColdBudget:    coldBudget,
		Iter1WallMS:   float64(res1.Wall.Microseconds()) / 1000,
		Iter2WallMS:   float64(res2.Wall.Microseconds()) / 1000,
		Evictions:     res1.ColdEvictions + res2.ColdEvictions,
		ColdUsed:      sp.Used(),
		CrownRetained: crown,
	}
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
