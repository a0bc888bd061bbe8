package bench

import (
	"testing"

	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/store"
)

// TestRecomputeHeavyShape pins the structural contract the eviction
// tests depend on: tasks align with node IDs, the crown is the chain's
// last link and a graph output, and the shape is registered under the
// canonical name.
func TestRecomputeHeavyShape(t *testing.T) {
	sd := DefaultRecomputeHeavyDAG()
	if sd.Name != "recompute-heavy" {
		t.Fatalf("shape name %q", sd.Name)
	}
	if got, want := sd.G.Len(), 1+rheavyChainDepth+1+rheavyFillers; got != want {
		t.Fatalf("node count %d, want %d", got, want)
	}
	if len(sd.Tasks) != sd.G.Len() {
		t.Fatalf("%d tasks for %d nodes", len(sd.Tasks), sd.G.Len())
	}
	crown := -1
	for i, task := range sd.Tasks {
		if task.Key == RecomputeHeavyCrownKey {
			crown = i
		}
	}
	if crown < 0 {
		t.Fatal("no task carries the crown key")
	}
	n := sd.G.Node(dag.NodeID(crown))
	if !n.Output || n.Op != "chain" {
		t.Fatalf("crown node output=%v op=%q, want a chain output", n.Output, n.Op)
	}
	if _, err := Shape("recompute-heavy"); err != nil {
		t.Fatalf("not in DefaultShapes: %v", err)
	}
	res, err := RunSched(sd, exec.Dataflow, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Wall <= 0 {
		t.Fatal("no wall time")
	}
}

// measureEvictionBest runs MeasureEviction n times on fresh directories and
// returns the measurement with the lowest second-iteration wall plus the
// Results of that run. The first run's outputs are value-checked against
// ref.
func measureEvictionBest(t *testing.T, n int, policy store.EvictionPolicy, maxflow bool, ref *exec.Result) EvictionMeasurement {
	t.Helper()
	var best EvictionMeasurement
	for i := 0; i < n; i++ {
		sd := DefaultRecomputeHeavyDAG()
		m, res, err := MeasureEviction(sd, t.TempDir(), RecomputeHeavyColdBudget, policy, maxflow, 8)
		if err != nil {
			t.Fatalf("%s: %v", EvictionConfigName(policy, maxflow), err)
		}
		if i == 0 {
			for it, r := range res {
				if err := OutputValuesEqual(sd.G, ref, r); err != nil {
					t.Errorf("%s iter%d: %v", m.Config, it+1, err)
				}
			}
		}
		if i == 0 || m.Iter2WallMS < best.Iter2WallMS {
			crown := best.CrownRetained
			best = m
			if i > 0 {
				// Retention is a policy property, not a timing one: any run
				// losing the crown under a policy that should keep it (or
				// vice versa) must fail the test, whichever run was fastest.
				best.CrownRetained = crown && m.CrownRetained
			}
		} else if !m.CrownRetained {
			best.CrownRetained = false
		}
	}
	return best
}

// TestRewardEvictionBeatsLRU is the tentpole acceptance check: on the
// recompute-heavy shape under cold-tier pressure, reward-aware eviction
// sacrifices cheap fillers and keeps the serial chain, so the second
// iteration replans against a still-loadable chain instead of recomputing
// 20 ms of serial work — at least 20% lower wall than the LRU baseline
// (in practice several times lower; the margin absorbs throttled-host
// noise). The two policies run interleaved, min-of-3 each, and both must
// produce outputs byte-identical to an unpressured in-memory reference.
func TestRewardEvictionBeatsLRU(t *testing.T) {
	ref, err := RunSched(DefaultRecomputeHeavyDAG(), exec.Dataflow, 8)
	if err != nil {
		t.Fatal(err)
	}
	lru := measureEvictionBest(t, 3, store.EvictLRU, false, ref)
	reward := measureEvictionBest(t, 3, store.EvictReward, false, ref)
	if lru.Evictions == 0 || reward.Evictions == 0 {
		t.Fatalf("no eviction pressure: lru=%d reward=%d evictions (budget %d)",
			lru.Evictions, reward.Evictions, RecomputeHeavyColdBudget)
	}
	if lru.CrownRetained {
		t.Errorf("LRU retained the crown — the shape no longer forces the policies apart")
	}
	if !reward.CrownRetained {
		t.Errorf("reward-aware eviction lost the crown (saving-per-byte ranking broken)")
	}
	if reward.Iter2WallMS > 0.8*lru.Iter2WallMS {
		t.Errorf("reward iter2 %.2fms not ≥20%% below LRU iter2 %.2fms", reward.Iter2WallMS, lru.Iter2WallMS)
	}
	t.Logf("iter2 wall: lru %.2fms (evictions %d, loaded %d) vs reward %.2fms (evictions %d, loaded %d)",
		lru.Iter2WallMS, lru.Evictions, lru.Loaded2, reward.Iter2WallMS, reward.Evictions, reward.Loaded2)
}

// TestMaxflowEvictionRetainsCrown drives the reward+maxflow configuration:
// the global evict-set planner must agree with the greedy ranking about the
// crown (keep it), still relieve the budget pressure, and stay
// byte-identical on outputs.
func TestMaxflowEvictionRetainsCrown(t *testing.T) {
	ref, err := RunSched(DefaultRecomputeHeavyDAG(), exec.Dataflow, 8)
	if err != nil {
		t.Fatal(err)
	}
	m := measureEvictionBest(t, 1, store.EvictReward, true, ref)
	if m.Evictions == 0 {
		t.Fatal("no eviction pressure under maxflow config")
	}
	if !m.CrownRetained {
		t.Error("maxflow evict-set planner evicted the crown")
	}
	if m.ColdUsed > RecomputeHeavyColdBudget {
		t.Errorf("cold tier over budget: %d > %d", m.ColdUsed, RecomputeHeavyColdBudget)
	}
}
