package bench

import (
	"testing"

	"repro/internal/dag"
	"repro/internal/opt"
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
	res, err := RunSched(sd, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Wall <= 0 {
		t.Fatal("no wall time")
	}
}

// TestRewardEvictionRetainsCrown: on the recompute-heavy shape under
// cold-tier pressure, reward-aware eviction sacrifices cheap fillers and
// keeps the serial chain's crown — although it is the oldest entry, so a
// recency ranking would lose it — and the second iteration replans against
// the still-loadable crown instead of recomputing 20 ms of serial work.
// Retention is a ranking property, not a timing one, so every run must
// keep the crown, stay within budget, and produce outputs byte-identical
// to an unpressured in-memory reference.
func TestRewardEvictionRetainsCrown(t *testing.T) {
	ref, err := RunSched(DefaultRecomputeHeavyDAG(), 8, false)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		sd := DefaultRecomputeHeavyDAG()
		m, res, err := MeasureEviction(sd, t.TempDir(), RecomputeHeavyColdBudget, 8)
		if err != nil {
			t.Fatal(err)
		}
		if m.Evictions == 0 {
			t.Fatalf("run %d: no eviction pressure (budget %d)", run, RecomputeHeavyColdBudget)
		}
		if !m.CrownRetained {
			t.Errorf("run %d: reward-aware eviction lost the crown (saving-per-byte ranking broken)", run)
		}
		if m.ColdUsed > RecomputeHeavyColdBudget {
			t.Errorf("run %d: cold tier over budget: %d > %d", run, m.ColdUsed, RecomputeHeavyColdBudget)
		}
		for i, task := range sd.Tasks {
			if task.Key == RecomputeHeavyCrownKey && res[1].Nodes[i].State != opt.Load {
				t.Errorf("run %d: iteration 2 plans the crown as %v, want a load", run, res[1].Nodes[i].State)
			}
		}
		for it, r := range res {
			if err := OutputValuesEqual(sd.G, ref, r); err != nil {
				t.Errorf("run %d iter%d: %v", run, it+1, err)
			}
		}
		t.Logf("run %d: iter2 wall %.2fms, evictions %d, loaded %d", run, m.Iter2WallMS, m.Evictions, m.Loaded2)
	}
}
