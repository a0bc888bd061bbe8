package bench

import (
	"testing"
	"time"
)

// TestMeasureCodecStoreCounters drives the codec shape through the
// store-backed two-iteration protocol and asserts the encode counter and
// the cold-read counter attribute every persist and every cold hit, and
// that the second iteration reproduces the first iteration's outputs
// through the cold tier.
func TestMeasureCodecStoreCounters(t *testing.T) {
	// 5ms of simulated operator work per producer makes cold loads (sub-ms
	// at the seeded cold throughput) clearly cheaper than recompute, so the
	// optimizer's second-iteration plan actually exercises cold reads.
	sd := CodecDAG(8, 24, 16, 5*time.Millisecond)
	// Hot budget far below the materialized footprint forces spills, so the
	// second iteration's loads actually exercise the cold-read path.
	const hotBudget = 8 << 10

	m, res, err := MeasureCodecStore(sd, t.TempDir(), hotBudget, -1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.BinaryEncodes == 0 {
		t.Error("no encodes counted")
	}
	if m.Spills == 0 {
		t.Fatalf("hot budget %d did not force spills", hotBudget)
	}
	if m.ColdReads == 0 {
		t.Errorf("no cold reads despite %d spills", m.Spills)
	}
	if err := OutputValuesEqual(sd.G, res[0], res[1]); err != nil {
		t.Errorf("iter 1 vs iter 2: %v", err)
	}
}
