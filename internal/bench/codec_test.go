package bench

import (
	"runtime"
	"testing"
	"time"
)

// TestMeasureCodecStoreCounters drives the codec shape through the
// store-backed two-iteration protocol with buffered and with mmap cold reads
// and asserts the encode counter and the mmap-vs-buffered cold-read counters
// attribute every persist and every cold hit to the right path.
func TestMeasureCodecStoreCounters(t *testing.T) {
	// 5ms of simulated operator work per producer makes cold loads (sub-ms
	// at the seeded cold throughput) clearly cheaper than recompute, so the
	// optimizer's second-iteration plan actually exercises cold reads.
	sd := CodecDAG(8, 24, 16, 5*time.Millisecond)
	// Hot budget far below the materialized footprint forces spills, so the
	// second iteration's loads actually exercise the cold-read path.
	const hotBudget = 8 << 10

	binM, binRes, err := MeasureCodecStore(sd, t.TempDir(), false, hotBudget, -1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if binM.BinaryEncodes == 0 {
		t.Error("buffered config: no encodes counted")
	}
	if binM.Spills == 0 {
		t.Fatalf("hot budget %d did not force spills", hotBudget)
	}
	if binM.BufferedColdReads == 0 {
		t.Errorf("buffered config: no buffered cold reads despite %d spills", binM.Spills)
	}
	if binM.MmapColdReads != 0 {
		t.Errorf("buffered config recorded %d mmap cold reads", binM.MmapColdReads)
	}

	mmapM, mmapRes, err := MeasureCodecStore(sd, t.TempDir(), true, hotBudget, -1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if runtime.GOOS == "linux" {
		if mmapM.MmapColdReads == 0 {
			t.Errorf("mmap config: no mmap cold reads despite %d spills", mmapM.Spills)
		}
		if mmapM.BufferedColdReads != 0 {
			t.Errorf("mmap config: %d cold reads fell back to the buffered path", mmapM.BufferedColdReads)
		}
	} else if mmapM.MmapColdReads != 0 {
		t.Errorf("mmap unavailable on %s but counted %d mmap reads", runtime.GOOS, mmapM.MmapColdReads)
	}

	// Both configurations must agree byte-identically on the outputs of
	// every iteration — the cold-read path is a pure transport change.
	for i := range binRes {
		if err := OutputValuesEqual(sd.G, binRes[i], mmapRes[i]); err != nil {
			t.Errorf("iter %d binary vs binary+mmap: %v", i+1, err)
		}
	}
}
