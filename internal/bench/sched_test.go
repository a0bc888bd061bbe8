package bench

import (
	"reflect"
	"testing"
	"time"
)

func schedShapes() []*SchedDAG {
	const us = time.Microsecond
	return []*SchedDAG{
		StragglerLevelDAG(3, 3, 200*us, 20*us),
		WideDAG(8, 50*us),
		SkewedLevelDAG(3, 3, 200*us, 20*us),
		StragglerChainDAG(5, 300*us, 20*us),
		FanoutChainDAG(6, 4, 50*us),
		CPUFanoutDAG(6, 4, 20*us),
		ContentionDAG(8, 6),
	}
}

// TestSchedDAGsValid: every builder yields an acyclic graph with at least
// one output and tasks sized to the graph.
func TestSchedDAGsValid(t *testing.T) {
	for _, sd := range schedShapes() {
		if _, err := sd.G.Topo(); err != nil {
			t.Errorf("%s: %v", sd.Name, err)
		}
		if len(sd.Tasks) != sd.G.Len() {
			t.Errorf("%s: %d tasks for %d nodes", sd.Name, len(sd.Tasks), sd.G.Len())
		}
		if len(sd.G.Outputs()) == 0 {
			t.Errorf("%s: no outputs", sd.Name)
		}
		if len(sd.Plan().States) != sd.G.Len() {
			t.Errorf("%s: plan mis-sized", sd.Name)
		}
	}
}

// TestSchedShapesEquivalentAcrossStrategies: on every stress shape a
// 4-worker engine run produces values byte-identical to the sequential
// reference — the correctness half of the scheduler benchmarks.
func TestSchedShapesEquivalentAcrossStrategies(t *testing.T) {
	for _, sd := range schedShapes() {
		res, err := RunSched(sd, 4, false)
		if err != nil {
			t.Fatalf("%s: %v", sd.Name, err)
		}
		if err := SchedValuesEqual(res, sequentialRun(sd.G, sd.Tasks, sd.Plan(), nil)); err != nil {
			t.Errorf("%s: %v", sd.Name, err)
		}
	}
}

// TestDispatchModesEquivalentOnShapes: the dispatcher matches the
// sequential reference on every shape at worker counts that change who
// runs what (1, 2 and 8). The 4-worker run is
// TestSchedShapesEquivalentAcrossStrategies.
func TestDispatchModesEquivalentOnShapes(t *testing.T) {
	for _, sd := range schedShapes() {
		ref := sequentialRun(sd.G, sd.Tasks, sd.Plan(), nil)
		for _, workers := range []int{1, 2, 8} {
			res, err := RunSched(sd, workers, false)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", sd.Name, workers, err)
			}
			if err := SchedValuesEqual(res, ref); err != nil {
				t.Errorf("%s workers=%d: %v", sd.Name, workers, err)
			}
		}
	}
}

// TestFanoutChainStartsLongPoleFirst is the ordering-latency check on the
// adversarial fanout shape, where the long chain has the highest IDs.
// Dispatch in ID order would drain every cheap branch before the chain
// gets a worker, for a makespan of (⌈short/workers⌉ + depth) task-lengths;
// critical-path ordering starts the chain immediately and overlaps the
// branches with it. The best of five runs must beat that product by 10 %
// (8.1ms for 12 branches, a 6-deep chain, 1ms tasks and 4 workers). The
// shape is sleep-based, so the margin does not depend on spare cores.
func TestFanoutChainStartsLongPoleFirst(t *testing.T) {
	const short, depth, workers, d = 12, 6, 4, time.Millisecond
	sd := FanoutChainDAG(short, depth, d)
	best := time.Duration(1<<62 - 1)
	for i := 0; i < 5; i++ {
		res, err := RunSched(sd, workers, false)
		if err != nil {
			t.Fatal(err)
		}
		best = min(best, res.Wall)
	}
	idOrder := time.Duration((short+workers-1)/workers+depth) * d
	if float64(best) >= 0.9*float64(idOrder) {
		t.Errorf("best wall %v not under 0.9 × %v, the makespan of dispatch in ID order", best, idOrder)
	}
}

// TestRunSchedReleaseDropsIntermediates: the release knob of RunSched
// leaves only output values behind, and they match the
// retain-everything run.
func TestRunSchedReleaseDropsIntermediates(t *testing.T) {
	sd := FanoutChainDAG(4, 3, 0)
	full, err := RunSched(sd, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := RunSched(sd, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	outputs := sd.G.Outputs()
	if len(rel.Values) != len(outputs) {
		t.Errorf("release retained %d values, want %d outputs", len(rel.Values), len(outputs))
	}
	for _, o := range outputs {
		if !reflect.DeepEqual(rel.Values[o], full.Values[o]) {
			t.Errorf("output %d differs under release: %v vs %v", o, rel.Values[o], full.Values[o])
		}
	}
}
