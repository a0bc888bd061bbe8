package bench

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/exec"
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

// TestDispatchModesEquivalentOnShapes: the work-stealing dispatcher
// matches the sequential reference on every shape at worker counts that
// change who steals what (1, 2 and 8). The 4-worker run is
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

// TestLiarAdaptiveBeatsStatic is the online re-prioritization acceptance
// check on the deceptive-estimate LiarDAG shape: the lying history buries
// the true long-pole chain behind claimed-expensive decoys, so static
// critical-path pays the whole chain as a serial tail while adaptive
// re-weighting corrects the decoy group off the first measured
// completions. Work-stealing declines a deceptively under-weighted local
// top in favor of the published global best (the stranding consult), so
// static dispatch really pays the lie as a serial tail instead of being
// accidentally rescued by steal-half stranding. The design-point gap is
// ~25-40% at 8 workers; the assertion demands 15%: on a throttled CI host a slow window inflates
// both modes' walls by the same additive freeze time, which preserves the
// absolute gap but pushes the ratio toward 1, so the factor carries slack
// for exactly that signature. The shape is sleep-dominated so the gap
// does not depend on spare cores, each mode takes its min over five runs
// (one clean run per mode is all the comparison needs), and values must
// be byte-identical across modes.
func TestLiarAdaptiveBeatsStatic(t *testing.T) {
	const factor = 0.85
	t.Run("worksteal", func(t *testing.T) {
		best := func(mode exec.Reweight) (time.Duration, *exec.Result) {
			min := time.Duration(1<<62 - 1)
			var bestRes *exec.Result
			for i := 0; i < 5; i++ {
				sd := DefaultLiarDAG()
				_, res, err := MeasureReweight(sd, DefaultLiarHistory(sd), mode, 8)
				if err != nil {
					t.Fatal(err)
				}
				if res.Wall < min {
					min = res.Wall
					bestRes = res
				}
				if mode == exec.Adaptive && res.Reweights == 0 {
					t.Error("adaptive run performed no re-prioritization passes")
				}
			}
			return min, bestRes
		}
		ad, adRes := best(exec.Adaptive)
		off, offRes := best(exec.ReweightOff)
		if err := SchedValuesEqual(adRes, offRes); err != nil {
			t.Fatal(err)
		}
		if float64(ad) > factor*float64(off) {
			t.Errorf("adaptive min-wall %v not ≥%.0f%% below static %v on the liar shape",
				ad, 100*(1-factor), off)
		}
	})
}

// TestMeasureReweightMetadata: the reweight measurement helper reports the
// configuration it ran and a positive wall, and an adaptive liar run
// counts its passes.
func TestMeasureReweightMetadata(t *testing.T) {
	sd := DefaultLiarDAG()
	m, res, err := MeasureReweight(sd, DefaultLiarHistory(sd), exec.Adaptive, 8)
	if err != nil {
		t.Fatal(err)
	}
	if m.Shape != "liar" || m.Nodes != sd.G.Len() || m.Workers != 8 ||
		m.Reweight != "adaptive" {
		t.Errorf("measurement metadata wrong: %+v", m)
	}
	if m.WallMS <= 0 {
		t.Errorf("wall not measured: %+v", m)
	}
	if m.Reweights == 0 || m.Reweights != res.Reweights {
		t.Errorf("reweight passes not carried through: %+v vs result %d", m, res.Reweights)
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
