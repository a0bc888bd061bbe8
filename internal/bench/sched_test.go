package bench

import (
	"reflect"
	"runtime"
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

// TestSchedShapesEquivalentAcrossStrategies: every scheduler configuration
// computes identical values on every stress shape — the correctness half
// of the scheduler benchmarks.
func TestSchedShapesEquivalentAcrossStrategies(t *testing.T) {
	for _, sd := range schedShapes() {
		lb, err := RunSched(sd, exec.LevelBarrier, 4)
		if err != nil {
			t.Fatalf("%s level-barrier: %v", sd.Name, err)
		}
		for _, order := range []exec.Ordering{exec.CriticalPath, exec.MinID} {
			df, err := RunSchedOrdered(sd, exec.Dataflow, order, 4, false)
			if err != nil {
				t.Fatalf("%s dataflow/%v: %v", sd.Name, order, err)
			}
			if !reflect.DeepEqual(df.Values, lb.Values) {
				t.Errorf("%s: values differ between dataflow/%v and level-barrier", sd.Name, order)
			}
		}
	}
}

// TestFanoutChainCriticalPathBeatsMinID is the ordering-latency
// acceptance check on the adversarial fanout shape: critical-path
// dispatch starts the long chain immediately, min-ID drains every cheap
// branch first. The shape is sleep-based so the expected ~33% gap does
// not depend on spare cores; the assertion demands only a 10% win to
// stay far from scheduler jitter. The two modes run interleaved, each
// taking its min over five runs: a throttled-host freeze storm then
// inflates samples of both modes instead of swallowing one mode's whole
// series and compressing the ratio.
func TestFanoutChainCriticalPathBeatsMinID(t *testing.T) {
	sd := FanoutChainDAG(12, 6, time.Millisecond)
	one := func(order exec.Ordering) time.Duration {
		res, err := RunSchedOrdered(sd, exec.Dataflow, order, 4, false)
		if err != nil {
			t.Fatal(err)
		}
		return res.Wall
	}
	cp := time.Duration(1<<62 - 1)
	mi := cp
	for i := 0; i < 5; i++ {
		if w := one(exec.CriticalPath); w < cp {
			cp = w
		}
		if w := one(exec.MinID); w < mi {
			mi = w
		}
	}
	if float64(cp) > 0.9*float64(mi) {
		t.Errorf("critical-path %v not measurably faster than min-id %v on fanout-chain", cp, mi)
	}
}

// TestCPUFanoutCriticalPathNotSlower compares the orderings on the
// CPU-bound fanout. With spare cores critical-path should win outright;
// on starved runners (single-core CI) total work equals makespan whatever
// the order, so the assertion is only "not slower beyond noise".
func TestCPUFanoutCriticalPathNotSlower(t *testing.T) {
	if testing.Short() {
		t.Skip("spin-loop shape is CPU-hungry")
	}
	sd := CPUFanoutDAG(12, 6, 500*time.Microsecond)
	best := func(order exec.Ordering) time.Duration {
		min := time.Duration(1<<62 - 1)
		for i := 0; i < 3; i++ {
			res, err := RunSchedOrdered(sd, exec.Dataflow, order, 4, false)
			if err != nil {
				t.Fatal(err)
			}
			if res.Wall < min {
				min = res.Wall
			}
		}
		return min
	}
	cp, mi := best(exec.CriticalPath), best(exec.MinID)
	if float64(cp) > 1.25*float64(mi) {
		t.Errorf("critical-path %v slower than min-id %v beyond noise on cpu-fanout", cp, mi)
	}
	if runtime.NumCPU() >= 4 && float64(cp) > 0.95*float64(mi) {
		t.Logf("note: %d cores available but critical-path %v did not beat min-id %v", runtime.NumCPU(), cp, mi)
	}
}

// TestDispatchModesEquivalentOnShapes: on every stress shape, the
// work-stealing and global-heap dispatchers produce byte-identical values
// (checked against each other and the level-barrier reference).
func TestDispatchModesEquivalentOnShapes(t *testing.T) {
	for _, sd := range schedShapes() {
		lb, err := RunSched(sd, exec.LevelBarrier, 4)
		if err != nil {
			t.Fatalf("%s level-barrier: %v", sd.Name, err)
		}
		for _, mode := range []exec.DispatchMode{exec.WorkSteal, exec.GlobalHeap} {
			df, err := RunSchedDispatch(sd, exec.Dataflow, exec.CriticalPath, mode, 4, false)
			if err != nil {
				t.Fatalf("%s %v: %v", sd.Name, mode, err)
			}
			if err := SchedValuesEqual(df, lb); err != nil {
				t.Errorf("%s %v: %v", sd.Name, mode, err)
			}
		}
	}
}

// TestContentionWorkStealNotSlower is the CI-safe guard on the dispatch
// rewrite: on the contention shape, work-stealing must not lose to the
// global heap beyond noise (best of 5 each, interleaved so a freeze
// storm hits both modes' samples). The win itself is measured by the
// benchmark's wide_dag workload, not asserted here — wall-clock ratios on
// starved shared runners are too noisy to gate a build on.
func TestContentionWorkStealNotSlower(t *testing.T) {
	sd := ContentionDAG(32, 16)
	one := func(mode exec.DispatchMode) time.Duration {
		res, err := RunSchedDispatch(sd, exec.Dataflow, exec.CriticalPath, mode, 8, false)
		if err != nil {
			t.Fatal(err)
		}
		return res.Wall
	}
	ws := time.Duration(1<<62 - 1)
	gh := ws
	for i := 0; i < 5; i++ {
		if w := one(exec.WorkSteal); w < ws {
			ws = w
		}
		if w := one(exec.GlobalHeap); w < gh {
			gh = w
		}
	}
	if float64(ws) > 1.5*float64(gh) {
		t.Errorf("work-stealing %v slower than global heap %v beyond noise on contention shape", ws, gh)
	}
}

// TestMeasureDispatch: the dispatch measurement helper reports the shape,
// a positive wall, cross-worker transfers under work-stealing, and a
// non-zero peak (the structural cold-size floor guarantees estimates
// before any size is learned).
func TestMeasureDispatch(t *testing.T) {
	sd := ContentionDAG(8, 6)
	m, res, err := MeasureDispatch(sd, exec.WorkSteal, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || len(res.Values) != len(sd.G.Outputs()) {
		t.Fatalf("measured run result missing or wrong size: %+v", res)
	}
	if m.Shape != sd.Name || m.Nodes != sd.G.Len() || m.Workers != 4 || m.Dispatch != "worksteal" {
		t.Errorf("measurement metadata wrong: %+v", m)
	}
	if m.WallMS <= 0 {
		t.Errorf("wall not measured: %+v", m)
	}
	if m.PeakLiveBytes <= 0 {
		t.Errorf("peak live bytes not measured (cold structural floor missing?): %+v", m)
	}
	gh, ghRes, err := MeasureDispatch(sd, exec.GlobalHeap, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := SchedValuesEqual(res, ghRes); err != nil {
		t.Errorf("measured runs disagree across modes: %v", err)
	}
	if gh.Steals != 0 || gh.Handoffs != 0 {
		t.Errorf("global-heap measurement reported transfers: %+v", gh)
	}
}

// TestLiarAdaptiveBeatsStatic is the online re-prioritization acceptance
// check on the deceptive-estimate LiarDAG shape: the lying history buries
// the true long-pole chain behind claimed-expensive decoys, so static
// critical-path pays the whole chain as a serial tail while adaptive
// re-weighting corrects the decoy group off the first measured
// completions. Asserted under both dispatchers: the global heap buries the
// chain strictly by rank, and work-stealing — since the stranding-consult
// fix — declines a deceptively under-weighted local top in favor of the
// published global best, so the lie costs it the same serial tail instead
// of being accidentally rescued by steal-half stranding (the PR 4
// finding, now closed). The design-point gap is ~25-40% at 8 workers; the
// assertion demands 15%: on a throttled CI host a slow window inflates
// both modes' walls by the same additive freeze time, which preserves the
// absolute gap but pushes the ratio toward 1, so the factor carries slack
// for exactly that signature. The shape is sleep-dominated so the gap
// does not depend on spare cores, each mode takes its min over five runs
// (one clean run per mode is all the comparison needs), and values must
// be byte-identical across modes.
func TestLiarAdaptiveBeatsStatic(t *testing.T) {
	const factor = 0.85
	for _, dispatch := range []exec.DispatchMode{exec.GlobalHeap, exec.WorkSteal} {
		t.Run(dispatch.String(), func(t *testing.T) {
			best := func(mode exec.Reweight) (time.Duration, *exec.Result) {
				min := time.Duration(1<<62 - 1)
				var bestRes *exec.Result
				for i := 0; i < 5; i++ {
					sd := DefaultLiarDAG()
					_, res, err := MeasureReweight(sd, DefaultLiarHistory(sd), mode, dispatch, 8)
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
				t.Errorf("adaptive min-wall %v not ≥%.0f%% below static %v on the liar shape under %s",
					ad, 100*(1-factor), off, dispatch)
			}
		})
	}
}

// TestMeasureReweightMetadata: the reweight measurement helper reports the
// configuration it ran and a positive wall, and an adaptive liar run
// counts its passes.
func TestMeasureReweightMetadata(t *testing.T) {
	sd := DefaultLiarDAG()
	m, res, err := MeasureReweight(sd, DefaultLiarHistory(sd), exec.Adaptive, exec.WorkSteal, 8)
	if err != nil {
		t.Fatal(err)
	}
	if m.Shape != "liar" || m.Nodes != sd.G.Len() || m.Workers != 8 ||
		m.Reweight != "adaptive" || m.Dispatch != "worksteal" {
		t.Errorf("measurement metadata wrong: %+v", m)
	}
	if m.WallMS <= 0 {
		t.Errorf("wall not measured: %+v", m)
	}
	if m.Reweights == 0 || m.Reweights != res.Reweights {
		t.Errorf("reweight passes not carried through: %+v vs result %d", m, res.Reweights)
	}
}

// TestRunSchedReleaseDropsIntermediates: the release knob of
// RunSchedOrdered leaves only output values behind, and they match the
// retain-everything run.
func TestRunSchedReleaseDropsIntermediates(t *testing.T) {
	sd := FanoutChainDAG(4, 3, 0)
	full, err := RunSchedOrdered(sd, exec.Dataflow, exec.CriticalPath, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := RunSchedOrdered(sd, exec.Dataflow, exec.CriticalPath, 4, true)
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
