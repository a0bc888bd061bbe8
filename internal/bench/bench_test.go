package bench

import (
	"strings"
	"testing"
	"time"

	"repro/internal/systems"
	"repro/internal/workload"
)

// smallCensus keeps unit-test scenarios fast; the real figure sizes live in
// cmd/helix-bench.
func smallCensus() *workload.Scenario {
	return workload.CensusScenario(workload.GenerateCensus(300, 80, 1))
}

func TestRunScenarioHelix(t *testing.T) {
	sc := smallCensus()
	res, err := RunScenario(systems.Helix, sc, t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) != sc.Len() {
		t.Fatalf("iterations = %d", len(res.Iterations))
	}
	// Cumulative is monotone increasing.
	for i := 1; i < len(res.Iterations); i++ {
		if res.Iterations[i].Cumulative < res.Iterations[i-1].Cumulative {
			t.Errorf("cumulative not monotone at %d", i)
		}
	}
	// After iteration 1, helix should be loading something.
	totalLoaded := 0
	for _, it := range res.Iterations[1:] {
		totalLoaded += it.Loaded
	}
	if totalLoaded == 0 {
		t.Error("helix never loaded a materialized result")
	}
	// Version store populated with metrics.
	if res.Versions.Len() != sc.Len() {
		t.Errorf("versions = %d", res.Versions.Len())
	}
	if _, err := res.Versions.Best("accuracy"); err != nil {
		t.Errorf("no accuracy metric tracked: %v", err)
	}
}

func TestRunScenarioKeystoneNeverLoads(t *testing.T) {
	res, err := RunScenario(systems.KeystoneML, smallCensus(), t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range res.Iterations {
		if it.Loaded != 0 {
			t.Errorf("keystoneml loaded %d nodes at iteration %d", it.Loaded, it.Iteration)
		}
		if it.StoreUsed != 0 {
			t.Errorf("keystoneml stored bytes at iteration %d", it.Iteration)
		}
	}
}

func TestRunScenarioDeepDiveStoresEverything(t *testing.T) {
	res, err := RunScenario(systems.DeepDive, smallCensus(), t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations[0].StoreUsed == 0 {
		t.Error("deepdive stored nothing on iteration 1")
	}
	// Store usage grows (or stays) across iterations: materialize-all.
	last := res.Iterations[0].StoreUsed
	for _, it := range res.Iterations[1:] {
		if it.StoreUsed < last {
			t.Errorf("store shrank at iteration %d", it.Iteration)
		}
		last = it.StoreUsed
	}
}

func TestComparisonTableAndSeries(t *testing.T) {
	sc := smallCensus()
	cmp, err := RunComparison(sc, []systems.Kind{systems.Helix, systems.KeystoneML}, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	table := cmp.Table()
	for _, want := range []string{"cumulative run time", "helix", "keystoneml", "helix vs keystoneml"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	iters, vals, err := cmp.CumulativeSeries(systems.Helix)
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != sc.Len() || len(vals) != sc.Len() {
		t.Errorf("series lengths %d/%d", len(iters), len(vals))
	}
	if _, _, err := cmp.CumulativeSeries(systems.DeepDive); err == nil {
		t.Error("missing system accepted")
	}
}

// TestSummarySignWhenHelixSlower: a comparator that beats HELIX is reported
// as a positive "higher" percentage, never a negative "lower" one.
func TestSummarySignWhenHelixSlower(t *testing.T) {
	series := func(kind systems.Kind, walls ...time.Duration) *SeriesResult {
		s := &SeriesResult{System: kind}
		var cum time.Duration
		for i, w := range walls {
			cum += w
			s.Iterations = append(s.Iterations, IterationResult{
				Iteration: i + 1, Kind: workload.StepPrep, Wall: w, Cumulative: cum,
			})
		}
		return s
	}
	cmp := &Comparison{
		Scenario: &workload.Scenario{Name: "synthetic", Steps: make([]workload.Step, 2)},
		Series: []*SeriesResult{
			series(systems.Helix, 60*time.Millisecond, 40*time.Millisecond),
			series(systems.KeystoneML, 40*time.Millisecond, 40*time.Millisecond),
			series(systems.DeepDive, 100*time.Millisecond, 100*time.Millisecond),
		},
	}
	sum := cmp.Summary()
	for _, want := range []string{
		"helix vs keystoneml: 25% higher cumulative runtime (0.8x)",
		"helix vs deepdive: 50% lower cumulative runtime (2.0x)",
	} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}

func TestHelixBeatsKeystoneOnCumulativeRuntime(t *testing.T) {
	// The paper's core claim, at unit-test scale: across a 10-iteration
	// session, HELIX's cumulative runtime is lower than the never-reuse
	// baseline's. Uses a moderately sized dataset so compute dominates
	// orchestration overhead.
	sc := workload.CensusScenario(workload.GenerateCensus(3000, 800, 7))
	cmp, err := RunComparison(sc, []systems.Kind{systems.Helix, systems.KeystoneML}, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var helix, keystone float64
	for _, s := range cmp.Series {
		switch s.System {
		case systems.Helix:
			helix = float64(s.Cumulative())
		case systems.KeystoneML:
			keystone = float64(s.Cumulative())
		}
	}
	if helix >= keystone {
		t.Errorf("helix (%.1fms) not faster than keystoneml (%.1fms)", helix/1e6, keystone/1e6)
	}
}

func TestMedianWallByKind(t *testing.T) {
	res, err := RunScenario(systems.Helix, smallCensus(), t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	med := res.MedianWallByKind()
	for _, k := range []workload.StepKind{workload.StepPrep, workload.StepML, workload.StepEval} {
		if med[k] <= 0 {
			t.Errorf("median for %s = %v", k, med[k])
		}
	}
}

func TestTruncate(t *testing.T) {
	if got := truncate("short", 10); got != "short" {
		t.Errorf("truncate short = %q", got)
	}
	if got := truncate("this is a very long description", 10); got != "this is..." || len(got) != 10 {
		t.Errorf("truncate long = %q", got)
	}
}

func TestSystemsPreset(t *testing.T) {
	// Unknown system.
	if _, err := systems.Preset(systems.Kind("nope"), ""); err == nil {
		t.Error("unknown system accepted")
	}
	// Persisting systems require a base directory.
	if _, err := systems.Preset(systems.Helix, ""); err == nil {
		t.Error("helix without a base directory accepted")
	}
	// Non-persisting systems don't.
	if _, err := systems.Preset(systems.KeystoneML, ""); err != nil {
		t.Errorf("keystoneml: %v", err)
	}
	if _, err := systems.Preset(systems.HelixUnopt, ""); err != nil {
		t.Errorf("helix-unopt: %v", err)
	}
}
