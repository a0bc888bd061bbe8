package systems

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/workload"
)

// openSystem opens the named system's preset rooted at baseDir, applying
// tweak (if any) to the options first; the session is closed at test end.
func openSystem(t *testing.T, kind Kind, baseDir string, tweak func(*core.Options)) *core.Session {
	t.Helper()
	opts, err := Preset(kind, baseDir)
	if err != nil {
		t.Fatal(err)
	}
	if tweak != nil {
		tweak(&opts)
	}
	sess, err := core.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	return sess
}

// runScenarioMetrics replays a scenario on one system and returns the
// headline metrics per iteration.
func runScenarioMetrics(t *testing.T, kind Kind, sc *workload.Scenario) []ml.Metrics {
	t.Helper()
	sess := openSystem(t, kind, t.TempDir(), nil)
	var out []ml.Metrics
	for i, step := range sc.Steps {
		rep, err := sess.Run(step.Workflow)
		if err != nil {
			t.Fatalf("%s iteration %d: %v", kind, i+1, err)
		}
		met, ok := rep.Outputs["checked"].(ml.Metrics)
		if !ok {
			t.Fatalf("%s iteration %d: checked output type %T", kind, i+1, rep.Outputs["checked"])
		}
		out = append(out, met)
	}
	return out
}

// The load/compute/prune plan is an optimization, never a semantics change:
// every system must produce bit-identical metrics on every iteration of the
// census scenario.
func TestReuseDoesNotChangeResultsCensus(t *testing.T) {
	sc := workload.CensusScenario(workload.GenerateCensus(500, 150, 11))
	reference := runScenarioMetrics(t, KeystoneML, sc) // recomputes everything
	for _, kind := range []Kind{Helix, DeepDive, HelixUnopt} {
		got := runScenarioMetrics(t, kind, sc)
		for i := range reference {
			if !metricsEqual(got[i], reference[i]) {
				t.Errorf("%s iteration %d: metrics %+v != reference %+v", kind, i+1, got[i], reference[i])
			}
		}
	}
}

// Same invariant on the IE scenario (UDF operators, sequence models).
func TestReuseDoesNotChangeResultsIE(t *testing.T) {
	sc := workload.IEScenario(workload.GenerateNews(40, 12, 11))
	reference := runScenarioMetrics(t, KeystoneML, sc)
	got := runScenarioMetrics(t, Helix, sc)
	for i := range reference {
		if !metricsEqual(got[i], reference[i]) {
			t.Errorf("helix iteration %d: metrics %+v != reference %+v", i+1, got[i], reference[i])
		}
	}
}

func metricsEqual(a, b ml.Metrics) bool {
	eq := func(x, y float64) bool {
		return math.Abs(x-y) < 1e-12 || (math.IsNaN(x) && math.IsNaN(y))
	}
	return eq(a.Accuracy, b.Accuracy) && eq(a.Precision, b.Precision) &&
		eq(a.Recall, b.Recall) && eq(a.F1, b.F1) && eq(a.LogLoss, b.LogLoss) && a.N == b.N
}

func TestHelixStaysWithinBudget(t *testing.T) {
	const budget = 64 << 10 // 64 KiB: far too small for everything
	sess := openSystem(t, Helix, t.TempDir(), func(o *core.Options) { o.BudgetBytes = budget })
	sc := workload.CensusScenario(workload.GenerateCensus(800, 200, 3))
	for i, step := range sc.Steps {
		rep, err := sess.Run(step.Workflow)
		if err != nil {
			t.Fatalf("iteration %d: %v", i+1, err)
		}
		if rep.StoreUsed > budget {
			t.Fatalf("iteration %d: store used %d > budget %d", i+1, rep.StoreUsed, budget)
		}
	}
}

// TestHelixSpillTierAbsorbsBudgetPressure: with the same far-too-small hot
// budget as TestHelixStaysWithinBudget plus an unbudgeted spill tier, the
// session spills instead of dropping materializations, stays inside the
// hot budget, and produces iteration metrics identical to the tierless run.
func TestHelixSpillTierAbsorbsBudgetPressure(t *testing.T) {
	const budget = 64 << 10
	sc := workload.CensusScenario(workload.GenerateCensus(800, 200, 3))
	plain := runScenarioMetrics(t, Helix, sc)

	sess := openSystem(t, Helix, t.TempDir(), func(o *core.Options) {
		o.BudgetBytes = budget
		o.SpillDir = o.StoreDir + "-spill" // unbudgeted cold tier
	})
	var spills int64
	for i, step := range sc.Steps {
		rep, err := sess.Run(step.Workflow)
		if err != nil {
			t.Fatalf("iteration %d: %v", i+1, err)
		}
		if rep.StoreUsed > budget {
			t.Fatalf("iteration %d: hot tier used %d > budget %d", i+1, rep.StoreUsed, budget)
		}
		spills += rep.Spills
		met := rep.Outputs["checked"].(ml.Metrics)
		if math.Abs(met.Accuracy-plain[i].Accuracy) > 0 {
			t.Errorf("iteration %d: accuracy %v diverges from tierless %v", i+1, met.Accuracy, plain[i].Accuracy)
		}
	}
	if spills == 0 {
		t.Fatalf("no spills across the scenario despite the %d-byte hot budget", budget)
	}
	if sess.Spill() == nil || sess.Spill().Used() == 0 {
		t.Fatal("spill tier missing or empty")
	}
}

func TestHelixUnoptNeverPersists(t *testing.T) {
	sess := openSystem(t, HelixUnopt, "", nil)
	p := workload.DefaultCensusParams(workload.GenerateCensus(200, 50, 5))
	for i := 0; i < 2; i++ {
		rep, err := sess.Run(p.Build())
		if err != nil {
			t.Fatal(err)
		}
		if rep.StoreUsed != 0 {
			t.Errorf("iteration %d persisted %d bytes", i+1, rep.StoreUsed)
		}
		computed, loaded, _ := rep.Counts()
		if loaded != 0 {
			t.Errorf("iteration %d loaded %d nodes", i+1, loaded)
		}
		if computed == 0 {
			t.Errorf("iteration %d computed nothing", i+1)
		}
	}
}

func TestDeepDiveRerunsMLEveryIteration(t *testing.T) {
	sess := openSystem(t, DeepDive, t.TempDir(), nil)
	p := workload.DefaultCensusParams(workload.GenerateCensus(200, 50, 5))
	var last *core.Report
	for i := 0; i < 3; i++ {
		rep, err := sess.Run(p.Build())
		if err != nil {
			t.Fatal(err)
		}
		last = rep
	}
	// Even on a fully unchanged workflow, DeepDive recomputes ML + eval.
	g := last.Graph
	for _, name := range []string{"model", "predictions", "checked"} {
		id := g.Lookup(name)
		if last.Nodes[id].State.String() != "compute" {
			t.Errorf("%s state = %v, want compute", name, last.Nodes[id].State)
		}
	}
}

func TestSessionsAreIsolated(t *testing.T) {
	// Two helix sessions over different BaseDirs must not share stores.
	p := workload.DefaultCensusParams(workload.GenerateCensus(200, 50, 5))
	s1 := openSystem(t, Helix, t.TempDir(), nil)
	if _, err := s1.Run(p.Build()); err != nil {
		t.Fatal(err)
	}
	s2 := openSystem(t, Helix, t.TempDir(), nil)
	rep, err := s2.Run(p.Build())
	if err != nil {
		t.Fatal(err)
	}
	if _, loaded, _ := rep.Counts(); loaded != 0 {
		t.Errorf("fresh session loaded %d nodes from a foreign store", loaded)
	}
}

// Sharing a BaseDir lets a new session warm-start from a previous one's
// materializations — the cross-session reuse the content-addressed store
// enables for free.
func TestWarmStartAcrossSessions(t *testing.T) {
	dir := t.TempDir()
	p := workload.DefaultCensusParams(workload.GenerateCensus(200, 50, 5))
	s1 := openSystem(t, Helix, dir, nil)
	if _, err := s1.Run(p.Build()); err != nil {
		t.Fatal(err)
	}
	s2 := openSystem(t, Helix, dir, nil)
	rep, err := s2.Run(p.Build())
	if err != nil {
		t.Fatal(err)
	}
	if _, loaded, _ := rep.Counts(); loaded == 0 {
		t.Error("warm-started session loaded nothing")
	}
}
