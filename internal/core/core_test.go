package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/ml"
	"repro/internal/opt"
	"repro/internal/sig"
)

// censusCSV is a tiny deterministic dataset: income > 50K iff age >= 40 and
// education is Bachelors (learnable from the features the workflow builds).
func censusCSV(rows int, offset int) string {
	var b strings.Builder
	edus := []string{"HS", "Bachelors", "Masters"}
	occs := []string{"Sales", "Tech", "Admin"}
	for i := 0; i < rows; i++ {
		age := 20 + (i*7+offset)%45
		edu := edus[(i+offset)%3]
		occ := occs[(i*2+offset)%3]
		target := "<=50K"
		if age >= 40 && edu == "Bachelors" {
			target = ">50K"
		}
		b.WriteString(strings.Join([]string{
			itoa(age), edu, occ, target,
		}, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var d []byte
	for i > 0 {
		d = append([]byte{byte('0' + i%10)}, d...)
		i /= 10
	}
	return string(d)
}

// censusWorkflow builds the Figure-1a workflow over synthetic text. The
// regParam and metric arguments are the iteration knobs.
func censusWorkflow(regParam float64, metric string, withOcc bool) *Workflow {
	wf := NewWorkflow("census")
	wf.Source("data", NewLiteralSource(censusCSV(200, 0), censusCSV(60, 1)))
	wf.Apply("rows", NewCSVScanner("age", "education", "occupation", "target"), "data")
	wf.Apply("age", Field("age"), "rows")
	wf.Apply("edu", Field("education"), "rows")
	wf.Apply("ageBucket", Bucket("age", 10), "rows")
	extractors := []string{"age", "edu", "ageBucket"}
	if withOcc {
		wf.Apply("occ", Field("occupation"), "rows")
		extractors = append(extractors, "occ")
	}
	wf.Apply("income", NewFeaturize("target", ">50K"), append([]string{"rows"}, extractors...)...)
	wf.Apply("model", NewLearner("logreg", regParam, 8), "income")
	wf.Apply("predictions", NewPredict(), "model", "income")
	wf.Apply("checked", NewEval(metric), "predictions")
	wf.Output("predictions").Output("checked")
	return wf
}

func TestWorkflowBuilderErrors(t *testing.T) {
	wf := NewWorkflow("bad")
	wf.Source("a", NewLiteralSource("x", "y"))
	wf.Source("a", NewLiteralSource("x", "y")) // duplicate
	if _, err := Compile(wf); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate not reported: %v", err)
	}

	wf2 := NewWorkflow("bad2")
	wf2.Apply("b", NewCSVScanner("c"), "missing")
	if _, err := Compile(wf2); err == nil || !strings.Contains(err.Error(), "undeclared") {
		t.Errorf("undeclared input not reported: %v", err)
	}

	wf3 := NewWorkflow("bad3")
	wf3.Source("a", nil)
	if _, err := Compile(wf3); err == nil {
		t.Error("nil operator accepted")
	}

	wf4 := NewWorkflow("bad4")
	wf4.Output("ghost")
	if _, err := Compile(wf4); err == nil {
		t.Error("output of undeclared node accepted")
	}

	if _, err := Compile(NewWorkflow("empty")); err == nil {
		t.Error("empty workflow accepted")
	}

	wf5 := NewWorkflow("no-output")
	wf5.Source("a", NewLiteralSource("x", "y"))
	if _, err := Compile(wf5); err == nil {
		t.Error("workflow without outputs accepted")
	}
}

func TestCompileGraphShape(t *testing.T) {
	wf := censusWorkflow(0.1, "accuracy", true)
	c, err := Compile(wf)
	if err != nil {
		t.Fatal(err)
	}
	if c.Graph.Len() != 10 {
		t.Errorf("nodes = %d, want 10", c.Graph.Len())
	}
	income := c.Graph.Lookup("income")
	if income == dag.InvalidNode {
		t.Fatal("income missing")
	}
	if got := len(c.Graph.Parents(income)); got != 5 {
		t.Errorf("income parents = %d, want 5 (rows + 4 extractors)", got)
	}
	if !c.Graph.Node(c.Graph.Lookup("checked")).Output {
		t.Error("checked not marked output")
	}
	if c.Category(c.Graph.Lookup("model")) != CatML {
		t.Error("model category wrong")
	}
	if c.Category(c.Graph.Lookup("checked")) != CatEval {
		t.Error("checked category wrong")
	}
	// Signatures are present and unique.
	seen := map[sig.Signature]bool{}
	for _, s := range c.Sigs {
		if s == "" || seen[s] {
			t.Fatalf("bad signature set: %v", c.Sigs)
		}
		seen[s] = true
	}
}

func TestCompileSignatureStability(t *testing.T) {
	c1, err := Compile(censusWorkflow(0.1, "accuracy", true))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Compile(censusWorkflow(0.1, "accuracy", true))
	if err != nil {
		t.Fatal(err)
	}
	for i := range c1.Sigs {
		if c1.Sigs[i] != c2.Sigs[i] {
			t.Errorf("signature %d unstable", i)
		}
	}
	// Changing regParam changes only model and downstream.
	c3, err := Compile(censusWorkflow(0.5, "accuracy", true))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"data", "rows", "age", "income"} {
		i := c1.Graph.Lookup(name)
		if c1.Sigs[i] != c3.Sigs[i] {
			t.Errorf("%s signature changed by regParam edit", name)
		}
	}
	for _, name := range []string{"model", "predictions", "checked"} {
		i := c1.Graph.Lookup(name)
		if c1.Sigs[i] == c3.Sigs[i] {
			t.Errorf("%s signature unchanged by regParam edit", name)
		}
	}
}

func TestSessionFirstRunComputesAll(t *testing.T) {
	s, err := Open(Options{
		SystemName: "helix", StoreDir: t.TempDir(),
		Policy: opt.OnlineHeuristic{}, Reuse: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(censusWorkflow(0.1, "accuracy", true))
	if err != nil {
		t.Fatal(err)
	}
	computed, loaded, pruned := rep.Counts()
	if loaded != 0 || pruned != 0 {
		t.Errorf("first run: computed=%d loaded=%d pruned=%d", computed, loaded, pruned)
	}
	met, ok := rep.Outputs["checked"].(ml.Metrics)
	if !ok {
		t.Fatalf("checked output type %T", rep.Outputs["checked"])
	}
	if met.Accuracy < 0.8 {
		t.Errorf("census accuracy = %v, want >= 0.8", met.Accuracy)
	}
	if rep.Iteration != 1 || rep.Wall <= 0 {
		t.Errorf("report bookkeeping: %+v", rep)
	}
}

func TestSessionMLIterationReusesPrep(t *testing.T) {
	s, err := Open(Options{
		SystemName: "helix", StoreDir: t.TempDir(),
		Policy: opt.MaterializeAll{}, Reuse: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(censusWorkflow(0.1, "accuracy", true)); err != nil {
		t.Fatal(err)
	}
	// Iteration 2: ML edit (regParam). Prep should be loaded or pruned, not
	// recomputed.
	rep2, err := s.Run(censusWorkflow(0.5, "accuracy", true))
	if err != nil {
		t.Fatal(err)
	}
	g := rep2.Graph
	incomeState := rep2.Plan.States[g.Lookup("income")]
	if incomeState == opt.Compute {
		t.Errorf("income recomputed on ML iteration (state=%v)", incomeState)
	}
	modelState := rep2.Plan.States[g.Lookup("model")]
	if modelState != opt.Compute {
		t.Errorf("model not recomputed after regParam edit (state=%v)", modelState)
	}
	// Change list flags the learner and downstream, not upstream prep.
	changed := map[string]bool{}
	for _, ch := range rep2.Changes {
		changed[ch.Name] = true
	}
	if !changed["model"] || !changed["predictions"] || !changed["checked"] {
		t.Errorf("changes missing ML nodes: %v", rep2.Changes)
	}
	if changed["rows"] || changed["income"] {
		t.Errorf("prep nodes spuriously changed: %v", rep2.Changes)
	}
}

// TestSessionSpillTierKeepsReuseUnderPressure runs a first run, an edit, a
// revert and a redo under a hot tier sized to hold everything the first run
// stores but the featurized dataset (income), so income and every ML output
// of a later iteration spill. The placement is fixed whatever the writers'
// timing: with the engine's two materialization writers, all but one of the
// values before income are stored when it is admitted, and those leave no
// room for it; the rest fit in any order. The plan assertions name only nodes
// whose compute dwarfs their load, so no timing sample can flip them: the
// scan (data, rows) is never recomputed after the first run, and neither
// the revert nor the redo retrains model — the redo's model only the spill
// tier holds. Every output is byte-equal to an unbudgeted session's.
func TestSessionSpillTierKeepsReuseUnderPressure(t *testing.T) {
	versions := []*Workflow{
		censusWorkflow(0.1, "accuracy", true),
		censusWorkflow(0.5, "accuracy", true),
		censusWorkflow(0.1, "accuracy", true),
		censusWorkflow(0.5, "accuracy", true),
	}
	// Measure the workflow's full materialization footprint unbudgeted.
	probe, err := Open(Options{
		SystemName: "helix", StoreDir: t.TempDir(),
		Policy: opt.MaterializeAll{}, Reuse: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var probeReps []*Report
	for _, wf := range versions {
		rep, err := probe.Run(wf)
		if err != nil {
			t.Fatal(err)
		}
		probeReps = append(probeReps, rep)
	}
	repProbe := probeReps[0]
	if repProbe.Spills != 0 || repProbe.SpillUsed != 0 {
		t.Fatalf("untiered session reported spill traffic: spills=%d spillUsed=%d", repProbe.Spills, repProbe.SpillUsed)
	}
	income := repProbe.Keys[repProbe.Graph.Lookup("income")]
	incomeEntry, ok := probe.Store().Lookup(income)
	if !ok {
		t.Fatal("probe did not materialize income")
	}
	budget := repProbe.StoreUsed - incomeEntry.Size

	s, err := Open(Options{
		SystemName: "helix", StoreDir: t.TempDir(),
		BudgetBytes: budget, SpillDir: t.TempDir(),
		Policy: opt.MaterializeAll{}, Reuse: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var reps []*Report
	for i, wf := range versions {
		rep, err := s.Run(wf)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
		for name, want := range probeReps[i].Outputs {
			if !bytes.Equal(mustEncode(t, rep.Outputs[name]), mustEncode(t, want)) {
				t.Errorf("iteration %d: output %s differs from the unbudgeted session's", i+1, name)
			}
		}
		if rep.StoreUsed > budget {
			t.Fatalf("iteration %d: hot tier used %d over its %d budget", i+1, rep.StoreUsed, budget)
		}
	}
	if !s.Spill().Has(income) || s.Store().Has(income) {
		t.Fatal("income did not spill")
	}
	// Scanning and cleaning cost tens of microseconds or more; the hot tier
	// serves rows in a few.
	for i, rep := range reps[1:] {
		for _, name := range []string{"data", "rows"} {
			if st := rep.Plan.States[rep.Graph.Lookup(name)]; st == opt.Compute {
				t.Errorf("iteration %d recomputed %s despite the tiered store", i+2, name)
			}
		}
	}
	// A stored model loads in microseconds against a retrain of a hundred
	// or more, so the revert and the redo retrain only if the plan cannot
	// see the stored model.
	for i, rep := range reps[2:] {
		if st := rep.Plan.States[rep.Graph.Lookup("model")]; st == opt.Compute {
			t.Errorf("iteration %d retrained model despite the tiered store", i+3)
		}
	}
	// The spill tier holds the vectorized dataset byte for byte as the
	// unbudgeted probe stored it.
	held, err := s.Spill().GetBytes(income)
	if err != nil {
		t.Fatalf("income dropped by the tiered store: %v", err)
	}
	if want, err := probe.Store().GetBytes(income); err != nil || !bytes.Equal(held, want) {
		t.Errorf("tiered income differs from the probe's (%d vs %d bytes, err=%v)", len(held), len(want), err)
	}
	var spills int64
	for _, rep := range reps {
		spills += rep.Spills
	}
	if c := s.TierCounters(); c.Spills == 0 || c.Spills != spills {
		t.Errorf("session tier counters %+v disagree with the reports' %d spills", c, spills)
	}
	if last := reps[len(reps)-1]; s.Spill().Used() != last.SpillUsed {
		t.Errorf("Session.Spill() usage %d disagrees with report %d", s.Spill().Used(), last.SpillUsed)
	}
}

func TestSessionSpillRequiresStore(t *testing.T) {
	if _, err := Open(Options{SystemName: "helix", SpillDir: t.TempDir()}); err == nil {
		t.Fatal("Open accepted a spill tier without a hot store")
	}
}

func TestSessionIdenticalRerunLoadsOutputsOnly(t *testing.T) {
	s, err := Open(Options{
		SystemName: "helix", StoreDir: t.TempDir(),
		Policy: opt.MaterializeAll{}, Reuse: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(censusWorkflow(0.1, "accuracy", true)); err != nil {
		t.Fatal(err)
	}
	rep2, err := s.Run(censusWorkflow(0.1, "accuracy", true))
	if err != nil {
		t.Fatal(err)
	}
	computed, loaded, _ := rep2.Counts()
	if computed != 0 {
		t.Errorf("identical rerun computed %d nodes", computed)
	}
	if loaded == 0 {
		t.Error("identical rerun loaded nothing")
	}
	if len(rep2.Changes) != 0 {
		t.Errorf("identical rerun reports changes: %v", rep2.Changes)
	}
	// Outputs still present.
	if _, ok := rep2.Outputs["checked"].(ml.Metrics); !ok {
		t.Errorf("outputs missing after pure-load run: %v", rep2.Outputs)
	}
}

func TestSessionNoReuseRecomputesEverything(t *testing.T) {
	s, err := Open(Options{
		SystemName: "keystoneml", StoreDir: t.TempDir(),
		Reuse: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		rep, err := s.Run(censusWorkflow(0.1, "accuracy", true))
		if err != nil {
			t.Fatal(err)
		}
		computed, loaded, _ := rep.Counts()
		if loaded != 0 {
			t.Errorf("iteration %d loaded %d nodes with reuse disabled", i+1, loaded)
		}
		if computed != rep.Graph.Len() {
			t.Errorf("iteration %d computed %d/%d", i+1, computed, rep.Graph.Len())
		}
	}
}

func TestSessionNeverReuseCategory(t *testing.T) {
	s, err := Open(Options{
		SystemName: "deepdive", StoreDir: t.TempDir(),
		Policy: opt.MaterializeAll{}, Reuse: true,
		NeverReuse: []Category{CatML, CatEval},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(censusWorkflow(0.1, "accuracy", true)); err != nil {
		t.Fatal(err)
	}
	rep2, err := s.Run(censusWorkflow(0.1, "accuracy", true))
	if err != nil {
		t.Fatal(err)
	}
	g := rep2.Graph
	for _, name := range []string{"model", "predictions", "checked"} {
		if st := rep2.Plan.States[g.Lookup(name)]; st != opt.Compute {
			t.Errorf("%s state = %v, want compute (NeverReuse)", name, st)
		}
	}
	// Prep is still reusable.
	if st := rep2.Plan.States[g.Lookup("income")]; st == opt.Compute {
		t.Errorf("income recomputed despite materialize-all reuse")
	}
}

func TestSessionDataPrepIterationInvalidatesDownstream(t *testing.T) {
	s, err := Open(Options{
		SystemName: "helix", StoreDir: t.TempDir(),
		Policy: opt.MaterializeAll{}, Reuse: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(censusWorkflow(0.1, "accuracy", false)); err != nil {
		t.Fatal(err)
	}
	// Add the occupation extractor: featurize and downstream must recompute.
	rep2, err := s.Run(censusWorkflow(0.1, "accuracy", true))
	if err != nil {
		t.Fatal(err)
	}
	g := rep2.Graph
	for _, name := range []string{"income", "model", "predictions", "checked"} {
		if st := rep2.Plan.States[g.Lookup(name)]; st != opt.Compute {
			t.Errorf("%s state = %v, want compute after prep edit", name, st)
		}
	}
	changed := map[string]bool{}
	for _, ch := range rep2.Changes {
		changed[ch.Name] = true
	}
	if !changed["occ"] {
		t.Errorf("added node not in changes: %v", rep2.Changes)
	}
}

func TestSessionSlicePrunesDeadExtractor(t *testing.T) {
	// Declare an extractor that no featurize consumes: it must be pruned.
	wf := censusWorkflow(0.1, "accuracy", true)
	wf.Apply("race", Field("race"), "rows") // dead: not an income input
	s, err := Open(Options{SystemName: "helix", Reuse: false})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(wf)
	if err != nil {
		t.Fatal(err)
	}
	if st := rep.Plan.States[rep.Graph.Lookup("race")]; st != opt.Prune {
		t.Errorf("dead extractor state = %v, want prune", st)
	}
}

func TestReportRendering(t *testing.T) {
	s, err := Open(Options{SystemName: "helix", StoreDir: t.TempDir(), Policy: opt.MaterializeAll{}, Reuse: true})
	if err != nil {
		t.Fatal(err)
	}
	wf := censusWorkflow(0.1, "accuracy", true)
	rep, err := s.Run(wf)
	if err != nil {
		t.Fatal(err)
	}
	plan := rep.RenderPlan()
	for _, want := range []string{"compute", "income", "model"} {
		if !strings.Contains(plan, want) {
			t.Errorf("RenderPlan missing %q:\n%s", want, plan)
		}
	}
	dot := rep.DOT()
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "peripheries=2") {
		t.Errorf("DOT missing materialization marks:\n%s", dot)
	}
	src := wf.SourceText()
	if !strings.Contains(src, "results_from learner") || !strings.Contains(src, "regParam=0.1") {
		t.Errorf("SourceText missing learner decl:\n%s", src)
	}
}

func TestUDFOperator(t *testing.T) {
	udf := NewUDF("double", CatPrep, map[string]string{"k": "2"}, "v1", func(in []any) (any, error) {
		return in[0].(TextPair).Train + in[0].(TextPair).Train, nil
	})
	wf := NewWorkflow("udf")
	wf.Source("src", NewLiteralSource("ab", ""))
	wf.Apply("doubled", udf, "src")
	wf.Output("doubled")
	s, err := Open(Options{SystemName: "t"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(wf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outputs["doubled"].(string) != "abab" {
		t.Errorf("udf output = %v", rep.Outputs["doubled"])
	}
	// Nil function errors at run time.
	bad := NewUDF("bad", CatPrep, nil, "v1", nil)
	wf2 := NewWorkflow("udf2")
	wf2.Source("src", NewLiteralSource("x", ""))
	wf2.Apply("bad", bad, "src")
	wf2.Output("bad")
	if _, err := s.Run(wf2); err == nil {
		t.Error("nil UDF accepted")
	}
}

func TestOperatorInputValidation(t *testing.T) {
	if _, err := NewCSVScanner("a").Apply([]any{"not a text pair"}); err == nil {
		t.Error("scanner type check missing")
	}
	if _, err := NewCSVScanner("a").Apply(nil); err == nil {
		t.Error("scanner arity check missing")
	}
	if _, err := Field("x").Apply([]any{42}); err == nil {
		t.Error("field type check missing")
	}
	if _, err := NewFeaturize("t", "1").Apply([]any{CollectionPair{}}); err == nil {
		t.Error("featurize arity check missing")
	}
	if _, err := NewLearner("nope", 0, 1).Apply([]any{VecPair{}}); err == nil {
		t.Error("unknown learner kind accepted")
	}
	if _, err := NewPredict().Apply([]any{1, 2}); err == nil {
		t.Error("predict type check missing")
	}
	if _, err := NewEval("acc").Apply([]any{Predictions{}}); err == nil {
		t.Error("empty predictions accepted")
	}
	if _, err := NewEval("acc").Apply([]any{Predictions{Labels: []float64{1}, Gold: []float64{}}}); err == nil {
		t.Error("mismatched predictions accepted")
	}
}

func TestLearnerKinds(t *testing.T) {
	for _, kind := range []string{"logreg", "svm", "perceptron"} {
		wf := NewWorkflow("census-" + kind)
		wf.Source("data", NewLiteralSource(censusCSV(200, 0), censusCSV(60, 1)))
		wf.Apply("rows", NewCSVScanner("age", "education", "occupation", "target"), "data")
		wf.Apply("age", Field("age"), "rows")
		wf.Apply("edu", Field("education"), "rows")
		wf.Apply("income", NewFeaturize("target", ">50K"), "rows", "age", "edu")
		wf.Apply("model", NewLearner(kind, 0.01, 8), "income")
		wf.Apply("predictions", NewPredict(), "model", "income")
		wf.Apply("checked", NewEval("accuracy"), "predictions")
		wf.Output("checked")
		s, err := Open(Options{SystemName: "t"})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run(wf)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		met := rep.Outputs["checked"].(ml.Metrics)
		if met.Accuracy < 0.7 {
			t.Errorf("%s accuracy = %v", kind, met.Accuracy)
		}
	}
}
