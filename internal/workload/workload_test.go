package workload

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/opt"
	"repro/internal/seq"
)

func TestGenerateCensusDeterministic(t *testing.T) {
	a := GenerateCensus(100, 20, 42)
	b := GenerateCensus(100, 20, 42)
	if a.TrainCSV != b.TrainCSV || a.TestCSV != b.TestCSV {
		t.Error("census generation not deterministic")
	}
	c := GenerateCensus(100, 20, 43)
	if a.TrainCSV == c.TrainCSV {
		t.Error("different seeds produced identical data")
	}
	if n := strings.Count(a.TrainCSV, "\n"); n != 100 {
		t.Errorf("train rows = %d", n)
	}
	// Both classes present.
	if !strings.Contains(a.TrainCSV, ">50K") || !strings.Contains(a.TrainCSV, "<=50K") {
		t.Error("degenerate label distribution")
	}
}

func TestCensusWorkflowRuns(t *testing.T) {
	data := GenerateCensus(400, 100, 1)
	p := DefaultCensusParams(data)
	p.WithOccupation = true
	p.WithMaritalStatus = true
	s, err := core.Open(core.Options{SystemName: "t"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(p.Build())
	if err != nil {
		t.Fatal(err)
	}
	met, ok := rep.Outputs["checked"].(ml.Metrics)
	if !ok {
		t.Fatalf("checked type %T", rep.Outputs["checked"])
	}
	// The planted rule is noisy; anything well above majority-class is
	// learning.
	if met.Accuracy < 0.6 {
		t.Errorf("census accuracy = %v", met.Accuracy)
	}
	if met.N != 100 {
		t.Errorf("evaluated %d rows, want 100", met.N)
	}
}

func TestCensusScenarioShape(t *testing.T) {
	sc := CensusScenario(GenerateCensus(50, 20, 1))
	if sc.Len() != 10 {
		t.Fatalf("steps = %d, want 10", sc.Len())
	}
	if sc.Steps[0].Kind != StepInitial {
		t.Error("first step not initial")
	}
	kinds := map[StepKind]int{}
	for _, st := range sc.Steps {
		kinds[st.Kind]++
		if st.Workflow == nil || st.Description == "" {
			t.Error("incomplete step")
		}
	}
	if kinds[StepPrep] == 0 || kinds[StepML] == 0 || kinds[StepEval] == 0 {
		t.Errorf("scenario missing edit kinds: %v", kinds)
	}
	// Every step compiles.
	for i, st := range sc.Steps {
		if _, err := core.Compile(st.Workflow); err != nil {
			t.Errorf("step %d does not compile: %v", i+1, err)
		}
	}
}

func TestCensusScenarioConsecutiveStepsDiffer(t *testing.T) {
	sc := CensusScenario(GenerateCensus(50, 20, 1))
	var prev *core.Compiled
	for i, st := range sc.Steps {
		c, err := core.Compile(st.Workflow)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			// The output node's signature must change every iteration
			// (otherwise the step is a no-op and the scenario is broken).
			prevOut := prev.Sigs[prev.Graph.Lookup("checked")]
			curOut := c.Sigs[c.Graph.Lookup("checked")]
			if prevOut == curOut {
				t.Errorf("step %d (%s) did not change the workflow", i+1, st.Description)
			}
		}
		prev = c
	}
}

func TestGenerateNewsDeterministic(t *testing.T) {
	a := GenerateNews(30, 10, 7)
	b := GenerateNews(30, 10, 7)
	if len(a.Train) != 30 || len(a.Test) != 10 {
		t.Fatalf("sizes: %d/%d", len(a.Train), len(a.Test))
	}
	for i := range a.Train {
		if a.Train[i].Text != b.Train[i].Text {
			t.Fatal("news generation not deterministic")
		}
	}
	// Some docs have persons, some don't (ambiguity matters).
	withPersons := 0
	for _, d := range a.Train {
		if len(d.Persons) > 0 {
			withPersons++
		}
	}
	if withPersons == 0 || withPersons == len(a.Train) {
		t.Errorf("person distribution degenerate: %d/%d", withPersons, len(a.Train))
	}
}

func TestAlignPersons(t *testing.T) {
	var a aligner
	alignPersons := func(sent, persons []string) []seq.Span { return a.appendSpans(nil, sent, persons) }
	sent := []string{"Chief", "executive", "Mary", "Smith", "praised", "John", "Lee", "."}
	spans := alignPersons(sent, []string{"John Lee", "Mary Smith"})
	if len(spans) != 2 {
		t.Fatalf("spans = %v", spans)
	}
	if spans[0] != (seq.Span{Start: 2, End: 4}) || spans[1] != (seq.Span{Start: 5, End: 7}) {
		t.Errorf("spans = %v", spans)
	}
	// Name absent from sentence: no span.
	if got := alignPersons(sent, []string{"Bob Jones"}); len(got) != 0 {
		t.Errorf("phantom span: %v", got)
	}
	// Same name twice in persons list doesn't double-count tokens.
	if got := alignPersons(sent, []string{"Mary Smith", "Mary Smith"}); len(got) != 1 {
		t.Errorf("duplicate name spans: %v", got)
	}
	// Spans append after what dst held, and are sorted among themselves.
	got := a.appendSpans([]seq.Span{{Start: 9, End: 10}}, sent, []string{"John Lee", "Mary Smith"})
	if want := []seq.Span{{Start: 9, End: 10}, {Start: 2, End: 4}, {Start: 5, End: 7}}; !reflect.DeepEqual(got, want) {
		t.Errorf("appended spans = %v, want %v", got, want)
	}
}

func TestGazetteerEntries(t *testing.T) {
	half := GazetteerEntries(0.5)
	full := GazetteerEntries(1.0)
	if len(half) >= len(full) {
		t.Errorf("half (%d) not smaller than full (%d)", len(half), len(full))
	}
	if len(GazetteerEntries(0)) != 0 {
		t.Error("zero-fraction gazetteer not empty")
	}
}

func TestIEWorkflowRuns(t *testing.T) {
	data := GenerateNews(150, 40, 3)
	p := DefaultIEParams(data)
	p.Features.Affixes = true
	p.Features.Context = true
	p.Features.Gazetteer = true
	p.Epochs = 5
	s, err := core.Open(core.Options{SystemName: "t"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(p.Build())
	if err != nil {
		t.Fatal(err)
	}
	met, ok := rep.Outputs["checked"].(ml.Metrics)
	if !ok {
		t.Fatalf("checked type %T", rep.Outputs["checked"])
	}
	if met.F1 < 0.7 {
		t.Errorf("IE span F1 = %v, want >= 0.7 (p=%v r=%v)", met.F1, met.Precision, met.Recall)
	}
}

func TestIEScenarioShape(t *testing.T) {
	sc := IEScenario(GenerateNews(20, 5, 1))
	if sc.Len() != 10 {
		t.Fatalf("steps = %d", sc.Len())
	}
	var prev *core.Compiled
	for i, st := range sc.Steps {
		c, err := core.Compile(st.Workflow)
		if err != nil {
			t.Fatalf("step %d: %v", i+1, err)
		}
		if prev != nil {
			prevOut := prev.Sigs[prev.Graph.Lookup("checked")]
			if prevOut == c.Sigs[c.Graph.Lookup("checked")] {
				t.Errorf("step %d (%s) is a no-op", i+1, st.Description)
			}
		}
		prev = c
	}
}

func TestIEReuseAcrossIterations(t *testing.T) {
	// ML-only edit must not recompute tokenization/labeling.
	data := GenerateNews(60, 20, 5)
	s, err := core.Open(core.Options{
		SystemName: "helix", StoreDir: t.TempDir(),
		Policy: opt.MaterializeAll{}, Reuse: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultIEParams(data)
	if _, err := s.Run(p.Build()); err != nil {
		t.Fatal(err)
	}
	p.Epochs = 6 // ML edit
	rep, err := s.Run(p.Build())
	if err != nil {
		t.Fatal(err)
	}
	g := rep.Graph
	for _, name := range []string{"tokens", "labels", "feats"} {
		if st := rep.Plan.States[g.Lookup(name)]; st == opt.Compute {
			t.Errorf("%s recomputed on ML-only edit", name)
		}
	}
	if st := rep.Plan.States[g.Lookup("model")]; st != opt.Compute {
		t.Errorf("model state = %v, want compute", st)
	}
}
