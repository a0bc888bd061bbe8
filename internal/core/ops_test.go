package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/ml"
)

// smallPair builds a CollectionPair for operator-level tests.
func smallPair(t *testing.T, trainRows, testRows [][]string, cols ...string) CollectionPair {
	t.Helper()
	s := data.MustSchema(cols...)
	train := data.NewCollection(s)
	for _, r := range trainRows {
		if err := train.Append(r...); err != nil {
			t.Fatal(err)
		}
	}
	test := data.NewCollection(s)
	for _, r := range testRows {
		if err := test.Append(r...); err != nil {
			t.Fatal(err)
		}
	}
	return CollectionPair{Train: train, Test: test}
}

func TestCleanNormalizesAndImputes(t *testing.T) {
	cp := smallPair(t,
		[][]string{{"  Bachelors ", "Sales"}, {"Bachelors", "Tech"}, {"?", "Tech"}},
		[][]string{{"HS  grad", "?"}},
		"edu", "occ")
	out, err := NewClean().Apply([]any{cp})
	if err != nil {
		t.Fatal(err)
	}
	cleaned := out.(CollectionPair)
	// Whitespace normalized.
	v, err := cleaned.Train.Get(0, "edu")
	if err != nil || v != "Bachelors" {
		t.Errorf("train[0].edu = %q, %v", v, err)
	}
	// Missing imputed with train mode ("Bachelors" for edu, "Tech" for occ).
	v, err = cleaned.Train.Get(2, "edu")
	if err != nil || v != "Bachelors" {
		t.Errorf("imputed edu = %q", v)
	}
	v, err = cleaned.Test.Get(0, "occ")
	if err != nil || v != "Tech" {
		t.Errorf("test imputed occ = %q", v)
	}
	// Internal whitespace collapsed.
	v, err = cleaned.Test.Get(0, "edu")
	if err != nil || v != "HS grad" {
		t.Errorf("collapsed edu = %q", v)
	}
	// Original untouched (operators are pure).
	orig, err := cp.Train.Get(0, "edu")
	if err != nil || orig != "  Bachelors " {
		t.Errorf("input mutated: %q", orig)
	}
}

func TestCleanValidation(t *testing.T) {
	if _, err := NewClean().Apply([]any{"nope"}); err == nil {
		t.Error("bad input type accepted")
	}
	if _, err := NewClean().Apply(nil); err == nil {
		t.Error("arity violation accepted")
	}
}

func TestExtractorOpProducesColumns(t *testing.T) {
	cp := smallPair(t,
		[][]string{{"30", "Sales"}, {"40", "Tech"}},
		[][]string{{"35", "Sales"}},
		"age", "occ")
	out, err := Field("occ").Apply([]any{cp})
	if err != nil {
		t.Fatal(err)
	}
	fc := out.(FeatureColumn)
	if fc.Train.Len() != 2 || fc.Test.Len() != 1 {
		t.Fatalf("column sizes: %d/%d", fc.Train.Len(), fc.Test.Len())
	}
	train, test := rowMaps(fc, fc.Train), rowMaps(fc, fc.Test)
	if train[0]["occ=Sales"] != 1 || train[1]["occ=Tech"] != 1 {
		t.Errorf("train features: %v", train)
	}
	if test[0]["occ=Sales"] != 1 {
		t.Errorf("test features: %v", test)
	}
	// Names are interned in first-seen order; the test row reuses an id.
	if want := []string{"occ=Sales", "occ=Tech"}; !reflect.DeepEqual(fc.Names, want) {
		t.Errorf("names = %v, want %v", fc.Names, want)
	}
	if !reflect.DeepEqual(fc.Test.ID, []int32{0}) {
		t.Errorf("test ids = %v", fc.Test.ID)
	}
}

func TestBucketOpFitsOnTrainOnly(t *testing.T) {
	// Train range [0,100]; test value 1000 must clamp into the last bucket
	// learned from train, proving the test half never refits.
	cp := smallPair(t,
		[][]string{{"0"}, {"100"}},
		[][]string{{"1000"}},
		"age")
	out, err := Bucket("age", 4).Apply([]any{cp})
	if err != nil {
		t.Fatal(err)
	}
	fc := out.(FeatureColumn)
	if test := rowMaps(fc, fc.Test); test[0]["age_bucket=3"] != 1 {
		t.Errorf("test bucket: %v", test[0])
	}
}

func TestFeaturizeMergesAndScales(t *testing.T) {
	cp := smallPair(t,
		[][]string{{"10", "A", "1"}, {"20", "B", "0"}},
		[][]string{{"40", "A", "1"}},
		"x", "cat", "label")
	colX, err := Field("x").Apply([]any{cp})
	if err != nil {
		t.Fatal(err)
	}
	colCat, err := Field("cat").Apply([]any{cp})
	if err != nil {
		t.Fatal(err)
	}
	out, err := NewFeaturize("label", "1").Apply([]any{cp, colX, colCat})
	if err != nil {
		t.Fatal(err)
	}
	vp := out.(VecPair)
	if vp.Dim != 3 { // x, cat=A, cat=B
		t.Fatalf("dim = %d, names %v", vp.Dim, vp.Names)
	}
	if vp.Train[0].Y != 1 || vp.Train[1].Y != 0 {
		t.Errorf("labels: %v %v", vp.Train[0].Y, vp.Train[1].Y)
	}
	// Max-abs scaling: x is scaled by train max (20), so train values are
	// 0.5 and 1.0, and the test value 40 becomes 2.0.
	xIdx := -1
	for i, n := range vp.Names {
		if n == "x" {
			xIdx = i
		}
	}
	if xIdx < 0 {
		t.Fatalf("feature x missing: %v", vp.Names)
	}
	get := func(ex data.Labeled) float64 {
		for k, i := range ex.X.Indices {
			if i == xIdx {
				return ex.X.Values[k]
			}
		}
		return 0
	}
	if get(vp.Train[0]) != 0.5 || get(vp.Train[1]) != 1.0 {
		t.Errorf("train scaling: %v %v", get(vp.Train[0]), get(vp.Train[1]))
	}
	if get(vp.Test[0]) != 2.0 {
		t.Errorf("test scaling: %v", get(vp.Test[0]))
	}
	// Test-only categories are dropped (frozen dictionary).
	for _, n := range vp.Names {
		if strings.Contains(n, "cat=C") {
			t.Errorf("phantom test feature: %v", vp.Names)
		}
	}
}

func TestClustererOnSeparableData(t *testing.T) {
	// Two clusters by the numeric column.
	var trainRows [][]string
	for i := 0; i < 20; i++ {
		trainRows = append(trainRows, []string{"1", "x"})
		trainRows = append(trainRows, []string{"100", "x"})
	}
	cp := smallPair(t, trainRows, [][]string{{"2", "x"}, {"99", "x"}}, "v", "c")
	col, err := Field("v").Apply([]any{cp})
	if err != nil {
		t.Fatal(err)
	}
	vecOut, err := NewFeaturize("c", "never").Apply([]any{cp, col})
	if err != nil {
		t.Fatal(err)
	}
	out, err := NewClusterer(2, 20, 1).Apply([]any{vecOut})
	if err != nil {
		t.Fatal(err)
	}
	cr := out.(ClusterResult)
	if len(cr.TestAssign) != 2 {
		t.Fatalf("assignments: %v", cr.TestAssign)
	}
	if cr.TestAssign[0] == cr.TestAssign[1] {
		t.Errorf("separable test points in one cluster: %v", cr.TestAssign)
	}
	if cr.Inertia < 0 {
		t.Errorf("inertia = %v", cr.Inertia)
	}
}

func TestClustererValidation(t *testing.T) {
	if _, err := NewClusterer(2, 10, 1).Apply([]any{"no"}); err == nil {
		t.Error("bad input accepted")
	}
	if _, err := NewClusterer(0, 10, 1).Apply([]any{VecPair{Dim: 1, Train: []data.Labeled{{}}}}); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestLearnerBayesKind(t *testing.T) {
	cp := smallPair(t,
		[][]string{{"A", "1"}, {"B", "0"}, {"A", "1"}, {"B", "0"}},
		[][]string{{"A", "1"}, {"B", "0"}},
		"w", "label")
	col, err := Field("w").Apply([]any{cp})
	if err != nil {
		t.Fatal(err)
	}
	vecOut, err := NewFeaturize("label", "1").Apply([]any{cp, col})
	if err != nil {
		t.Fatal(err)
	}
	model, err := NewLearner("bayes", 0, 1).Apply([]any{vecOut})
	if err != nil {
		t.Fatal(err)
	}
	preds, err := NewPredict().Apply([]any{model, vecOut})
	if err != nil {
		t.Fatal(err)
	}
	metOut, err := NewEval("accuracy").Apply([]any{preds.(Predictions)})
	if err != nil {
		t.Fatal(err)
	}
	if met := metOut.(ml.Metrics); met.Accuracy != 1 {
		t.Errorf("bayes on trivial data: %v", met)
	}
}
