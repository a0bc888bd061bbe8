package workload

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/ml"
	"repro/internal/seq"
	"repro/internal/store"
)

// exemplars returns one fully-populated instance per registered named value
// codec, keyed by registration name. Every field is non-zero and every
// slice/map non-empty, so a codec that drops or reorders anything fails the
// deep-equal checks instead of hiding behind zero values.
func exemplars(t testing.TB) map[string]any {
	t.Helper()
	schema, err := data.NewSchema("age", "edu", "hours")
	if err != nil {
		t.Fatal(err)
	}
	coll := &data.Collection{Schema: schema, Rows: []data.Row{
		{Fields: []string{"39", "Bachelors", "40"}},
		{Fields: []string{"50", "HS-grad", "13"}},
		{Fields: []string{"39", "Bachelors", "40"}}, // repeat: exercises the string table
	}}
	dict := data.NewDictionary()
	dict.Add("age")
	dict.Add("edu=Bachelors")
	dict.Freeze()
	fdict := seq.NewFeatureDict()
	fdict.Add("w=smith")
	fdict.Add("cap")
	fdict.Freeze()
	model := seq.NewModel(2)
	model.Emit[0][0], model.Emit[1][1] = 0.5, -1.25
	model.Trans[0][1], model.Trans[seq.NumTags][0] = 0.75, -0.5
	exSet := &data.ExampleSet{Examples: []data.Example{
		{Features: data.FeatureMap{"age": 39, "hours": 40}, Label: 1, HasLabel: true},
		{Features: data.FeatureMap{"age": 50, "hours": 13}, Label: 0, HasLabel: true},
		{Features: data.FeatureMap{"age": 22, "cap": 1}, HasLabel: false},
	}}
	fm := data.FeatureMap{"age": 39, "edu=Bachelors": 1, "hours": 40}
	vec := data.Vector{Indices: []int{0, 3, 7}, Values: []float64{1, 0.5, -2}}

	return map[string]any{
		"data.*Collection":         coll,
		"data.Collection":          *coll,
		"data.Row":                 data.Row{Fields: []string{"a", "b"}},
		"data.*Schema":             schema,
		"data.FeatureMap":          fm,
		"data.*ExampleSet":         exSet,
		"data.ExampleSet":          *exSet,
		"data.*Dictionary":         dict,
		"data.Vector":              vec,
		"data.Labeled":             data.Labeled{X: vec, Y: 1},
		"data.*FieldExtractor":     &data.FieldExtractor{Col: "age", Numeric: true},
		"data.*Bucketizer":         &data.Bucketizer{Col: "age", Bins: 10, Lo: 17, Width: 7.3, Fitted: true},
		"data.*InteractionFeature": &data.InteractionFeature{Cols: []string{"age", "edu"}},
		"seq.*Model":               model,
		"seq.Span":                 seq.Span{Start: 2, End: 5},
		"seq.*FeatureDict":         fdict,
		"core.TextPair":            core.TextPair{Train: "train text", Test: "test text"},
		"core.CollectionPair": core.CollectionPair{
			Train: coll,
			Test:  &data.Collection{Schema: schema, Rows: []data.Row{{Fields: []string{"1", "2", "3"}}}},
		},
		"core.FittedExtractor": core.FittedExtractor{Ex: &data.FieldExtractor{Col: "hours", Numeric: true}},
		"core.CSRFeatureColumn": core.FeatureColumn{
			Names: []string{"occ=Sales", "age", "occ=Tech"},
			Train: core.FeatureRows{Start: []int32{0, 2, 3}, ID: []int32{1, 0, 2}, Val: []float64{39, 1, 1}},
			Test:  core.FeatureRows{Start: []int32{0, 1}, ID: []int32{1}, Val: []float64{22}},
		},
		"core.ColumnarVecPair": core.VecPair{
			Train: []data.Labeled{{X: vec, Y: 1}, {X: data.Vector{Indices: []int{2}, Values: []float64{4}}, Y: 0}},
			Test:  []data.Labeled{{X: vec, Y: 0}},
			Dim:   2,
			Names: []string{"age", "hours"},
		},
		"core.Predictions": core.Predictions{
			Scores: []float64{0.5, -1.5},
			Labels: []float64{1, 0},
			Gold:   []float64{1, 1},
		},
		"ml.*LinearModel": &ml.LinearModel{Weights: []float64{0.1, -0.2}, Bias: 0.05, Kind: "svm"},
		"ml.*NaiveBayes": &ml.NaiveBayes{
			LogPrior: [2]float64{-0.7, -0.6},
			LogLik:   [2][]float64{{-1, -2}, {-3, -4}},
			Dim:      2,
		},
		"ml.*KMeans": &ml.KMeans{Centers: [][]float64{{0, 1}, {2, 3}}},
		"core.ClusterResult": core.ClusterResult{
			Model:      &ml.KMeans{Centers: [][]float64{{1, 2}}},
			TestAssign: []int{0, 0, 1},
			Inertia:    12.5,
		},
		"ml.Metrics": ml.Metrics{Accuracy: 0.9, Precision: 0.8, Recall: 0.7, F1: 0.75, LogLoss: 0.3, N: 100},
		"workload.NewsData": NewsData{
			Train: []Document{{Text: "Ann Smith spoke.", Persons: []string{"Ann Smith"}}},
			Test:  []Document{{Text: "Bob Jones left.", Persons: []string{"Bob Jones"}}},
		},
		"workload.CSRTokenizedCorpus": TokenizedCorpus{
			TrainSents:   ragged([]string{"Ann", "Smith", "spoke", "."}, []string{"Ann", "left"}),
			TestSents:    ragged([]string{"Bob", "left"}),
			TrainPersons: ragged([]string{"Ann Smith"}, []string{"Ann Smith"}),
			TestPersons:  ragged([]string{"Bob Jones"}),
		},
		"workload.CSRLabeledCorpus": LabeledCorpus{
			TrainSents: ragged([]string{"Ann", "Smith", "spoke"}, []string{"Ann", "left"}),
			TestSents:  ragged([]string{"Bob", "left"}),
			TrainTags:  []uint8{seq.TagB, seq.TagI, seq.TagO, seq.TagO, seq.TagO},
			TrainGold:  ragged([]seq.Span{{Start: 0, End: 2}}, nil),
			TestGold:   ragged([]seq.Span{{Start: 0, End: 1}}),
		},
		"workload.GazValue": GazValue{Entries: []string{"Ann Smith", "Bob Jones"}},
		"workload.CSRSeqDataset": SeqDataset{
			Train: seq.Corpus{
				Sent: []int32{0, 2, 3},
				Tok:  []int32{0, 2, 3, 5},
				ID:   []int32{0, 1, 2, 3, 1},
				Tags: []uint8{seq.TagB, seq.TagI, seq.TagO},
			},
			Test:     seq.Corpus{Sent: []int32{0, 2}, Tok: []int32{0, 1, 3}, ID: []int32{2, 0, 3}},
			TestGold: ragged([]seq.Span{{Start: 1, End: 2}}),
			Dim:      4,
		},
		"workload.PredSpans": PredSpans{
			Spans: [][]seq.Span{{{Start: 0, End: 2}}},
			Gold:  [][]seq.Span{{{Start: 0, End: 1}}},
		},
	}
}

// TestBinaryCodecExhaustiveRoundTrip is the exhaustive codec sweep: one
// exemplar per registered named value type, checked for (1) encode, (2)
// deep-equal decode, and (3) byte-stable re-encode of the decoded value.
// The exemplar set is asserted complete against the codec registry, so
// registering a new value type without extending this test fails loudly.
func TestBinaryCodecExhaustiveRoundTrip(t *testing.T) {
	ex := exemplars(t)
	var covered []string
	for name := range ex {
		covered = append(covered, name)
	}
	sort.Strings(covered)
	if registered := codec.RegisteredNames(); !reflect.DeepEqual(covered, registered) {
		t.Fatalf("exemplar set does not match the codec registry:\nexemplars: %v\nregistered: %v", covered, registered)
	}
	for name, v := range ex {
		t.Run(name, func(t *testing.T) {
			raw, err := store.Encode(v)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			dec, err := store.Decode(raw)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(dec, v) {
				t.Fatalf("round-trip not deep-equal:\ngot  %#v\nwant %#v", dec, v)
			}
			// Byte stability: re-encoding the decoded value reproduces the
			// exact bytes (sorted maps, dense dictionary order).
			again, err := store.Encode(dec)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(raw, again) {
				t.Fatalf("re-encode of decoded value not byte-identical (%d vs %d bytes)", len(raw), len(again))
			}
		})
	}
}

// TestBinaryCodecBuiltinRoundTrip covers the closed set of scalar/slice/map
// builtins the bench tasks produce.
func TestBinaryCodecBuiltinRoundTrip(t *testing.T) {
	builtins := []any{
		"a string",
		int(-42),
		int64(1) << 40,
		3.14159,
		true,
		[]byte{0x00, 0xff, 0x42},
		[]string{"x", "y", "x"},
		[]int{-1, 0, 1 << 30},
		[]float64{0.5, -2.25},
		map[string]float64{"b": 2, "a": 1, "c": -3},
	}
	for _, v := range builtins {
		raw, err := store.Encode(v)
		if err != nil {
			t.Fatalf("%T: encode: %v", v, err)
		}
		dec, err := store.Decode(raw)
		if err != nil {
			t.Fatalf("%T: decode: %v", v, err)
		}
		if !reflect.DeepEqual(dec, v) {
			t.Errorf("%T: round-trip = %#v, want %#v", v, dec, v)
		}
	}
}
