package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/data"
	"repro/internal/store"
)

// roundTrip pushes a value through the store codec.
func roundTrip(t *testing.T, v any) any {
	t.Helper()
	raw, err := store.Encode(v)
	if err != nil {
		t.Fatalf("encode %T: %v", v, err)
	}
	got, err := store.Decode(raw)
	if err != nil {
		t.Fatalf("decode %T: %v", v, err)
	}
	return got
}

func TestFeatureColumnRoundTrip(t *testing.T) {
	fc := columnFromMaps(
		[]data.FeatureMap{{"age": 39, "occ=Sales": 1}, {"age": 20}},
		[]data.FeatureMap{{"age": 50}, {}},
	)
	got := roundTrip(t, fc).(FeatureColumn)
	if !reflect.DeepEqual(got, fc) {
		t.Errorf("round trip:\n%+v\n%+v", got, fc)
	}
}

func TestFeatureColumnEmpty(t *testing.T) {
	got := roundTrip(t, FeatureColumn{}).(FeatureColumn)
	if got.Train.Len() != 0 || got.Test.Len() != 0 || len(got.Names) != 0 {
		t.Errorf("empty round trip: %+v", got)
	}
}

func TestVecPairRoundTrip(t *testing.T) {
	vp := VecPair{
		Train: []data.Labeled{
			{X: data.Vector{Indices: []int{0, 3}, Values: []float64{1.5, -2}}, Y: 1},
			{X: data.Vector{}, Y: 0},
		},
		Test:  []data.Labeled{{X: data.Vector{Indices: []int{2}, Values: []float64{7}}, Y: 1}},
		Dim:   4,
		Names: []string{"a", "b", "c", "d"},
	}
	got := roundTrip(t, vp).(VecPair)
	if got.Dim != 4 || !reflect.DeepEqual(got.Names, vp.Names) {
		t.Errorf("metadata lost: %+v", got)
	}
	if len(got.Train) != 2 || got.Train[0].Y != 1 {
		t.Errorf("train lost: %+v", got.Train)
	}
	if !reflect.DeepEqual(got.Train[0].X.Indices, vp.Train[0].X.Indices) {
		t.Errorf("indices: %v", got.Train[0].X.Indices)
	}
	if !reflect.DeepEqual(got.Test, vp.Test) {
		t.Errorf("test: %v", got.Test)
	}
}

func TestPredictionsRoundTrip(t *testing.T) {
	p := Predictions{Scores: []float64{0.5, -1}, Labels: []float64{1, 0}, Gold: []float64{1, 1}}
	got := roundTrip(t, p).(Predictions)
	if !reflect.DeepEqual(got, p) {
		t.Errorf("round trip: %+v vs %+v", got, p)
	}
}

func TestCollectionPairRoundTrip(t *testing.T) {
	s := data.MustSchema("a", "b")
	train := data.NewCollection(s)
	if err := train.Append("1", "x"); err != nil {
		t.Fatal(err)
	}
	test := data.NewCollection(s)
	if err := test.Append("2", "y"); err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, CollectionPair{Train: train, Test: test}).(CollectionPair)
	if got.Train.Len() != 1 || got.Test.Len() != 1 {
		t.Fatalf("rows lost: %+v", got)
	}
	v, err := got.Train.Get(0, "b")
	if err != nil || v != "x" {
		t.Errorf("train value: %q, %v", v, err)
	}
	// Schema index rebuilt, not just names.
	if got.Test.Schema.Index("b") != 1 {
		t.Error("schema index not rebuilt")
	}
}

func TestFittedExtractorRoundTrip(t *testing.T) {
	b := &data.Bucketizer{Col: "age", Bins: 5, Lo: 10, Width: 4, Fitted: true}
	got := roundTrip(t, FittedExtractor{Ex: b}).(FittedExtractor)
	gb, ok := got.Ex.(*data.Bucketizer)
	if !ok {
		t.Fatalf("extractor type %T", got.Ex)
	}
	if gb.Lo != 10 || gb.Width != 4 || !gb.Fitted {
		t.Errorf("fitted state lost: %+v", gb)
	}
}

// Property: random feature columns survive the codec bit-exactly.
func TestQuickFeatureColumnRoundTrip(t *testing.T) {
	names := []string{"age", "edu=BS", "occ=Sales", "hours", "cross=a|b"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		gen := func(n int) []data.FeatureMap {
			out := make([]data.FeatureMap, n)
			for i := range out {
				fm := make(data.FeatureMap)
				for k := 0; k < rng.Intn(4); k++ {
					fm[names[rng.Intn(len(names))]] = float64(rng.Intn(1000)) / 10
				}
				out[i] = fm
			}
			return out
		}
		train, test := gen(rng.Intn(20)), gen(rng.Intn(10))
		fc := columnFromMaps(train, test)
		raw, err := store.Encode(fc)
		if err != nil {
			return false
		}
		got, err := store.Decode(raw)
		if err != nil {
			return false
		}
		again, err := store.Encode(got)
		if err != nil || !bytes.Equal(again, raw) {
			return false
		}
		dec := got.(FeatureColumn)
		return reflect.DeepEqual(rowMaps(dec, dec.Train), train) &&
			reflect.DeepEqual(rowMaps(dec, dec.Test), test)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
