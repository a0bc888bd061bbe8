package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/codec"
	"repro/internal/data"
)

// censusFuzzSeeds are small encodings of the three census value layouts.
func censusFuzzSeeds(t testing.TB) [][]byte {
	cp := CollectionPair{}
	for _, half := range []**data.Collection{&cp.Train, &cp.Test} {
		*half = data.NewCollection(data.MustSchema("age", "edu", "y"))
		for _, r := range [][]string{{"39", "BS", "1"}, {"50", "HS", "0"}, {"39", "BS", "0"}} {
			if err := (*half).Append(r...); err != nil {
				t.Fatal(err)
			}
		}
	}
	fc := columnFromMaps(
		[]data.FeatureMap{{"age": 39, "edu=BS": 1}, {}, {"edu=HS": 1}},
		[]data.FeatureMap{{"edu=MS": 1}},
	)
	vp := VecPair{
		Train: []data.Labeled{{X: data.Vector{Indices: []int{0, 2}, Values: []float64{0.5, 1}}, Y: 1}, {}},
		Test:  []data.Labeled{{X: data.Vector{Indices: []int{1}, Values: []float64{-1}}}},
		Dim:   3,
		Names: []string{"age", "edu=BS", "edu=HS"},
	}
	var seeds [][]byte
	for _, v := range []any{cp, fc, vp} {
		var w codec.Writer
		if err := codec.EncodeValue(&w, v); err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, w.Bytes())
	}
	return seeds
}

// checkCensusValue verifies the invariants the census decoders promise,
// independently of the decoders' own checks.
func checkCensusValue(v any) error {
	switch x := v.(type) {
	case CollectionPair:
		for _, c := range []*data.Collection{x.Train, x.Test} {
			for i, r := range c.Rows {
				if len(r.Fields) != c.Schema.Len() {
					return fmt.Errorf("row %d has %d fields, schema %d", i, len(r.Fields), c.Schema.Len())
				}
			}
		}
	case FeatureColumn:
		for _, rows := range []FeatureRows{x.Train, x.Test} {
			if len(rows.Start) == 0 || rows.Start[0] != 0 || int(rows.Start[len(rows.Start)-1]) != len(rows.ID) || len(rows.Val) != len(rows.ID) {
				return fmt.Errorf("bad CSR bounds: %d starts, %d ids, %d values", len(rows.Start), len(rows.ID), len(rows.Val))
			}
			for i := 1; i < len(rows.Start); i++ {
				if rows.Start[i] < rows.Start[i-1] {
					return fmt.Errorf("start %d decreases", i)
				}
			}
			for _, id := range rows.ID {
				if id < 0 || int(id) >= len(x.Names) {
					return fmt.Errorf("id %d outside %d names", id, len(x.Names))
				}
			}
		}
	case VecPair:
		if x.Dim != len(x.Names) {
			return fmt.Errorf("dim %d, %d names", x.Dim, len(x.Names))
		}
		for _, set := range [][]data.Labeled{x.Train, x.Test} {
			for i, ex := range set {
				if err := ex.X.Validate(); err != nil {
					return fmt.Errorf("row %d: %w", i, err)
				}
			}
		}
	}
	return nil
}

// runCensusOps feeds an accepted value to the operators that consume it.
// Errors are fine; a panic fails the fuzz run.
func runCensusOps(v any) {
	switch x := v.(type) {
	case CollectionPair:
		cols := x.Train.Schema.Names()
		if len(cols) == 0 || x.Test.Schema.Len() != len(cols) {
			return
		}
		cleaned, err := NewClean().Apply([]any{x})
		if err != nil {
			return
		}
		inputs := []any{cleaned}
		for _, op := range []Operator{Field(cols[0]), Bucket(cols[0], 3), Cross(cols[0], cols[len(cols)-1])} {
			if col, err := op.Apply([]any{cleaned}); err == nil {
				inputs = append(inputs, col)
			}
		}
		_, _ = NewFeaturize(cols[len(cols)-1], "1").Apply(inputs)
	case FeatureColumn:
		label := func(n int) *data.Collection {
			c := &data.Collection{Schema: data.MustSchema("y"), Rows: make([]data.Row, n)}
			for i := range c.Rows {
				c.Rows[i].Fields = []string{"1"}
			}
			return c
		}
		cp := CollectionPair{Train: label(x.Train.Len()), Test: label(x.Test.Len())}
		_, _ = NewFeaturize("y", "1").Apply([]any{cp, x, x})
	case VecPair:
		model, err := NewLearner("logreg", 0.1, 1).Apply([]any{x})
		if err != nil {
			return
		}
		_, _ = NewPredict().Apply([]any{model, x})
	}
}

// FuzzDecodeCensusValues: the census decoders never panic, anything they
// accept satisfies the layout invariants, feeds the operators without a
// panic, and re-encodes to a byte-level fixed point.
func FuzzDecodeCensusValues(f *testing.F) {
	for _, enc := range censusFuzzSeeds(f) {
		f.Add(enc)
		for _, cut := range []int{len(enc) / 3, len(enc) / 2, len(enc) - 1} {
			f.Add(append([]byte(nil), enc[:cut]...))
		}
		for _, at := range []int{len(enc) / 4, len(enc) / 2, 3 * len(enc) / 4} {
			flipped := append([]byte(nil), enc...)
			flipped[at] ^= 0x41
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		v, err := codec.DecodeValue(codec.NewReader(raw))
		if err != nil {
			return
		}
		if err := checkCensusValue(v); err != nil {
			t.Fatalf("accepted %T breaks its invariants: %v", v, err)
		}
		var w1 codec.Writer
		if err := codec.EncodeValue(&w1, v); err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", v, err)
		}
		v2, err := codec.DecodeValue(codec.NewReader(w1.Bytes()))
		if err != nil {
			t.Fatalf("canonical re-encoding of %T does not decode: %v", v, err)
		}
		var w2 codec.Writer
		if err := codec.EncodeValue(&w2, v2); err != nil {
			t.Fatalf("second re-encode of %T failed: %v", v2, err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("re-encoding of %T is not a fixed point", v)
		}
		runCensusOps(v)
	})
}
