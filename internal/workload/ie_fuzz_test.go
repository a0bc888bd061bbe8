package workload

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/codec"
	"repro/internal/seq"
)

// ieFuzzSeeds are small encodings of the IE values: the exemplars plus the
// values the operators produce from a tiny generated corpus.
func ieFuzzSeeds(t testing.TB) [][]byte {
	ex := exemplars(t)
	vals := []any{ex["workload.CSRTokenizedCorpus"], ex["workload.CSRLabeledCorpus"], ex["workload.CSRSeqDataset"], ex["workload.PredSpans"]}
	_, _, _, ops := ieValues(t, 4)
	vals = append(vals, ops...)
	var seeds [][]byte
	for _, v := range vals {
		var w codec.Writer
		if err := codec.EncodeValue(&w, v); err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, w.Bytes())
	}
	return seeds
}

// checkRagged verifies a ragged value's offsets index its slab.
func checkRagged[T any](r Ragged[T]) error {
	if len(r.Off) == 0 || r.Off[0] != 0 || int(r.Off[len(r.Off)-1]) != len(r.Vals) {
		return fmt.Errorf("bad bounds: %d offsets over %d values", len(r.Off), len(r.Vals))
	}
	for i := 1; i < len(r.Off); i++ {
		if r.Off[i] < r.Off[i-1] {
			return fmt.Errorf("offset %d decreases", i)
		}
	}
	return nil
}

// checkSpans verifies gold has one row per sentence of sentOff (token
// offsets) and every span lies inside its sentence.
func checkSpans(gold Ragged[seq.Span], sentOff []int32) error {
	if err := checkRagged(gold); err != nil {
		return err
	}
	if gold.Len() != len(sentOff)-1 {
		return fmt.Errorf("%d span rows for %d sentences", gold.Len(), len(sentOff)-1)
	}
	for s := 0; s < gold.Len(); s++ {
		n := int(sentOff[s+1] - sentOff[s])
		for _, sp := range gold.Row(s) {
			if sp.Start < 0 || sp.Start >= sp.End || sp.End > n {
				return fmt.Errorf("span %v outside sentence %d of %d tokens", sp, s, n)
			}
		}
	}
	return nil
}

// checkIEValue verifies the invariants the IE decoders promise,
// independently of the decoders' own checks.
func checkIEValue(v any) error {
	switch x := v.(type) {
	case TokenizedCorpus:
		for _, r := range []Ragged[string]{x.TrainSents, x.TestSents, x.TrainPersons, x.TestPersons} {
			if err := checkRagged(r); err != nil {
				return err
			}
		}
		if x.TrainPersons.Len() != x.TrainSents.Len() || x.TestPersons.Len() != x.TestSents.Len() {
			return fmt.Errorf("person rows do not match sentences")
		}
	case LabeledCorpus:
		for _, r := range []Ragged[string]{x.TrainSents, x.TestSents} {
			if err := checkRagged(r); err != nil {
				return err
			}
		}
		if len(x.TrainTags) != len(x.TrainSents.Vals) {
			return fmt.Errorf("%d tags for %d tokens", len(x.TrainTags), len(x.TrainSents.Vals))
		}
		for _, tag := range x.TrainTags {
			if tag >= seq.NumTags {
				return fmt.Errorf("invalid tag %d", tag)
			}
		}
		if err := checkSpans(x.TrainGold, x.TrainSents.Off); err != nil {
			return err
		}
		return checkSpans(x.TestGold, x.TestSents.Off)
	case SeqDataset:
		if x.Train.Tags == nil || x.Test.Tags != nil {
			return fmt.Errorf("train half unlabeled or test half labeled")
		}
		for _, c := range []seq.Corpus{x.Train, x.Test} {
			if len(c.Sent) == 0 || len(c.Tok) == 0 {
				return fmt.Errorf("missing offsets")
			}
			if err := c.Validate(x.Dim); err != nil {
				return err
			}
		}
		return checkSpans(x.TestGold, x.Test.Sent)
	}
	return nil
}

// runIEOps feeds an accepted value to the operators downstream of it.
// Errors are fine; a panic fails the fuzz run.
func runIEOps(v any) {
	var lc LabeledCorpus
	switch x := v.(type) {
	case TokenizedCorpus:
		var err error
		if lc, err = labelCorpus(x); err != nil {
			return
		}
	case LabeledCorpus:
		lc = x
	case SeqDataset:
		trainAndDecode(x)
		return
	default:
		return
	}
	ds, err := featurize(lc, GazValue{Entries: []string{"Ann", "Smith"}}, configAll)
	if err != nil {
		return
	}
	trainAndDecode(ds)
}

func trainAndDecode(ds SeqDataset) {
	m, err := seq.Train(ds.Train, seq.TrainConfig{Epochs: 1, Seed: 1, Dim: ds.Dim})
	if err != nil {
		return
	}
	predictSpans(m, ds)
}

// FuzzDecodeIEValues: the IE decoders never panic, anything they accept
// satisfies the layout invariants, runs through the downstream operators,
// and re-encodes to a byte-level fixed point.
func FuzzDecodeIEValues(f *testing.F) {
	for _, enc := range ieFuzzSeeds(f) {
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
		if err := checkIEValue(v); err != nil {
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
		runIEOps(v)
	})
}
