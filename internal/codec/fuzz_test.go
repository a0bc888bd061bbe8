package codec_test

// Fuzz targets for the binary codec. Spill frames live on disk where bits
// rot, so the decode side must treat every input as hostile: any byte
// sequence may error, none may panic or over-read. The targets live in an
// external test package so the named value registrations from the data/seq/
// core/workload init functions are linked in and fuzzing reaches the named
// decoders, not just the builtin kinds.

import (
	"bytes"
	"testing"

	"repro/internal/codec"
	"repro/internal/data"
	"repro/internal/seq"
	"repro/internal/workload"
)

// fuzzSeedValues is a small spread of builtin and named values whose
// encodings seed both corpora: scalars, slices, maps, and the registered
// struct types with string tables and nested collections.
func fuzzSeedValues() []any {
	schema, err := data.NewSchema("a", "b")
	if err != nil {
		panic(err)
	}
	return []any{
		"hello",
		int(-7),
		int64(1) << 33,
		2.5,
		true,
		[]byte{1, 2, 3},
		[]string{"x", "x", "y"},
		[]int{-1, 0, 1},
		[]float64{0.5, -0.5},
		map[string]float64{"k": 1, "j": -2},
		data.FeatureMap{"age": 39, "hours": 40},
		&data.Collection{Schema: schema, Rows: []data.Row{
			{Fields: []string{"1", "2"}},
			{Fields: []string{"1", "3"}},
		}},
		data.Vector{Indices: []int{0, 2}, Values: []float64{1, -1}},
		seq.Span{Start: 1, End: 4},
		workload.SeqDataset{
			Train:    seq.Corpus{Sent: []int32{0, 2}, Tok: []int32{0, 2, 3}, ID: []int32{0, 1, 2}, Tags: []uint8{seq.TagB, seq.TagI}},
			Test:     seq.Corpus{Sent: []int32{0, 1}, Tok: []int32{0, 1}, ID: []int32{2}},
			TestGold: workload.Ragged[seq.Span]{Off: []int32{0, 1}, Vals: []seq.Span{{Start: 0, End: 1}}},
			Dim:      3,
		},
		workload.GazValue{Entries: []string{"Ann Smith"}},
		workload.PredSpans{
			Spans: [][]seq.Span{{{Start: 0, End: 2}}},
			Gold:  [][]seq.Span{{{Start: 0, End: 1}}},
		},
	}
}

// FuzzDecodeValue asserts the central corruption-safety property of the
// value codec: DecodeValue never panics, and any input it accepts decodes to
// a value whose canonical re-encoding is a fixed point (encode → decode →
// encode is byte-stable). The comparison is on bytes rather than
// reflect.DeepEqual so NaN payloads — which the fuzzer finds immediately —
// do not produce false mismatches.
func FuzzDecodeValue(f *testing.F) {
	for _, v := range fuzzSeedValues() {
		var w codec.Writer
		if err := codec.EncodeValue(&w, v); err != nil {
			f.Fatal(err)
		}
		enc := w.Bytes()
		f.Add(append([]byte(nil), enc...))
		// Truncations and a bit flip: the interesting error paths.
		f.Add(append([]byte(nil), enc[:len(enc)/2]...))
		if len(enc) > 0 {
			flipped := append([]byte(nil), enc...)
			flipped[len(flipped)/2] ^= 0x40
			f.Add(flipped)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0})    // reserved zero tag
	f.Add([]byte{0xff}) // unknown tag
	f.Fuzz(func(t *testing.T, raw []byte) {
		v, err := codec.DecodeValue(codec.NewReader(raw))
		if err != nil {
			return
		}
		var w1 codec.Writer
		if err := codec.EncodeValue(&w1, v); err != nil {
			t.Fatalf("decoded value %T does not re-encode: %v", v, err)
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
			t.Fatalf("re-encoding not a fixed point for %T: %d vs %d bytes", v, len(w1.Bytes()), len(w2.Bytes()))
		}
	})
}

// FuzzReader hammers the primitive reader: a rotating sequence of typed
// reads (offset into the rotation chosen by the first input byte) plus a
// string-table pass must never panic and never move the offset beyond the
// buffer, whatever the bytes.
func FuzzReader(f *testing.F) {
	var w codec.Writer
	w.Uvarint(300)
	w.Int(-40)
	w.Len(3)
	w.Float64(1.5)
	w.String("seed")
	w.ByteSlice([]byte{9, 8})
	seq := w.Bytes()
	for i := 0; i < 6; i++ {
		f.Add(append([]byte{byte(i)}, seq...))
		f.Add(append([]byte{byte(i)}, seq[:len(seq)/2]...))
	}
	var tw codec.Writer
	tbl := codec.NewStringTable()
	tbl.Write(&tw, "alpha")
	tbl.Write(&tw, "beta")
	tbl.Write(&tw, "alpha")
	f.Add(append([]byte{6}, tw.Bytes()...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		op := int(raw[0])
		r := codec.NewReader(raw[1:])
		rt := codec.NewReadStringTable()
		for !r.Done() {
			var err error
			switch op % 7 {
			case 0:
				_, err = r.Uvarint()
			case 1:
				_, err = r.Int()
			case 2:
				_, err = r.Len()
			case 3:
				_, err = r.Float64()
			case 4:
				_, err = r.String()
			case 5:
				_, err = r.ByteSlice()
			case 6:
				_, err = rt.Read(r)
			}
			if err != nil {
				break
			}
			op++
		}
	})
}
