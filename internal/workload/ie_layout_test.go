package workload

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/opt"
	"repro/internal/seq"
	"repro/internal/store"
	"repro/internal/text"
)

// retiredIENames maps each columnar IE layout's codec name to the name the
// slice-per-sentence layout of the same type was stored under.
var retiredIENames = map[string]string{
	"workload.CSRTokenizedCorpus": "workload.TokenizedCorpus",
	"workload.CSRLabeledCorpus":   "workload.LabeledCorpus",
	"workload.CSRSeqDataset":      "workload.SeqDataset",
}

// storedName returns the codec name a store encoding carries: the format
// tag, the value tag, the name's length (one varint byte: names here are
// shorter than 128 bytes), the name.
func storedName(raw []byte) string {
	if len(raw) < 3 || int(raw[2]) > len(raw)-3 {
		return ""
	}
	return string(raw[3 : 3+int(raw[2])])
}

// relabel re-assembles a store encoding under another codec name.
func relabel(t *testing.T, raw []byte, name string) []byte {
	t.Helper()
	cur := storedName(raw)
	if cur == "" || len(name) >= 128 {
		t.Fatalf("unexpected encoding header % x", raw[:min(len(raw), 8)])
	}
	out := append([]byte(nil), raw[:2]...)
	out = append(out, byte(len(name)))
	out = append(out, name...)
	return append(out, raw[3+len(cur):]...)
}

// Payloads written under the slice-per-sentence names do not decode: the
// name resolves to no codec, so the old bytes are never misread.
func TestRetiredIENamesDoNotDecode(t *testing.T) {
	for name, v := range exemplars(t) {
		old, ok := retiredIENames[name]
		if !ok {
			continue
		}
		raw, err := store.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := storedName(raw); got != name {
			t.Fatalf("%T is stored as %q, want %q", v, got, name)
		}
		if _, err := store.Decode(relabel(t, raw, old)); !errors.Is(err, codec.ErrUnregistered) {
			t.Errorf("%T under %q: err = %v, want ErrUnregistered", v, old, err)
		}
	}
}

// A store holding IE values under the retired names: every such load fails,
// is counted in CorruptFrames, recovers by recompute and is re-materialized,
// and the outputs equal a store-less run's. Each layout is relabelled just
// before the edit that plans its load: a failed load's recovery probes the
// store for every ancestor, so a retired ancestor present earlier would be
// dropped as undecodable before any edit planned to load it.
func TestSessionRecomputesRetiredIELayouts(t *testing.T) {
	s, err := core.Open(core.Options{StoreDir: t.TempDir(), Policy: opt.MaterializeAll{}, Reuse: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p := DefaultIEParams(GenerateNews(40, 10, 4))
	rep, err := s.Run(p.Build())
	if err != nil {
		t.Fatal(err)
	}
	layoutKey := map[string]string{} // columnar codec name -> the key stored under it
	for _, key := range rep.Keys {
		raw, err := s.Store().GetBytes(key)
		if err != nil {
			continue
		}
		if name := storedName(raw); retiredIENames[name] != "" {
			layoutKey[name] = key
		}
	}
	if len(layoutKey) != len(retiredIENames) {
		t.Fatalf("found %d stored values, want one per columnar layout (%d)", len(layoutKey), len(retiredIENames))
	}
	retired := map[string]string{} // key -> the retired name its bytes carry
	retire := func(name string) {
		key := layoutKey[name]
		raw, err := s.Store().GetBytes(key)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Store().Delete(key); err != nil {
			t.Fatal(err)
		}
		if err := s.Store().PutBytes(key, relabel(t, raw, retiredIENames[name])); err != nil {
			t.Fatal(err)
		}
		retired[key] = retiredIENames[name]
	}
	labelsKey := rep.Keys[rep.Graph.Lookup("labels")]
	hit := map[string]bool{}
	for _, edit := range []func(){
		func() { // ML edit: loads the feature dataset
			retire("workload.CSRSeqDataset")
			p.Epochs = 6
		},
		func() { // prep edit: loads the labeled corpus
			retire("workload.CSRLabeledCorpus")
			p.Features.Affixes = true
		},
		func() {
			// Without a stored labeled corpus, the next prep edit loads
			// the tokenized one to recompute it.
			retire("workload.CSRTokenizedCorpus")
			p.Features.Context = true
			if err := s.Store().Delete(labelsKey); err != nil {
				t.Fatal(err)
			}
		},
	} {
		edit()
		w := p.Build()
		want := storelessOutputs(t, w)
		if rep, err = s.Run(w); err != nil {
			t.Fatal(err)
		}
		loadedRetired := 0
		for id, st := range rep.Plan.States {
			old, ok := retired[rep.Keys[id]]
			if st != opt.Load || !ok {
				continue
			}
			loadedRetired++
			hit[old] = true
			delete(retired, rep.Keys[id])
			name := rep.Graph.Node(dag.NodeID(id)).Name
			if !rep.Nodes[id].Materialized {
				t.Errorf("%s: retired %s not re-materialized", name, old)
			}
			raw, err := s.Store().GetBytes(rep.Keys[id])
			if err != nil {
				t.Errorf("%s: not in the store after recovery: %v", name, err)
			} else if _, err := store.Decode(raw); err != nil {
				t.Errorf("%s: store still holds an undecodable value: %v", name, err)
			}
		}
		if rep.CorruptFrames < int64(loadedRetired) || rep.Recomputes < int64(loadedRetired) {
			t.Errorf("planned %d retired loads; corrupt %d, recomputes %d", loadedRetired, rep.CorruptFrames, rep.Recomputes)
		}
		for _, out := range []string{"spans", "checked"} {
			if !bytes.Equal(mustEncode(t, rep.Outputs[out]), mustEncode(t, want[out])) {
				t.Errorf("recovered %s differs from a store-less run", out)
			}
		}
	}
	for _, old := range retiredIENames {
		if !hit[old] {
			t.Errorf("no iteration planned a load of a retired %s", old)
		}
	}
}

// storelessOutputs runs w in a session without a store.
func storelessOutputs(t *testing.T, w *core.Workflow) map[string]any {
	t.Helper()
	s, err := core.Open(core.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep, err := s.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Outputs
}

func mustEncode(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := store.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestSeqDatasetMatchesOracle: under every template combination, the
// feats operator's CSR id layout, re-nested to one slice per token, equals
// what the string oracle (TokenFeatures names mapped one by one through a
// dictionary) gives token by token, train half then frozen test half.
func TestSeqDatasetMatchesOracle(t *testing.T) {
	data := GenerateNews(12, 4, 9)
	data.Train = append(data.Train, Document{Text: "İstanbul Ärger met Mary Smith. Σ!", Persons: []string{"Mary Smith"}})
	data.Test = append(data.Test, Document{Text: "Zed Ωmega praised İ Unseen words", Persons: nil})
	lc, err := labelCorpus(tokenizeCorpus(data))
	if err != nil {
		t.Fatal(err)
	}
	gv := GazValue{Entries: append(GazetteerEntries(0.5), "İstanbul", "Zed")}
	gaz := text.NewGazetteer(gv.Entries...)
	for k := 0; k < 64; k++ {
		cfg := text.FeatureConfig{
			Word: k&1 != 0, Shape: k&2 != 0, Affixes: k&4 != 0,
			Context: k&8 != 0, Gazetteer: k&16 != 0, Position: k&32 != 0,
		}
		ds, err := featurize(lc, gv, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dict := seq.NewFeatureDict()
		for _, half := range []struct {
			name  string
			sents Ragged[string]
			c     seq.Corpus
		}{{"train", lc.TrainSents, ds.Train}, {"test", lc.TestSents, ds.Test}} {
			if !reflect.DeepEqual(half.c.Sent, half.sents.Off) {
				t.Fatalf("%+v %s: sentence offsets %v, want %v", cfg, half.name, half.c.Sent, half.sents.Off)
			}
			for s := 0; s < half.sents.Len(); s++ {
				sent := half.sents.Row(s)
				toks := make([]text.Token, len(sent))
				for i, w := range sent {
					toks[i] = text.Token{Text: w}
				}
				for i := range sent {
					var want []int32
					for _, name := range text.TokenFeatures(toks, i, cfg, gaz) {
						if id := dict.Add(name); id >= 0 {
							want = append(want, int32(id))
						}
					}
					tok := int(half.sents.Off[s]) + i
					got := half.c.ID[half.c.Tok[tok]:half.c.Tok[tok+1]]
					if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
						t.Fatalf("%+v %s sentence %d token %d (%q): ids %v, oracle %v", cfg, half.name, s, i, sent[i], got, want)
					}
				}
			}
			dict.Freeze()
		}
		if ds.Dim != dict.Len() {
			t.Fatalf("%+v: Dim %d, oracle dictionary %d", cfg, ds.Dim, dict.Len())
		}
	}
}

// The IE decoders reject what an operator would index out of range: ids
// outside [0, Dim), tags outside [0, NumTags) or not one per token, spans
// outside their sentence, span or person rows that do not match the
// sentences, a Dim no training id supports, and row lengths that do not sum
// to their totals.
func TestIEDecodersRejectCorrupt(t *testing.T) {
	ds := func(edit func(*SeqDataset)) SeqDataset {
		d := SeqDataset{
			Train:    seq.Corpus{Sent: []int32{0, 2}, Tok: []int32{0, 2, 3}, ID: []int32{0, 1, 2}, Tags: []uint8{seq.TagB, seq.TagO}},
			Test:     seq.Corpus{Sent: []int32{0, 2}, Tok: []int32{0, 1, 3}, ID: []int32{0, 2, 1}},
			TestGold: ragged([]seq.Span{{Start: 1, End: 2}}),
			Dim:      3,
		}
		edit(&d)
		return d
	}
	lc := func(edit func(*LabeledCorpus)) LabeledCorpus {
		l := LabeledCorpus{
			TrainSents: ragged([]string{"Ann", "Smith", "spoke"}),
			TestSents:  ragged([]string{"Bob", "left"}),
			TrainTags:  []uint8{seq.TagB, seq.TagI, seq.TagO},
			TrainGold:  ragged([]seq.Span{{Start: 0, End: 2}}),
			TestGold:   ragged([]seq.Span{{Start: 0, End: 1}}),
		}
		edit(&l)
		return l
	}
	tc := TokenizedCorpus{
		TrainSents:   ragged([]string{"Ann", "spoke"}, []string{"Bob"}),
		TestSents:    ragged([]string{"Bob", "left"}),
		TrainPersons: ragged([]string{"Ann"}),
		TestPersons:  ragged([]string{"Bob"}),
	}
	for _, v := range []any{ds(func(*SeqDataset) {}), lc(func(*LabeledCorpus) {})} {
		if _, err := store.Decode(mustEncode(t, v)); err != nil {
			t.Fatalf("valid %T rejected: %v", v, err)
		}
	}
	for name, v := range map[string]any{
		"train id past Dim":        ds(func(d *SeqDataset) { d.Train.ID[2] = 3 }),
		"test id past Dim":         ds(func(d *SeqDataset) { d.Test.ID[0] = 7 }),
		"invalid tag":              ds(func(d *SeqDataset) { d.Train.Tags[1] = seq.NumTags }),
		"tag per token missing":    ds(func(d *SeqDataset) { d.Train.Tags = d.Train.Tags[:1] }),
		"span past its sentence":   ds(func(d *SeqDataset) { d.TestGold.Vals[0].End = 3 }),
		"empty span":               ds(func(d *SeqDataset) { d.TestGold.Vals[0].Start = 2 }),
		"negative span start":      ds(func(d *SeqDataset) { d.TestGold.Vals[0].Start = -1 }),
		"span rows per sentence":   ds(func(d *SeqDataset) { d.TestGold = ragged([]seq.Span{{Start: 0, End: 1}}, nil) }),
		"sentences past tokens":    ds(func(d *SeqDataset) { d.Train.Sent = []int32{0, 3} }),
		"Dim past training ids":    ds(func(d *SeqDataset) { d.Dim = 1 << 40 }),
		"labeled tag count":        lc(func(l *LabeledCorpus) { l.TrainTags = l.TrainTags[:2] }),
		"labeled invalid tag":      lc(func(l *LabeledCorpus) { l.TrainTags[0] = 9 }),
		"labeled span out of row":  lc(func(l *LabeledCorpus) { l.TrainGold.Vals[0].End = 4 }),
		"labeled gold rows":        lc(func(l *LabeledCorpus) { l.TestGold = ragged[seq.Span]() }),
		"person rows per sentence": tc,
	} {
		if _, err := store.Decode(mustEncode(t, v)); err == nil {
			t.Errorf("%s: %T decoded", name, v)
		}
	}
	// Row lengths that disagree with the total that follows them.
	for _, lens := range [][]int{{2, 1, 2, 4}, {2, 1, 1, 1}} { // rows, lengths..., total
		var w codec.Writer
		for _, n := range lens {
			w.Len(n)
		}
		if _, _, err := decodeLens(codec.NewReader(w.Bytes())); err == nil {
			t.Errorf("row lengths %v decoded", lens)
		}
	}
}
