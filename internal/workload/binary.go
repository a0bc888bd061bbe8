package workload

import (
	"repro/internal/codec"
	"repro/internal/seq"
)

// Binary value codec registrations for the IE workload values (see
// codec.EncodeValue), written through the columnar helpers at the end of
// this file straight into the outer value stream.

func init() {
	codec.RegisterValue(NewsData{}, "workload.NewsData",
		func(w *codec.Writer, v any) error { encodeNewsData(w, v.(NewsData)); return nil },
		func(r *codec.Reader) (any, error) { return decodeNewsData(r) })
	codec.RegisterValue(TokenizedCorpus{}, "workload.TokenizedCorpus",
		func(w *codec.Writer, v any) error {
			tc := v.(TokenizedCorpus)
			table := codec.NewStringTable()
			encodeSents(w, table, tc.TrainSents)
			encodeSents(w, table, tc.TestSents)
			encodeSents(w, table, tc.TrainPersons)
			encodeSents(w, table, tc.TestPersons)
			return nil
		},
		func(r *codec.Reader) (any, error) {
			var tc TokenizedCorpus
			table := codec.NewReadStringTable()
			var err error
			if tc.TrainSents, err = decodeSents(r, table); err != nil {
				return nil, err
			}
			if tc.TestSents, err = decodeSents(r, table); err != nil {
				return nil, err
			}
			if tc.TrainPersons, err = decodeSents(r, table); err != nil {
				return nil, err
			}
			if tc.TestPersons, err = decodeSents(r, table); err != nil {
				return nil, err
			}
			return tc, nil
		})
	codec.RegisterValue(LabeledCorpus{}, "workload.LabeledCorpus",
		func(w *codec.Writer, v any) error {
			lc := v.(LabeledCorpus)
			table := codec.NewStringTable()
			encodeSents(w, table, lc.TrainSents)
			encodeSents(w, table, lc.TestSents)
			encodeInts2(w, lc.TrainTags)
			encodeSpans2(w, lc.TrainGold)
			encodeSpans2(w, lc.TestGold)
			return nil
		},
		func(r *codec.Reader) (any, error) {
			var lc LabeledCorpus
			table := codec.NewReadStringTable()
			var err error
			if lc.TrainSents, err = decodeSents(r, table); err != nil {
				return nil, err
			}
			if lc.TestSents, err = decodeSents(r, table); err != nil {
				return nil, err
			}
			if lc.TrainTags, err = decodeInts2(r); err != nil {
				return nil, err
			}
			if lc.TrainGold, err = decodeSpans2(r); err != nil {
				return nil, err
			}
			if lc.TestGold, err = decodeSpans2(r); err != nil {
				return nil, err
			}
			return lc, nil
		})
	codec.RegisterValue(GazValue{}, "workload.GazValue",
		func(w *codec.Writer, v any) error {
			g := v.(GazValue)
			w.Len(len(g.Entries))
			for _, e := range g.Entries {
				w.String(e)
			}
			return nil
		},
		func(r *codec.Reader) (any, error) {
			n, err := r.Len()
			if err != nil {
				return nil, err
			}
			entries := make([]string, n)
			for i := range entries {
				if entries[i], err = r.String(); err != nil {
					return nil, err
				}
			}
			return GazValue{Entries: entries}, nil
		})
	codec.RegisterValue(SeqDataset{}, "workload.SeqDataset",
		func(w *codec.Writer, v any) error {
			ds := v.(SeqDataset)
			w.Len(len(ds.TrainInsts))
			for _, in := range ds.TrainInsts {
				encodeInts2(w, in.Feats)
				w.Len(len(in.Tags))
				for _, t := range in.Tags {
					w.Int(t)
				}
			}
			encodeInts3(w, ds.TestFeats)
			encodeSpans2(w, ds.TestGold)
			w.Int(ds.Dim)
			return nil
		},
		func(r *codec.Reader) (any, error) {
			var ds SeqDataset
			n, err := r.Len()
			if err != nil {
				return nil, err
			}
			insts := make([]seq.Instance, n)
			for i := range insts {
				feats, err := decodeInts2(r)
				if err != nil {
					return nil, err
				}
				k, err := r.Len()
				if err != nil {
					return nil, err
				}
				tags := make([]int, k)
				for j := range tags {
					if tags[j], err = r.Int(); err != nil {
						return nil, err
					}
				}
				insts[i] = seq.Instance{Feats: feats, Tags: tags}
			}
			ds.TrainInsts = insts
			if ds.TestFeats, err = decodeInts3(r); err != nil {
				return nil, err
			}
			if ds.TestGold, err = decodeSpans2(r); err != nil {
				return nil, err
			}
			if ds.Dim, err = r.Int(); err != nil {
				return nil, err
			}
			return ds, nil
		})
	codec.RegisterValue(PredSpans{}, "workload.PredSpans",
		func(w *codec.Writer, v any) error {
			p := v.(PredSpans)
			encodeSpans2(w, p.Spans)
			encodeSpans2(w, p.Gold)
			return nil
		},
		func(r *codec.Reader) (any, error) {
			var p PredSpans
			var err error
			if p.Spans, err = decodeSpans2(r); err != nil {
				return nil, err
			}
			if p.Gold, err = decodeSpans2(r); err != nil {
				return nil, err
			}
			return p, nil
		})
}

func encodeNewsData(w *codec.Writer, nd NewsData) {
	table := codec.NewStringTable()
	for _, docs := range [][]Document{nd.Train, nd.Test} {
		w.Len(len(docs))
		for _, d := range docs {
			w.String(d.Text)
			w.Len(len(d.Persons))
			for _, p := range d.Persons {
				table.Write(w, p)
			}
		}
	}
}

func decodeNewsData(r *codec.Reader) (NewsData, error) {
	var nd NewsData
	table := codec.NewReadStringTable()
	for _, dst := range []*[]Document{&nd.Train, &nd.Test} {
		n, err := r.Len()
		if err != nil {
			return NewsData{}, err
		}
		docs := make([]Document, n)
		for i := range docs {
			if docs[i].Text, err = r.String(); err != nil {
				return NewsData{}, err
			}
			np, err := r.Len()
			if err != nil {
				return NewsData{}, err
			}
			persons := make([]string, np)
			for j := range persons {
				if persons[j], err = table.Read(r); err != nil {
					return NewsData{}, err
				}
			}
			docs[i].Persons = persons
		}
		*dst = docs
	}
	return nd, nil
}

// Columnar helpers for the IE values. Token text is heavily repetitive, so
// sentences go through an interned string table; feature-index tensors
// encode as flat varint arrays.

func encodeSents(w *codec.Writer, table *codec.StringTable, sents [][]string) {
	w.Len(len(sents))
	for _, sent := range sents {
		w.Len(len(sent))
		for _, tok := range sent {
			table.Write(w, tok)
		}
	}
}

func decodeSents(r *codec.Reader, table *codec.ReadStringTable) ([][]string, error) {
	n, err := r.Len()
	if err != nil {
		return nil, err
	}
	out := make([][]string, n)
	for i := range out {
		k, err := r.Len()
		if err != nil {
			return nil, err
		}
		sent := make([]string, k)
		for j := range sent {
			if sent[j], err = table.Read(r); err != nil {
				return nil, err
			}
		}
		out[i] = sent
	}
	return out, nil
}

func encodeInts2(w *codec.Writer, rows [][]int) {
	w.Len(len(rows))
	for _, row := range rows {
		w.Len(len(row))
		for _, v := range row {
			w.Int(v)
		}
	}
}

func decodeInts2(r *codec.Reader) ([][]int, error) {
	n, err := r.Len()
	if err != nil {
		return nil, err
	}
	out := make([][]int, n)
	for i := range out {
		k, err := r.Len()
		if err != nil {
			return nil, err
		}
		row := make([]int, k)
		for j := range row {
			if row[j], err = r.Int(); err != nil {
				return nil, err
			}
		}
		out[i] = row
	}
	return out, nil
}

func encodeInts3(w *codec.Writer, t [][][]int) {
	w.Len(len(t))
	for _, m := range t {
		encodeInts2(w, m)
	}
}

func decodeInts3(r *codec.Reader) ([][][]int, error) {
	n, err := r.Len()
	if err != nil {
		return nil, err
	}
	out := make([][][]int, n)
	for i := range out {
		m, err := decodeInts2(r)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

func encodeSpans2(w *codec.Writer, spans [][]seq.Span) {
	w.Len(len(spans))
	for _, ss := range spans {
		w.Len(len(ss))
		for _, s := range ss {
			w.Int(s.Start)
			w.Int(s.End)
		}
	}
}

func decodeSpans2(r *codec.Reader) ([][]seq.Span, error) {
	n, err := r.Len()
	if err != nil {
		return nil, err
	}
	out := make([][]seq.Span, n)
	for i := range out {
		k, err := r.Len()
		if err != nil {
			return nil, err
		}
		ss := make([]seq.Span, k)
		for j := range ss {
			if ss[j].Start, err = r.Int(); err != nil {
				return nil, err
			}
			if ss[j].End, err = r.Int(); err != nil {
				return nil, err
			}
		}
		out[i] = ss
	}
	return out, nil
}
