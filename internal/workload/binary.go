package workload

import (
	"fmt"
	"math"

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
	// The columnar IE layouts name their layout: a payload written under
	// the slice-per-sentence names finds no decoder, so the store drops it
	// and the engine recomputes the value instead of misreading it.
	codec.RegisterValue(TokenizedCorpus{}, "workload.CSRTokenizedCorpus",
		func(w *codec.Writer, v any) error {
			tc := v.(TokenizedCorpus)
			table := codec.NewStringTable()
			for _, r := range []Ragged[string]{tc.TrainSents, tc.TestSents, tc.TrainPersons, tc.TestPersons} {
				encodeWords(w, table, r)
			}
			return nil
		},
		func(r *codec.Reader) (any, error) {
			var tc TokenizedCorpus
			table := codec.NewReadStringTable()
			for _, dst := range []*Ragged[string]{&tc.TrainSents, &tc.TestSents, &tc.TrainPersons, &tc.TestPersons} {
				var err error
				if *dst, err = decodeWords(r, table); err != nil {
					return nil, err
				}
			}
			// The aligner reads sentence i's persons from row i.
			if tc.TrainPersons.Len() != tc.TrainSents.Len() || tc.TestPersons.Len() != tc.TestSents.Len() {
				return nil, fmt.Errorf("workload: tokenized corpus has %d/%d person rows for %d/%d sentences",
					tc.TrainPersons.Len(), tc.TestPersons.Len(), tc.TrainSents.Len(), tc.TestSents.Len())
			}
			return tc, nil
		})
	codec.RegisterValue(LabeledCorpus{}, "workload.CSRLabeledCorpus",
		func(w *codec.Writer, v any) error {
			lc := v.(LabeledCorpus)
			table := codec.NewStringTable()
			encodeWords(w, table, lc.TrainSents)
			encodeWords(w, table, lc.TestSents)
			w.ByteSlice(lc.TrainTags)
			encodeSpanRows(w, lc.TrainGold)
			encodeSpanRows(w, lc.TestGold)
			return nil
		},
		func(r *codec.Reader) (any, error) {
			var lc LabeledCorpus
			table := codec.NewReadStringTable()
			var err error
			if lc.TrainSents, err = decodeWords(r, table); err != nil {
				return nil, err
			}
			if lc.TestSents, err = decodeWords(r, table); err != nil {
				return nil, err
			}
			if lc.TrainTags, err = decodeTags(r, len(lc.TrainSents.Vals)); err != nil {
				return nil, err
			}
			if lc.TrainGold, err = decodeSpanRows(r, lc.TrainSents.Off); err != nil {
				return nil, err
			}
			if lc.TestGold, err = decodeSpanRows(r, lc.TestSents.Off); err != nil {
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
	codec.RegisterValue(SeqDataset{}, "workload.CSRSeqDataset",
		func(w *codec.Writer, v any) error {
			ds := v.(SeqDataset)
			w.Int(ds.Dim)
			encodeCorpus(w, ds.Train)
			w.ByteSlice(ds.Train.Tags)
			encodeCorpus(w, ds.Test)
			encodeSpanRows(w, ds.TestGold)
			return nil
		},
		func(r *codec.Reader) (any, error) {
			var ds SeqDataset
			var err error
			if ds.Dim, err = r.Int(); err != nil {
				return nil, err
			}
			if ds.Train, err = decodeCorpus(r, ds.Dim); err != nil {
				return nil, err
			}
			// Learners size their weights by Dim. Every dictionary entry
			// was first fired by a training token, so a Dim past the
			// number of training ids is corrupt rather than a huge
			// allocation to attempt.
			if ds.Dim < 0 || ds.Dim > len(ds.Train.ID) {
				return nil, fmt.Errorf("workload: sequence dataset has Dim %d over %d training ids", ds.Dim, len(ds.Train.ID))
			}
			if ds.Train.Tags, err = decodeTags(r, ds.Train.Tokens()); err != nil {
				return nil, err
			}
			if ds.Test, err = decodeCorpus(r, ds.Dim); err != nil {
				return nil, err
			}
			if ds.TestGold, err = decodeSpanRows(r, ds.Test.Sent); err != nil {
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

// Columnar helpers for the IE values. A ragged value writes its row count,
// each row's length and the total, then the values; offsets are rebuilt
// from the lengths, so they are monotone by construction, and a decoder
// rejects lengths that do not sum to the total. Token text is heavily
// repetitive, so words go through an interned string table.

// encodeLens writes the row count and each row's length, then the total.
func encodeLens(w *codec.Writer, off []int32) {
	n := max(len(off)-1, 0)
	w.Len(n)
	total := 0
	for i := 0; i < n; i++ {
		k := int(off[i+1] - off[i])
		w.Len(k)
		total += k
	}
	w.Len(total)
}

// decodeLens reverses encodeLens into exact-size offsets and returns the
// total they index.
func decodeLens(r *codec.Reader) ([]int32, int, error) {
	n, err := r.Len()
	if err != nil {
		return nil, 0, err
	}
	off := make([]int32, n+1)
	for i := 0; i < n; i++ {
		k, err := r.Len()
		if err != nil {
			return nil, 0, err
		}
		end := int(off[i]) + k
		if end > math.MaxInt32 {
			return nil, 0, fmt.Errorf("workload: row %d ends at %d, past int32", i, end)
		}
		off[i+1] = int32(end)
	}
	total, err := r.Len()
	if err != nil {
		return nil, 0, err
	}
	if total != int(off[n]) {
		return nil, 0, fmt.Errorf("workload: rows hold %d values, total says %d", off[n], total)
	}
	return off, total, nil
}

func encodeWords(w *codec.Writer, table *codec.StringTable, r Ragged[string]) {
	encodeLens(w, r.Off)
	for _, s := range r.Vals {
		table.Write(w, s)
	}
}

func decodeWords(r *codec.Reader, table *codec.ReadStringTable) (Ragged[string], error) {
	off, total, err := decodeLens(r)
	if err != nil {
		return Ragged[string]{}, err
	}
	vals := make([]string, total)
	for i := range vals {
		if vals[i], err = table.Read(r); err != nil {
			return Ragged[string]{}, err
		}
	}
	return Ragged[string]{Off: off, Vals: vals}, nil
}

// decodeTags reads a tag slab that must hold one tag below seq.NumTags for
// each of tokens tokens.
func decodeTags(r *codec.Reader, tokens int) ([]uint8, error) {
	tags, err := r.ByteSlice()
	if err != nil {
		return nil, err
	}
	if len(tags) != tokens {
		return nil, fmt.Errorf("workload: %d tags for %d tokens", len(tags), tokens)
	}
	for _, t := range tags {
		if t >= seq.NumTags {
			return nil, fmt.Errorf("workload: invalid tag %d", t)
		}
	}
	return tags, nil
}

func encodeSpanRows(w *codec.Writer, r Ragged[seq.Span]) {
	encodeLens(w, r.Off)
	for _, s := range r.Vals {
		w.Int(s.Start)
		w.Int(s.End)
	}
}

// decodeSpanRows reads one row of spans per sentence of sentOff (token
// offsets) and rejects a span that is empty or leaves its sentence.
func decodeSpanRows(r *codec.Reader, sentOff []int32) (Ragged[seq.Span], error) {
	off, total, err := decodeLens(r)
	if err != nil {
		return Ragged[seq.Span]{}, err
	}
	if len(off) != len(sentOff) {
		return Ragged[seq.Span]{}, fmt.Errorf("workload: %d span rows for %d sentences", len(off)-1, len(sentOff)-1)
	}
	spans := make([]seq.Span, total)
	for row := 0; row+1 < len(off); row++ {
		n := int(sentOff[row+1] - sentOff[row])
		for k := off[row]; k < off[row+1]; k++ {
			s := &spans[k]
			if s.Start, err = r.Int(); err != nil {
				return Ragged[seq.Span]{}, err
			}
			if s.End, err = r.Int(); err != nil {
				return Ragged[seq.Span]{}, err
			}
			if s.Start < 0 || s.Start >= s.End || s.End > n {
				return Ragged[seq.Span]{}, fmt.Errorf("workload: span [%d,%d) outside sentence %d of %d tokens", s.Start, s.End, row, n)
			}
		}
	}
	return Ragged[seq.Span]{Off: off, Vals: spans}, nil
}

// encodeCorpus writes a corpus's sentence lengths, token lengths and ids;
// the tags, if any, are the caller's to write.
func encodeCorpus(w *codec.Writer, c seq.Corpus) {
	encodeLens(w, c.Sent)
	encodeLens(w, c.Tok)
	for _, id := range c.ID {
		w.Uvarint(uint64(id))
	}
}

// decodeCorpus reverses encodeCorpus into exact-size slabs. The sentence
// lengths must sum to the number of tokens, and every id must lie in
// [0, dim).
func decodeCorpus(r *codec.Reader, dim int) (seq.Corpus, error) {
	sent, tokens, err := decodeLens(r)
	if err != nil {
		return seq.Corpus{}, err
	}
	tok, total, err := decodeLens(r)
	if err != nil {
		return seq.Corpus{}, err
	}
	if len(tok)-1 != tokens {
		return seq.Corpus{}, fmt.Errorf("workload: sentences hold %d tokens, %d token rows follow", tokens, len(tok)-1)
	}
	ids := make([]int32, total)
	for k := range ids {
		id, err := r.Uvarint()
		if err != nil {
			return seq.Corpus{}, err
		}
		if id >= uint64(dim) {
			return seq.Corpus{}, fmt.Errorf("workload: feature id %d outside [0, %d)", id, dim)
		}
		ids[k] = int32(id)
	}
	return seq.Corpus{Sent: sent, Tok: tok, ID: ids}, nil
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

// decodeSpans2 reverses encodeSpans2 into one span slab that every
// sentence's spans are a capped window of.
func decodeSpans2(r *codec.Reader) ([][]seq.Span, error) {
	n, err := r.Len()
	if err != nil {
		return nil, err
	}
	rows := newRagged[seq.Span](n, n)
	for i := 0; i < n; i++ {
		k, err := r.Len()
		if err != nil {
			return nil, err
		}
		for j := 0; j < k; j++ {
			var s seq.Span
			if s.Start, err = r.Int(); err != nil {
				return nil, err
			}
			if s.End, err = r.Int(); err != nil {
				return nil, err
			}
			rows.Vals = append(rows.Vals, s)
		}
		rows.endRow()
	}
	return rows.Nested(), nil
}
