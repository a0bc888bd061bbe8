package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/seq"
	"repro/internal/text"
)

// Value types flowing through the IE pipeline. All are registered with the
// store's binary codec (binary.go) so HELIX can materialize any
// intermediate. Per-sentence and per-token data is laid out as one slab per
// corpus half with int32 offsets, not as a slice per sentence or token.

// Ragged holds many short rows in one slab: row i is Vals[Off[i]:Off[i+1]].
// Off starts at 0 and has one more entry than there are rows.
type Ragged[T any] struct {
	Off  []int32
	Vals []T
}

// newRagged returns an empty Ragged with room for rows rows of vals values
// in total.
func newRagged[T any](rows, vals int) Ragged[T] {
	off := make([]int32, 1, rows+1)
	return Ragged[T]{Off: off, Vals: make([]T, 0, vals)}
}

// Len returns the number of rows.
func (r Ragged[T]) Len() int { return max(len(r.Off)-1, 0) }

// Row returns row i, capped so that an append to it cannot overwrite the
// next row.
func (r Ragged[T]) Row(i int) []T {
	lo, hi := r.Off[i], r.Off[i+1]
	return r.Vals[lo:hi:hi]
}

// endRow closes the row that the values appended since the last endRow
// form.
func (r *Ragged[T]) endRow() { r.Off = append(r.Off, int32(len(r.Vals))) }

// Nested returns every row, each a capped window of the slab.
func (r Ragged[T]) Nested() [][]T {
	out := make([][]T, r.Len())
	for i := range out {
		out[i] = r.Row(i)
	}
	return out
}

// TokenizedCorpus is the corpus after tokenization and sentence splitting.
// Sentences are flattened across documents; row i of TrainPersons lists
// the gold person names of the document train sentence i came from.
type TokenizedCorpus struct {
	TrainSents, TestSents     Ragged[string]
	TrainPersons, TestPersons Ragged[string]
}

// LabeledCorpus adds gold BIO tags (train, one per token of TrainSents)
// and gold spans (both halves, one row per sentence), derived by aligning
// person-name strings against token sequences — the distant-supervision
// ETL step.
type LabeledCorpus struct {
	TrainSents, TestSents Ragged[string]
	TrainTags             []uint8
	TrainGold, TestGold   Ragged[seq.Span]
}

// GazValue wraps gazetteer entries as a DAG value.
type GazValue struct {
	Entries []string
}

// SeqDataset is the vectorized sequence-learning dataset: both halves'
// feature ids (and the train half's tags) as CSR corpora over one feature
// dictionary of Dim entries.
type SeqDataset struct {
	Train, Test seq.Corpus
	TestGold    Ragged[seq.Span]
	Dim         int
}

// PredSpans carries decoded mention spans for the test half.
type PredSpans struct {
	Spans [][]seq.Span
	Gold  [][]seq.Span
}

// IEParams are the iteration knobs of the information-extraction workflow.
type IEParams struct {
	// Data is the corpus, fixed across iterations.
	Data NewsData
	// Features is the token feature template configuration (prep knobs).
	Features text.FeatureConfig
	// GazFrac selects how much of the name pool the gazetteer covers.
	GazFrac float64
	// Epochs and Seed parameterize the structured perceptron (ML knobs).
	Epochs int
	Seed   int64
	// Metric is the eval emphasis (eval knob).
	Metric string
}

// DefaultIEParams is iteration 1 of the IE session.
func DefaultIEParams(data NewsData) IEParams {
	return IEParams{
		Data:     data,
		Features: text.DefaultFeatures(),
		GazFrac:  0.5,
		Epochs:   3,
		Seed:     1,
		Metric:   "f1",
	}
}

// hashDocs fingerprints the corpus for the source signature, one
// "<T|E><len>:<text>|<persons,>\n" record per train (T) or test (E) doc.
func hashDocs(d NewsData) string {
	h := sha256.New()
	var buf []byte
	for _, half := range [...]struct {
		tag  byte
		docs []Document
	}{{'T', d.Train}, {'E', d.Test}} {
		for _, doc := range half.docs {
			buf = strconv.AppendInt(append(buf[:0], half.tag), int64(len(doc.Text)), 10)
			buf = append(append(append(buf, ':'), doc.Text...), '|')
			for i, p := range doc.Persons {
				if i > 0 {
					buf = append(buf, ',')
				}
				buf = append(buf, p...)
			}
			buf = append(buf, '\n')
			h.Write(buf)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// featParams encodes the feature configuration into signature params.
func featParams(cfg text.FeatureConfig) map[string]string {
	return map[string]string{
		"word":    strconv.FormatBool(cfg.Word),
		"shape":   strconv.FormatBool(cfg.Shape),
		"affixes": strconv.FormatBool(cfg.Affixes),
		"context": strconv.FormatBool(cfg.Context),
		"gaz":     strconv.FormatBool(cfg.Gazetteer),
		"pos":     strconv.FormatBool(cfg.Position),
	}
}

// tokenizeDocs splits documents into sentences, replicating each
// document's person list onto each of its sentences.
func tokenizeDocs(docs []Document) (sents, persons Ragged[string]) {
	sents, persons = newRagged[string](len(docs), 0), newRagged[string](len(docs), 0)
	var toks []text.Token
	for _, doc := range docs {
		toks = text.AppendTokens(toks[:0], doc.Text)
		for i, tk := range toks {
			sents.Vals = append(sents.Vals, tk.Text)
			// text.SplitSentences' rule, without a slice per sentence.
			if text.EndsSentence(tk.Text) || i == len(toks)-1 {
				sents.endRow()
				persons.Vals = append(persons.Vals, doc.Persons...)
				persons.endRow()
			}
		}
	}
	return sents, persons
}

// tokenizeCorpus is the tokenize operator.
func tokenizeCorpus(nd NewsData) TokenizedCorpus {
	var tc TokenizedCorpus
	tc.TrainSents, tc.TrainPersons = tokenizeDocs(nd.Train)
	tc.TestSents, tc.TestPersons = tokenizeDocs(nd.Test)
	return tc
}

// aligner finds person mentions in sentences, caching each person string's
// words and reusing its scratch across sentences.
type aligner struct {
	words map[string][]string
	used  []bool
}

// appendSpans appends to dst the token spans of sent matching any
// "First Last" person string, sorted by start; a token joins at most one
// span.
func (a *aligner) appendSpans(dst []seq.Span, sent, persons []string) []seq.Span {
	if a.words == nil {
		a.words = make(map[string][]string)
	}
	a.used = append(a.used[:0], make([]bool, len(sent))...)
	used := a.used
	first := len(dst)
	for _, p := range persons {
		parts, ok := a.words[p]
		if !ok {
			parts = strings.Fields(p)
			a.words[p] = parts
		}
		if len(parts) == 0 {
			continue
		}
		for i := 0; i+len(parts) <= len(sent); i++ {
			match := true
			for j, w := range parts {
				if sent[i+j] != w || used[i+j] {
					match = false
					break
				}
			}
			if match {
				dst = append(dst, seq.Span{Start: i, End: i + len(parts)})
				for j := i; j < i+len(parts); j++ {
					used[j] = true
				}
			}
		}
	}
	// Sort by start for stable downstream comparison.
	spans := dst[first:]
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0 && spans[j].Start < spans[j-1].Start; j-- {
			spans[j], spans[j-1] = spans[j-1], spans[j]
		}
	}
	return dst
}

// alignHalf aligns every sentence of a half against its persons.
func (a *aligner) alignHalf(sents, persons Ragged[string]) Ragged[seq.Span] {
	gold := newRagged[seq.Span](sents.Len(), sents.Len())
	for i := 0; i < sents.Len(); i++ {
		gold.Vals = a.appendSpans(gold.Vals, sents.Row(i), persons.Row(i))
		gold.endRow()
	}
	return gold
}

// labelCorpus is the alignLabels operator.
func labelCorpus(tc TokenizedCorpus) (LabeledCorpus, error) {
	var a aligner
	lc := LabeledCorpus{
		TrainSents: tc.TrainSents,
		TestSents:  tc.TestSents,
		TrainTags:  make([]uint8, len(tc.TrainSents.Vals)),
		TrainGold:  a.alignHalf(tc.TrainSents, tc.TrainPersons),
		TestGold:   a.alignHalf(tc.TestSents, tc.TestPersons),
	}
	for i := 0; i < lc.TrainSents.Len(); i++ {
		lo, hi := lc.TrainSents.Off[i], lc.TrainSents.Off[i+1]
		if err := seq.TagsFromSpans(lc.TrainTags[lo:hi], lc.TrainGold.Row(i)); err != nil {
			return LabeledCorpus{}, fmt.Errorf("alignLabels: train sentence %d: %w", i, err)
		}
	}
	return lc, nil
}

// featurizeHalf numbers the features of every token of sents through fz
// into a corpus whose id slab is allocated once, at the bound of perToken
// features per token.
func featurizeHalf(fz *text.Featurizer, sents Ragged[string], perToken int) (seq.Corpus, error) {
	words := sents.Vals
	if bound := perToken * len(words); bound > math.MaxInt32 {
		return seq.Corpus{}, fmt.Errorf("tokenFeatures: %d tokens can fire %d features, past int32", len(words), bound)
	}
	c := seq.Corpus{
		Sent: sents.Off,
		Tok:  make([]int32, len(words)+1),
		ID:   make([]int32, 0, perToken*len(words)),
	}
	for s := 0; s < sents.Len(); s++ {
		lo := int(sents.Off[s])
		sent := sents.Row(s)
		for i := range sent {
			c.ID = fz.AppendIDs(c.ID, sent, i)
			c.Tok[lo+i+1] = int32(len(c.ID))
		}
	}
	c.ID = c.ID[:len(c.ID):len(c.ID)]
	return c, nil
}

// featurize is the tokenFeatures operator: the train half grows the
// feature dictionary, the test half maps through it frozen.
func featurize(lc LabeledCorpus, gv GazValue, cfg text.FeatureConfig) (SeqDataset, error) {
	dict := seq.NewFeatureDict()
	fz := text.NewFeaturizer(cfg, text.NewGazetteer(gv.Entries...), dict)
	train, err := featurizeHalf(fz, lc.TrainSents, cfg.MaxFeatures())
	if err != nil {
		return SeqDataset{}, err
	}
	train.Tags = lc.TrainTags
	dict.Freeze()
	test, err := featurizeHalf(fz, lc.TestSents, cfg.MaxFeatures())
	if err != nil {
		return SeqDataset{}, err
	}
	return SeqDataset{Train: train, Test: test, TestGold: lc.TestGold, Dim: dict.Len()}, nil
}

// predictSpans is the decode operator: Viterbi over every test sentence
// with one reused scratch, the spans landing in one slab.
func predictSpans(m *seq.Model, ds SeqDataset) PredSpans {
	pred := newRagged[seq.Span](ds.Test.Len(), ds.TestGold.Len())
	var dec seq.Decoder
	for s := 0; s < ds.Test.Len(); s++ {
		pred.Vals = seq.SpansFromTags(pred.Vals, dec.Decode(m, &ds.Test, s))
		pred.endRow()
	}
	return PredSpans{Spans: pred.Nested(), Gold: ds.TestGold.Nested()}
}

// Build constructs the IE workflow for the current parameters. Every
// operator is a DSL UDF, demonstrating the paper's extension mechanism
// ("users can easily extend the default set of operators ... by providing
// only the UDF").
func (p IEParams) Build() *core.Workflow {
	wf := core.NewWorkflow("ie")
	data := p.Data

	wf.Source("corpus", core.NewUDF("newsSource", core.CatPrep,
		map[string]string{"content": hashDocs(data)}, "v1",
		func([]any) (any, error) { return data, nil }))

	wf.Apply("tokens", core.NewUDF("tokenize", core.CatPrep, nil, "v1",
		func(in []any) (any, error) {
			nd, ok := in[0].(NewsData)
			if !ok {
				return nil, fmt.Errorf("tokenize: want NewsData, got %T", in[0])
			}
			return tokenizeCorpus(nd), nil
		}), "corpus")

	wf.Apply("labels", core.NewUDF("alignLabels", core.CatPrep, nil, "v1",
		func(in []any) (any, error) {
			tc, ok := in[0].(TokenizedCorpus)
			if !ok {
				return nil, fmt.Errorf("alignLabels: want TokenizedCorpus, got %T", in[0])
			}
			return labelCorpus(tc)
		}), "tokens")

	gazFrac := p.GazFrac
	wf.Source("gaz", core.NewUDF("gazetteer", core.CatPrep,
		map[string]string{"frac": strconv.FormatFloat(gazFrac, 'g', -1, 64)}, "v1",
		func([]any) (any, error) {
			return GazValue{Entries: GazetteerEntries(gazFrac)}, nil
		}))

	cfg := p.Features
	wf.Apply("feats", core.NewUDF("tokenFeatures", core.CatPrep, featParams(cfg), "v1",
		func(in []any) (any, error) {
			lc, ok := in[0].(LabeledCorpus)
			if !ok {
				return nil, fmt.Errorf("tokenFeatures: want LabeledCorpus, got %T", in[0])
			}
			gv, ok := in[1].(GazValue)
			if !ok {
				return nil, fmt.Errorf("tokenFeatures: want GazValue, got %T", in[1])
			}
			return featurize(lc, gv, cfg)
		}), "labels", "gaz")

	epochs, seed := p.Epochs, p.Seed
	wf.Apply("model", core.NewUDF("seqLearner", core.CatML,
		map[string]string{"epochs": strconv.Itoa(epochs), "seed": strconv.FormatInt(seed, 10)}, "v1",
		func(in []any) (any, error) {
			ds, ok := in[0].(SeqDataset)
			if !ok {
				return nil, fmt.Errorf("seqLearner: want SeqDataset, got %T", in[0])
			}
			return seq.Train(ds.Train, seq.TrainConfig{Epochs: epochs, Seed: seed, Dim: ds.Dim})
		}), "feats")

	wf.Apply("spans", core.NewUDF("decode", core.CatML, nil, "v1",
		func(in []any) (any, error) {
			m, ok := in[0].(*seq.Model)
			if !ok {
				return nil, fmt.Errorf("decode: want *seq.Model, got %T", in[0])
			}
			ds, ok := in[1].(SeqDataset)
			if !ok {
				return nil, fmt.Errorf("decode: want SeqDataset, got %T", in[1])
			}
			return predictSpans(m, ds), nil
		}), "model", "feats")

	metric := p.Metric
	wf.Apply("checked", core.NewUDF("spanEval", core.CatEval,
		map[string]string{"metric": metric}, "v1",
		func(in []any) (any, error) {
			ps, ok := in[0].(PredSpans)
			if !ok {
				return nil, fmt.Errorf("spanEval: want PredSpans, got %T", in[0])
			}
			prec, rec, f1, err := seq.SpanF1(ps.Gold, ps.Spans)
			if err != nil {
				return nil, err
			}
			return ml.Metrics{Precision: prec, Recall: rec, F1: f1, Accuracy: f1, N: len(ps.Spans)}, nil
		}), "spans")

	wf.Output("spans").Output("checked")
	return wf
}

// IEScenario is the scripted 10-iteration IE development session used for
// Figure 2(a).
func IEScenario(data NewsData) *Scenario {
	p := DefaultIEParams(data)
	sc := &Scenario{Name: "ie", Metric: "f1"}
	sc.Add("initial workflow", StepInitial, p.Build())

	p.Features.Affixes = true
	sc.Add("add prefix/suffix features", StepPrep, p.Build())

	p.Epochs = 5
	sc.Add("train for 5 epochs", StepML, p.Build())

	p.Features.Context = true
	sc.Add("add context-window features", StepPrep, p.Build())

	p.Metric = "precision"
	sc.Add("report precision emphasis", StepEval, p.Build())

	p.Features.Gazetteer = true
	sc.Add("add gazetteer feature", StepPrep, p.Build())

	p.Epochs = 8
	sc.Add("train for 8 epochs", StepML, p.Build())

	p.GazFrac = 0.8
	sc.Add("expand gazetteer coverage", StepPrep, p.Build())

	p.Metric = "recall"
	sc.Add("report recall emphasis", StepEval, p.Build())

	p.Seed = 7
	sc.Add("reshuffle training order", StepML, p.Build())
	return sc
}
