package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/seq"
	"repro/internal/text"
)

// Value types flowing through the IE pipeline. All are registered with the
// store's binary codec (binary.go) so HELIX can materialize any
// intermediate.

// TokenizedCorpus is the corpus after tokenization and sentence splitting.
// Sentences are flattened across documents; PersonsOf[i] lists the gold
// person names of the document sentence i came from.
type TokenizedCorpus struct {
	TrainSents, TestSents     [][]string
	TrainPersons, TestPersons [][]string
}

// LabeledCorpus adds gold BIO tags (train) and gold spans (both halves),
// derived by aligning person-name strings against token sequences — the
// distant-supervision ETL step.
type LabeledCorpus struct {
	TrainSents, TestSents [][]string
	TrainTags             [][]int
	TrainGold, TestGold   [][]seq.Span
}

// GazValue wraps gazetteer entries as a DAG value.
type GazValue struct {
	Entries []string
}

// SeqDataset is the vectorized sequence-learning dataset.
type SeqDataset struct {
	TrainInsts []seq.Instance
	// TestFeats holds per-sentence feature indices for the test half.
	TestFeats [][][]int
	TestGold  [][]seq.Span
	Dim       int
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

// hashDocs fingerprints the corpus for the source signature.
func hashDocs(d NewsData) string {
	h := sha256.New()
	for _, doc := range d.Train {
		fmt.Fprintf(h, "T%d:%s|%s\n", len(doc.Text), doc.Text, strings.Join(doc.Persons, ","))
	}
	for _, doc := range d.Test {
		fmt.Fprintf(h, "E%d:%s|%s\n", len(doc.Text), doc.Text, strings.Join(doc.Persons, ","))
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

// tokenizeDocs splits documents into per-sentence token lists, replicating
// each document's person list onto its sentences.
func tokenizeDocs(docs []Document) (sents [][]string, persons [][]string) {
	for _, doc := range docs {
		toks := text.Tokenize(doc.Text)
		for _, sent := range text.SplitSentences(toks) {
			words := make([]string, len(sent.Tokens))
			for i, tk := range sent.Tokens {
				words[i] = tk.Text
			}
			sents = append(sents, words)
			persons = append(persons, doc.Persons)
		}
	}
	return sents, persons
}

// alignPersons finds token spans matching any "First Last" person string.
func alignPersons(sent []string, persons []string) []seq.Span {
	var spans []seq.Span
	used := make([]bool, len(sent))
	for _, p := range persons {
		parts := strings.Fields(p)
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
				spans = append(spans, seq.Span{Start: i, End: i + len(parts)})
				for j := i; j < i+len(parts); j++ {
					used[j] = true
				}
			}
		}
	}
	// Sort by start for stable downstream comparison.
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0 && spans[j].Start < spans[j-1].Start; j-- {
			spans[j], spans[j-1] = spans[j-1], spans[j]
		}
	}
	return spans
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
			trS, trP := tokenizeDocs(nd.Train)
			teS, teP := tokenizeDocs(nd.Test)
			return TokenizedCorpus{TrainSents: trS, TestSents: teS, TrainPersons: trP, TestPersons: teP}, nil
		}), "corpus")

	wf.Apply("labels", core.NewUDF("alignLabels", core.CatPrep, nil, "v1",
		func(in []any) (any, error) {
			tc, ok := in[0].(TokenizedCorpus)
			if !ok {
				return nil, fmt.Errorf("alignLabels: want TokenizedCorpus, got %T", in[0])
			}
			lc := LabeledCorpus{TrainSents: tc.TrainSents, TestSents: tc.TestSents}
			for i, sent := range tc.TrainSents {
				gold := alignPersons(sent, tc.TrainPersons[i])
				tags, err := seq.TagsFromSpans(gold, len(sent))
				if err != nil {
					return nil, fmt.Errorf("alignLabels: train sentence %d: %w", i, err)
				}
				lc.TrainGold = append(lc.TrainGold, gold)
				lc.TrainTags = append(lc.TrainTags, tags)
			}
			for i, sent := range tc.TestSents {
				lc.TestGold = append(lc.TestGold, alignPersons(sent, tc.TestPersons[i]))
			}
			return lc, nil
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
			gaz := text.NewGazetteer(gv.Entries...)
			dict := seq.NewFeatureDict()
			featurize := func(sent []string) [][]int {
				toks := make([]text.Token, len(sent))
				for i, w := range sent {
					toks[i] = text.Token{Text: w}
				}
				out := make([][]int, len(sent))
				for i := range sent {
					out[i] = dict.Map(text.TokenFeatures(toks, i, cfg, gaz))
				}
				return out
			}
			ds := SeqDataset{TestGold: lc.TestGold}
			for i, sent := range lc.TrainSents {
				ds.TrainInsts = append(ds.TrainInsts, seq.Instance{
					Feats: featurize(sent),
					Tags:  lc.TrainTags[i],
				})
			}
			dict.Freeze()
			for _, sent := range lc.TestSents {
				ds.TestFeats = append(ds.TestFeats, featurize(sent))
			}
			ds.Dim = dict.Len()
			return ds, nil
		}), "labels", "gaz")

	epochs, seed := p.Epochs, p.Seed
	wf.Apply("model", core.NewUDF("seqLearner", core.CatML,
		map[string]string{"epochs": strconv.Itoa(epochs), "seed": strconv.FormatInt(seed, 10)}, "v1",
		func(in []any) (any, error) {
			ds, ok := in[0].(SeqDataset)
			if !ok {
				return nil, fmt.Errorf("seqLearner: want SeqDataset, got %T", in[0])
			}
			return seq.Train(ds.TrainInsts, seq.TrainConfig{Epochs: epochs, Seed: seed, Dim: ds.Dim})
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
			out := PredSpans{Gold: ds.TestGold}
			for _, feats := range ds.TestFeats {
				out.Spans = append(out.Spans, seq.SpansFromTags(m.Decode(feats)))
			}
			return out, nil
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
