package workload

import (
	"testing"

	"repro/internal/seq"
	"repro/internal/store"
	"repro/internal/text"
)

// Allocation ceilings for the IE feature operator and the IE decoders,
// measured at two corpus sizes. What they allocate is a fixed handful of
// slabs plus what grows with the vocabulary (dictionary names, lowercased
// words, interned token strings), which the generated news saturates, so
// quadrupling the tokens may add at most maxIEAllocsPerToken allocations
// per added token.
const maxIEAllocsPerToken = 0.01

// ieValues runs the IE operators over a generated corpus of docs training
// documents and a quarter as many test ones under every template.
func ieValues(t testing.TB, docs int) (tokens int, lc LabeledCorpus, gv GazValue, vals []any) {
	t.Helper()
	tc := tokenizeCorpus(GenerateNews(docs, docs/4, 11))
	lc, err := labelCorpus(tc)
	if err != nil {
		t.Fatal(err)
	}
	gv = GazValue{Entries: GazetteerEntries(0.5)}
	ds, err := featurize(lc, gv, configAll)
	if err != nil {
		t.Fatal(err)
	}
	m, err := seq.Train(ds.Train, seq.TrainConfig{Epochs: 1, Seed: 1, Dim: ds.Dim})
	if err != nil {
		t.Fatal(err)
	}
	tokens = len(lc.TrainSents.Vals) + len(lc.TestSents.Vals)
	return tokens, lc, gv, []any{tc, lc, ds, predictSpans(m, ds)}
}

// configAll fires every token feature template.
var configAll = text.FeatureConfig{Word: true, Shape: true, Affixes: true, Context: true, Gazetteer: true, Position: true}

func TestIEAllocCeilings(t *testing.T) {
	type measure struct {
		name string
		f    func()
	}
	measures := func(lc LabeledCorpus, gv GazValue, vals []any) []measure {
		ms := []measure{{"feats", func() {
			if _, err := featurize(lc, gv, configAll); err != nil {
				t.Fatal(err)
			}
		}}}
		for _, v := range vals {
			raw := mustEncode(t, v)
			ms = append(ms, measure{storedName(raw) + " decode", func() {
				if _, err := store.Decode(raw); err != nil {
					t.Fatal(err)
				}
			}})
		}
		return ms
	}
	smallTok, lc, gv, vals := ieValues(t, 200)
	small := measures(lc, gv, vals)
	largeTok, lc, gv, vals := ieValues(t, 800)
	large := measures(lc, gv, vals)
	for i := range small {
		a := testing.AllocsPerRun(3, small[i].f)
		b := testing.AllocsPerRun(3, large[i].f)
		perToken := (b - a) / float64(largeTok-smallTok)
		t.Logf("%s: %.0f allocs at %d tokens, %.0f at %d (%.4f per added token)", small[i].name, a, smallTok, b, largeTok, perToken)
		if perToken >= maxIEAllocsPerToken {
			t.Errorf("%s: %.0f allocs at %d tokens, %.0f at %d: %.3f per added token, ceiling %.2f",
				small[i].name, a, smallTok, b, largeTok, perToken, maxIEAllocsPerToken)
		}
	}
}
