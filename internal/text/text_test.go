package text

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/seq"
)

func tokenTexts(ts []Token) []string {
	if len(ts) == 0 {
		return nil
	}
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Text
	}
	return out
}

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Alice met Bob.", []string{"Alice", "met", "Bob", "."}},
		{"", nil},
		{"  spaced   out  ", []string{"spaced", "out"}},
		{"don't stop", []string{"don't", "stop"}},
		{"a,b;c", []string{"a", ",", "b", ";", "c"}},
		{"v2.0 rocks", []string{"v2", ".", "0", "rocks"}},
	}
	for _, tc := range cases {
		got := tokenTexts(Tokenize(tc.in))
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// A byte that is not valid UTF-8 is a one-byte punctuation token: it must
// neither run past the end of the text nor overlap the next token.
func TestTokenizeInvalidUTF8(t *testing.T) {
	cases := []struct {
		in   string
		want []Token
	}{
		{"ab\xff", []Token{{"ab", 0, 2}, {"\xff", 2, 3}}},
		{"\xff", []Token{{"\xff", 0, 1}}},
		{"a \xffbc", []Token{{"a", 0, 1}, {"\xff", 2, 3}, {"bc", 3, 5}}},
		{"\xe2\x82", []Token{{"\xe2", 0, 1}, {"\x82", 1, 2}}},             // truncated 3-byte rune
		{"x\uFFFDy", []Token{{"x", 0, 1}, {"\uFFFD", 1, 4}, {"y", 4, 5}}}, // a real U+FFFD is 3 bytes
	}
	for _, tc := range cases {
		if got := Tokenize(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Tokenize(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestTokenizeOffsets(t *testing.T) {
	in := "Hi, Bob!"
	for _, tok := range Tokenize(in) {
		if in[tok.Start:tok.End] != tok.Text {
			t.Errorf("offset mismatch: %q vs %q", in[tok.Start:tok.End], tok.Text)
		}
	}
}

func TestSplitSentences(t *testing.T) {
	toks := Tokenize("One two. Three! Four")
	sents := SplitSentences(toks)
	if len(sents) != 3 {
		t.Fatalf("sentences = %d, want 3", len(sents))
	}
	if got := tokenTexts(sents[0].Tokens); !reflect.DeepEqual(got, []string{"One", "two", "."}) {
		t.Errorf("sent 0 = %v", got)
	}
	if got := tokenTexts(sents[2].Tokens); !reflect.DeepEqual(got, []string{"Four"}) {
		t.Errorf("trailing sentence = %v", got)
	}
	if got := SplitSentences(nil); len(got) != 0 {
		t.Errorf("empty input gave %v", got)
	}
}

func TestShape(t *testing.T) {
	cases := map[string]string{
		"Alice":    "Xx",
		"McDonald": "XxXx",
		"USA":      "X",
		"abc123":   "xd",
		"3.14":     "dpd",
		"":         "",
	}
	for in, want := range cases {
		if got := Shape(in); got != want {
			t.Errorf("Shape(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestIsCapitalized(t *testing.T) {
	if !IsCapitalized("Bob") || IsCapitalized("bob") || IsCapitalized("") || IsCapitalized("9am") {
		t.Error("IsCapitalized wrong")
	}
}

func TestGazetteer(t *testing.T) {
	g := NewGazetteer("Alice", "Bob")
	if !g.Contains("Alice") || g.Contains("alice") || g.Contains("Eve") {
		t.Error("gazetteer membership wrong")
	}
	if g.Len() != 2 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestTokenFeaturesTemplates(t *testing.T) {
	sent := Tokenize("Alice met Bob")
	gaz := NewGazetteer("Alice")
	cfg := FeatureConfig{Word: true, Shape: true, Affixes: true, Context: true, Gazetteer: true, Position: true}
	fs := TokenFeatures(sent, 0, cfg, gaz)
	has := func(f string) bool {
		for _, x := range fs {
			if x == f {
				return true
			}
		}
		return false
	}
	for _, want := range []string{"w=alice", "shape=Xx", "cap", "pre1=a", "suf3=ice", "prev=<s>", "next=met", "gaz", "sent_start"} {
		if !has(want) {
			t.Errorf("missing feature %q in %v", want, fs)
		}
	}
	// Middle token: no sent_start, prev/next filled.
	fs = TokenFeatures(sent, 1, cfg, gaz)
	if has("sent_start") || !has("prev=alice") || !has("next=bob") {
		t.Errorf("middle token features wrong: %v", fs)
	}
	// Last token: next sentinel.
	fs = TokenFeatures(sent, 2, cfg, gaz)
	if !has("next=</s>") {
		t.Errorf("last token missing </s>: %v", fs)
	}
}

func TestTokenFeaturesMinimalConfig(t *testing.T) {
	sent := Tokenize("Alice")
	fs := TokenFeatures(sent, 0, FeatureConfig{Word: true}, nil)
	if len(fs) != 1 || fs[0] != "w=alice" {
		t.Errorf("minimal config = %v", fs)
	}
	// Gazetteer flag without gazetteer: no panic, no feature.
	fs = TokenFeatures(sent, 0, FeatureConfig{Gazetteer: true}, nil)
	if len(fs) != 0 {
		t.Errorf("gazetteer-without-gaz = %v", fs)
	}
}

// Property: tokenization offsets are monotone, non-overlapping, and each
// token's text matches its span.
func TestQuickTokenizeOffsets(t *testing.T) {
	alphabet := []rune("ab C.!x 9,\uFFFDé")
	f := func(seed int64) bool {
		n := int(seed%97+97)%97 + 1
		rs := make([]rune, n)
		s := seed
		for i := range rs {
			s = s*1103515245 + 12345
			idx := int(s % int64(len(alphabet)))
			if idx < 0 {
				idx = -idx
			}
			rs[i] = alphabet[idx]
		}
		in := string(rs)
		toks := Tokenize(in)
		prevEnd := 0
		for _, tok := range toks {
			if tok.Start < prevEnd || tok.End <= tok.Start {
				return false
			}
			if in[tok.Start:tok.End] != tok.Text {
				return false
			}
			prevEnd = tok.End
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// oracleIDs maps TokenFeatures' names through d one by one, dropping names
// a frozen d does not hold: the string-per-feature path AppendIDs replaces.
func oracleIDs(d *seq.FeatureDict, sent []string, i int, cfg FeatureConfig, gaz *Gazetteer) []int32 {
	toks := make([]Token, len(sent))
	for k, w := range sent {
		toks[k] = Token{Text: w}
	}
	var out []int32
	for _, n := range TokenFeatures(toks, i, cfg, gaz) {
		if id := d.Add(n); id >= 0 {
			out = append(out, int32(id))
		}
	}
	return out
}

// configOf decodes the six template flags from the bits of k.
func configOf(k int) FeatureConfig {
	return FeatureConfig{
		Word: k&1 != 0, Shape: k&2 != 0, Affixes: k&4 != 0,
		Context: k&8 != 0, Gazetteer: k&16 != 0, Position: k&32 != 0,
	}
}

// TestAppendIDsMatchesOracle: under every template combination, a
// Featurizer gives every token the ids the string oracle gives, in order,
// both while the dictionary grows (train) and once it is frozen (test).
// The vocabulary has 1- and 2-byte tokens, gazetteer names, words whose
// lowercase changes byte length so byte-sliced affixes cut a rune, and
// words that occur only in the frozen half.
func TestAppendIDsMatchesOracle(t *testing.T) {
	vocab := []string{"a", "I", "of", "Mc", ".", ",", "Mary", "Smith", "mary", "the", "Merger",
		"İ", "İstanbul", "Ärger", "ärger", "ÄÖÜ", "Σ", "naïve", "9", "3.14", "d'Arc", "\xff"}
	testOnly := []string{"Zed", "zz", "Ωmega", "Unseen"}
	gaz := NewGazetteer("Mary", "Smith", "İstanbul", "Zed")
	sentences := func(rng *rand.Rand, n int, words []string) [][]string {
		out := make([][]string, n)
		for i := range out {
			sent := make([]string, 1+rng.Intn(6)) // includes one-token sentences
			for k := range sent {
				sent[k] = words[rng.Intn(len(words))]
			}
			out[i] = sent
		}
		return out
	}
	for k := 0; k < 64; k++ {
		cfg := configOf(k)
		rng := rand.New(rand.NewSource(int64(k)))
		train := sentences(rng, 30, vocab)
		test := sentences(rng, 15, append(append([]string(nil), vocab...), testOnly...))
		got, want := seq.NewFeatureDict(), seq.NewFeatureDict()
		fz := NewFeaturizer(cfg, gaz, got)
		check := func(half string, sents [][]string) {
			for s, sent := range sents {
				for i := range sent {
					ids := fz.AppendIDs(nil, sent, i)
					exp := oracleIDs(want, sent, i, cfg, gaz)
					if len(ids) > cfg.MaxFeatures() {
						t.Fatalf("%+v: %s sentence %d token %d fires %d ids, bound %d", cfg, half, s, i, len(ids), cfg.MaxFeatures())
					}
					if !reflect.DeepEqual(ids, exp) && len(ids)+len(exp) > 0 {
						t.Fatalf("%+v: %s sentence %d token %d (%q): ids %v, oracle %v", cfg, half, s, i, sent[i], ids, exp)
					}
				}
			}
		}
		check("train", train)
		got.Freeze()
		want.Freeze()
		check("test", test)
		if got.Len() != want.Len() {
			t.Fatalf("%+v: dictionary has %d names, oracle's %d", cfg, got.Len(), want.Len())
		}
	}
}

// Once every name a sentence fires is in the dictionary, featurizing it
// again allocates nothing.
func TestAppendIDsAllocFree(t *testing.T) {
	cfg := configOf(63)
	sent := strings.Fields("Chief executive Mary Smith of Ärger Corp praised the merger .")
	fz := NewFeaturizer(cfg, NewGazetteer("Mary"), seq.NewFeatureDict())
	dst := make([]int32, 0, cfg.MaxFeatures()*len(sent))
	featurize := func() {
		dst = dst[:0]
		for i := range sent {
			dst = fz.AppendIDs(dst, sent, i)
		}
	}
	featurize()
	if allocs := testing.AllocsPerRun(20, featurize); allocs != 0 {
		t.Errorf("featurizing a known sentence: %v allocs", allocs)
	}
}
