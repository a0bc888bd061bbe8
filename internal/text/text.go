// Package text is the NLP substrate for the information-extraction
// application: tokenization, sentence splitting, per-token feature templates
// and a name gazetteer. The paper's IE pipeline runs over news articles with
// "more data pre-processing steps to enable learning" (§3); these operators
// are those steps.
package text

import (
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/seq"
)

// Token is one token with its character offsets in the source text.
type Token struct {
	Text  string
	Start int // byte offset, inclusive
	End   int // byte offset, exclusive
}

// Tokenize splits text into word and punctuation tokens with offsets.
// Contiguous letters/digits form one token; each punctuation rune is its own
// token; whitespace separates. A byte that is not valid UTF-8 is a
// one-byte punctuation token.
func Tokenize(text string) []Token { return AppendTokens(nil, text) }

// AppendTokens appends text's tokens to out, as Tokenize returns them.
func AppendTokens(out []Token, text string) []Token {
	start := -1
	flush := func(end int) {
		if start >= 0 {
			out = append(out, Token{Text: text[start:end], Start: start, End: end})
			start = -1
		}
	}
	for i, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r) || r == '\'':
			if start < 0 {
				start = i
			}
		case unicode.IsSpace(r):
			flush(i)
		default: // punctuation
			flush(i)
			_, n := utf8.DecodeRuneInString(text[i:])
			end := i + n
			out = append(out, Token{Text: text[i:end], Start: i, End: end})
		}
	}
	flush(len(text))
	return out
}

// Sentence is a contiguous token span.
type Sentence struct {
	Tokens []Token
}

// EndsSentence reports whether a token with this text closes its sentence.
func EndsSentence(tok string) bool { return tok == "." || tok == "!" || tok == "?" }

// SplitSentences groups tokens into sentences at ., ! and ? boundaries.
// The terminator stays with its sentence, and the tokens after the last
// terminator form a final sentence.
func SplitSentences(tokens []Token) []Sentence {
	var out []Sentence
	var cur []Token
	for _, t := range tokens {
		cur = append(cur, t)
		if EndsSentence(t.Text) {
			out = append(out, Sentence{Tokens: cur})
			cur = nil
		}
	}
	if len(cur) > 0 {
		out = append(out, Sentence{Tokens: cur})
	}
	return out
}

// Shape returns the orthographic shape of a token: uppercase→X,
// lowercase→x, digit→d, other→p, with runs collapsed ("McDonald" → "XxXx").
func Shape(s string) string { return string(appendShape(nil, s)) }

// appendShape appends s's shape to b.
func appendShape(b []byte, s string) []byte {
	var prev byte
	for _, r := range s {
		var c byte
		switch {
		case unicode.IsUpper(r):
			c = 'X'
		case unicode.IsLower(r):
			c = 'x'
		case unicode.IsDigit(r):
			c = 'd'
		default:
			c = 'p'
		}
		if c != prev {
			b = append(b, c)
			prev = c
		}
	}
	return b
}

// IsCapitalized reports whether the token starts with an uppercase letter.
func IsCapitalized(s string) bool {
	for _, r := range s {
		return unicode.IsUpper(r)
	}
	return false
}

// Gazetteer is a case-sensitive set of known names (first or last), the
// classic external-knowledge feature for person-mention extraction.
type Gazetteer struct {
	entries map[string]bool
}

// NewGazetteer builds a gazetteer from entries.
func NewGazetteer(entries ...string) *Gazetteer {
	g := &Gazetteer{entries: make(map[string]bool, len(entries))}
	for _, e := range entries {
		g.entries[e] = true
	}
	return g
}

// Contains reports membership.
func (g *Gazetteer) Contains(s string) bool { return g.entries[s] }

// Len returns the number of entries.
func (g *Gazetteer) Len() int { return len(g.entries) }

// FeatureConfig selects which token feature templates fire. Each flag is a
// workflow knob the IE iteration script toggles (a "data pre-processing"
// edit in Figure 2's color coding).
type FeatureConfig struct {
	// Lowercased token identity.
	Word bool
	// Orthographic shape (capitalization pattern).
	Shape bool
	// Prefix/suffix up to 3 chars.
	Affixes bool
	// Previous/next token identity.
	Context bool
	// Gazetteer membership (requires Gazetteer non-nil).
	Gazetteer bool
	// Token position features (sentence start).
	Position bool
}

// DefaultFeatures is the initial IE workflow configuration.
func DefaultFeatures() FeatureConfig {
	return FeatureConfig{Word: true, Shape: true, Position: true}
}

// MaxFeatures is the most features one token can fire under the config:
// the bound a caller sizes a feature-id slab by.
func (c FeatureConfig) MaxFeatures() int {
	n := 0
	for _, t := range []struct {
		on    bool
		count int
	}{
		{c.Word, 1},
		{c.Shape, 2}, // shape, cap
		{c.Affixes, 6},
		{c.Context, 2},
		{c.Gazetteer, 1},
		{c.Position, 1},
	} {
		if t.on {
			n += t.count
		}
	}
	return n
}

// TokenFeatures returns the feature names of token i of a sentence under the
// config, in template order. It is the readable statement of the templates:
// Featurizer.AppendIDs emits the ids of exactly these names, in this order,
// without building them as strings.
func TokenFeatures(sent []Token, i int, cfg FeatureConfig, gaz *Gazetteer) []string {
	t := sent[i].Text
	var fs []string
	if cfg.Word {
		fs = append(fs, "w="+strings.ToLower(t))
	}
	if cfg.Shape {
		fs = append(fs, "shape="+Shape(t))
		if IsCapitalized(t) {
			fs = append(fs, "cap")
		}
	}
	if cfg.Affixes {
		lower := strings.ToLower(t)
		for n := 1; n <= 3 && n <= len(lower); n++ {
			fs = append(fs, "pre"+string(rune('0'+n))+"="+lower[:n])
			fs = append(fs, "suf"+string(rune('0'+n))+"="+lower[len(lower)-n:])
		}
	}
	if cfg.Context {
		if i > 0 {
			fs = append(fs, "prev="+strings.ToLower(sent[i-1].Text))
		} else {
			fs = append(fs, "prev=<s>")
		}
		if i+1 < len(sent) {
			fs = append(fs, "next="+strings.ToLower(sent[i+1].Text))
		} else {
			fs = append(fs, "next=</s>")
		}
	}
	if cfg.Gazetteer && gaz != nil && gaz.Contains(t) {
		fs = append(fs, "gaz")
	}
	if cfg.Position && i == 0 {
		fs = append(fs, "sent_start")
	}
	return fs
}

// Featurizer maps tokens to feature ids through a dictionary. It assembles
// each feature name in one reused buffer and looks it up without building a
// string, so a token costs no allocation unless it fires a name the
// dictionary has not seen. It lowercases each distinct word once. A
// Featurizer is not safe for concurrent use.
type Featurizer struct {
	cfg   FeatureConfig
	gaz   *Gazetteer
	dict  *seq.FeatureDict
	lower map[string]string
	name  []byte
}

// NewFeaturizer returns a featurizer that fires cfg's templates against gaz
// (nil for none) and numbers feature names through dict. Once dict is
// frozen, names it does not hold are dropped.
func NewFeaturizer(cfg FeatureConfig, gaz *Gazetteer, dict *seq.FeatureDict) *Featurizer {
	return &Featurizer{cfg: cfg, gaz: gaz, dict: dict, lower: make(map[string]string)}
}

// lowered returns strings.ToLower(w), computed once per distinct w.
func (f *Featurizer) lowered(w string) string {
	l, ok := f.lower[w]
	if !ok {
		l = strings.ToLower(w)
		f.lower[w] = l
	}
	return l
}

// emit appends the id of the name in f.name to dst, unless the frozen
// dictionary does not hold it.
func (f *Featurizer) emit(dst []int32) []int32 {
	if id := f.dict.AddBytes(f.name); id >= 0 {
		dst = append(dst, int32(id))
	}
	return dst
}

// emitPrefixed sets f.name to prefix+s and emits it.
func (f *Featurizer) emitPrefixed(dst []int32, prefix, s string) []int32 {
	f.name = append(append(f.name[:0], prefix...), s...)
	return f.emit(dst)
}

// AppendIDs appends the ids of TokenFeatures(sent, i, ...) to dst, in the
// same order. Shape and affix names are written byte for byte as
// TokenFeatures writes them; affixes slice the lowercased word by bytes.
func (f *Featurizer) AppendIDs(dst []int32, sent []string, i int) []int32 {
	cfg := f.cfg
	t := sent[i]
	var lower string
	if cfg.Word || cfg.Affixes {
		lower = f.lowered(t)
	}
	if cfg.Word {
		dst = f.emitPrefixed(dst, "w=", lower)
	}
	if cfg.Shape {
		f.name = appendShape(append(f.name[:0], "shape="...), t)
		dst = f.emit(dst)
		if IsCapitalized(t) {
			dst = f.emitPrefixed(dst, "cap", "")
		}
	}
	if cfg.Affixes {
		for n := 1; n <= 3 && n <= len(lower); n++ {
			f.name = append(append(f.name[:0], 'p', 'r', 'e', byte('0'+n), '='), lower[:n]...)
			dst = f.emit(dst)
			f.name = append(append(f.name[:0], 's', 'u', 'f', byte('0'+n), '='), lower[len(lower)-n:]...)
			dst = f.emit(dst)
		}
	}
	if cfg.Context {
		if i > 0 {
			dst = f.emitPrefixed(dst, "prev=", f.lowered(sent[i-1]))
		} else {
			dst = f.emitPrefixed(dst, "prev=<s>", "")
		}
		if i+1 < len(sent) {
			dst = f.emitPrefixed(dst, "next=", f.lowered(sent[i+1]))
		} else {
			dst = f.emitPrefixed(dst, "next=</s>", "")
		}
	}
	if cfg.Gazetteer && f.gaz != nil && f.gaz.Contains(t) {
		dst = f.emitPrefixed(dst, "gaz", "")
	}
	if cfg.Position && i == 0 {
		dst = f.emitPrefixed(dst, "sent_start", "")
	}
	return dst
}
