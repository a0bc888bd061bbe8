// Package seq implements the structured-prediction substrate for the
// information-extraction application: BIO sequence labeling with a
// structured (collins) perceptron and exact Viterbi decoding, plus
// span-level extraction and F1 evaluation. It stands in for the CRF-style
// learner DeepDive brings to the paper's IE task while exercising the same
// workflow shape: token features -> sequence model -> mention spans.
package seq

import (
	"bytes"
	"fmt"
	"math/rand"
)

// BIO tag indices. O = outside, B = mention begins, I = mention continues.
const (
	TagO = 0
	TagB = 1
	TagI = 2
	// NumTags is the size of the tag set.
	NumTags = 3
)

// TagName returns the canonical string for a tag index.
func TagName(t int) string {
	switch t {
	case TagO:
		return "O"
	case TagB:
		return "B"
	case TagI:
		return "I"
	default:
		return fmt.Sprintf("T%d", t)
	}
}

// Corpus is a batch of sentences in CSR form, one pointer-free slab per
// level: sentence s is tokens Sent[s] to Sent[s+1], token k fires the
// feature ids ID[Tok[k]:Tok[k+1]], and Tags[k] is token k's gold tag. An
// unlabeled corpus has no Tags.
type Corpus struct {
	Sent []int32
	Tok  []int32
	ID   []int32
	Tags []uint8
}

// Len returns the number of sentences.
func (c *Corpus) Len() int { return max(len(c.Sent)-1, 0) }

// Tokens returns the number of tokens.
func (c *Corpus) Tokens() int { return max(len(c.Tok)-1, 0) }

// Validate checks the layout: each offset slab starts at 0, never
// decreases and ends at the length of the slab it indexes (an empty slab
// may have no offsets at all), every id lies in [0, dim), and tags, if
// any, are one per token and below NumTags.
func (c *Corpus) Validate(dim int) error {
	if err := checkOffsets(c.Sent, c.Tokens()); err != nil {
		return fmt.Errorf("seq: sentence offsets: %w", err)
	}
	if err := checkOffsets(c.Tok, len(c.ID)); err != nil {
		return fmt.Errorf("seq: token offsets: %w", err)
	}
	for _, id := range c.ID {
		if id < 0 || int(id) >= dim {
			return fmt.Errorf("seq: feature id %d outside [0, %d)", id, dim)
		}
	}
	if c.Tags == nil {
		return nil
	}
	if len(c.Tags) != c.Tokens() {
		return fmt.Errorf("seq: %d tags for %d tokens", len(c.Tags), c.Tokens())
	}
	for _, t := range c.Tags {
		if t >= NumTags {
			return fmt.Errorf("seq: invalid tag %d", t)
		}
	}
	return nil
}

// checkOffsets reports whether off indexes a slab of n elements.
func checkOffsets(off []int32, n int) error {
	if len(off) == 0 {
		if n != 0 {
			return fmt.Errorf("no offsets for %d elements", n)
		}
		return nil
	}
	if off[0] != 0 {
		return fmt.Errorf("first offset is %d", off[0])
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("offset %d decreases", i)
		}
	}
	if int(off[len(off)-1]) != n {
		return fmt.Errorf("offsets end at %d, slab holds %d", off[len(off)-1], n)
	}
	return nil
}

// Model is a linear sequence model: per-tag emission weights over the
// feature space plus a tag-transition matrix. Exported fields for the
// store's codec.
type Model struct {
	// Emit[tag] is a dense weight vector over feature indices.
	Emit [NumTags][]float64
	// Trans[from][to] scores tag bigrams; index NumTags is the start state.
	Trans [NumTags + 1][NumTags]float64
	// Dim is the emission feature-space size.
	Dim int
}

// NewModel allocates a zero model over dim features.
func NewModel(dim int) *Model {
	m := &Model{Dim: dim}
	for t := 0; t < NumTags; t++ {
		m.Emit[t] = make([]float64, dim)
	}
	return m
}

// emitScores sums each tag's emission weights over the active features in
// one pass, each tag in feature order. Features outside a tag's weights
// are skipped.
func (m *Model) emitScores(ids []int32) (e [NumTags]float64) {
	w0, w1, w2 := m.Emit[TagO], m.Emit[TagB], m.Emit[TagI]
	for _, f := range ids {
		if uint(f) < uint(len(w0)) {
			e[TagO] += w0[f]
		}
		if uint(f) < uint(len(w1)) {
			e[TagB] += w1[f]
		}
		if uint(f) < uint(len(w2)) {
			e[TagI] += w2[f]
		}
	}
	return e
}

// Decoder is Viterbi scratch, reused across sentences so decoding
// allocates only when a sentence is longer than any before it. The zero
// value is ready to use; a Decoder is not safe for concurrent use.
type Decoder struct {
	score [][NumTags]float64
	back  [][NumTags]uint8
	tags  []uint8
}

// Decode runs Viterbi over sentence s of c, returning the highest-scoring
// tag sequence under the structural constraint that I may only follow B or
// I (a standard BIO validity constraint, enforced with a -inf transition at
// decode time). The result is d's scratch, valid until the next call.
func (d *Decoder) Decode(m *Model, c *Corpus, s int) []uint8 {
	lo, hi := int(c.Sent[s]), int(c.Sent[s+1])
	n := hi - lo
	if n > len(d.tags) {
		d.score = make([][NumTags]float64, n)
		d.back = make([][NumTags]uint8, n)
		d.tags = make([]uint8, n)
	}
	if n == 0 {
		return d.tags[:0]
	}
	score, back, tags := d.score[:n], d.back[:n], d.tags[:n]
	const negInf = -1e18
	e := m.emitScores(c.ID[c.Tok[lo]:c.Tok[lo+1]])
	for t := 0; t < NumTags; t++ {
		score[0][t] = m.Trans[NumTags][t] + e[t]
	}
	score[0][TagI] = negInf // I cannot start a sentence
	for i := 1; i < n; i++ {
		e := m.emitScores(c.ID[c.Tok[lo+i]:c.Tok[lo+i+1]])
		for t := 0; t < NumTags; t++ {
			best, bestP := negInf, 0
			for p := 0; p < NumTags; p++ {
				if t == TagI && p == TagO { // O -> I invalid
					continue
				}
				if s := score[i-1][p] + m.Trans[p][t]; s > best {
					best, bestP = s, p
				}
			}
			score[i][t] = best + e[t]
			back[i][t] = uint8(bestP)
		}
	}
	// Trace back from the best final tag.
	bestT, bestS := 0, score[n-1][0]
	for t := 1; t < NumTags; t++ {
		if score[n-1][t] > bestS {
			bestT, bestS = t, score[n-1][t]
		}
	}
	tags[n-1] = uint8(bestT)
	for i := n - 1; i > 0; i-- {
		tags[i-1] = back[i][tags[i]]
	}
	return tags
}

// TrainConfig parameterizes structured-perceptron training.
type TrainConfig struct {
	Epochs int
	Seed   int64
	Dim    int
}

// Train fits a structured perceptron with weight averaging over a labeled
// corpus. Each update adds the gold feature vector and subtracts the
// predicted one, for both emission and transition weights.
func Train(c Corpus, cfg TrainConfig) (*Model, error) {
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("seq: dimension must be positive, got %d", cfg.Dim)
	}
	if cfg.Epochs <= 0 {
		return nil, fmt.Errorf("seq: epochs must be positive, got %d", cfg.Epochs)
	}
	if c.Len() == 0 {
		return nil, fmt.Errorf("seq: empty training set")
	}
	if err := c.Validate(cfg.Dim); err != nil {
		return nil, err
	}
	if c.Tags == nil && c.Tokens() > 0 {
		return nil, fmt.Errorf("seq: training corpus has no tags")
	}
	m := NewModel(cfg.Dim)
	sum := NewModel(cfg.Dim) // running sum for averaging
	var steps float64 = 1
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int, c.Len())
	for i := range order {
		order[i] = i
	}
	// update adds sign to every weight that tags fire, tags[i] being the
	// tag of token lo+i.
	update := func(lo int, tags []uint8, sign float64) {
		prev := NumTags
		for i, t := range tags {
			k := lo + i
			for _, f := range c.ID[c.Tok[k]:c.Tok[k+1]] {
				m.Emit[t][f] += sign
				sum.Emit[t][f] += sign * steps
			}
			m.Trans[prev][t] += sign
			sum.Trans[prev][t] += sign * steps
			prev = int(t)
		}
	}
	var dec Decoder
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, s := range order {
			lo, hi := int(c.Sent[s]), int(c.Sent[s+1])
			if lo == hi {
				continue
			}
			pred := dec.Decode(m, &c, s)
			if gold := c.Tags[lo:hi]; !bytes.Equal(pred, gold) {
				update(lo, gold, +1)
				update(lo, pred, -1)
			}
			steps++
		}
	}
	// Average: w_avg = w - sum/steps.
	for t := 0; t < NumTags; t++ {
		for f := 0; f < cfg.Dim; f++ {
			m.Emit[t][f] -= sum.Emit[t][f] / steps
		}
	}
	for p := 0; p <= NumTags; p++ {
		for t := 0; t < NumTags; t++ {
			m.Trans[p][t] -= sum.Trans[p][t] / steps
		}
	}
	return m, nil
}

// Span is a half-open token range [Start, End) tagged as a mention.
type Span struct {
	Start, End int
}

// SpansFromTags appends the mention spans of a BIO tag sequence to dst. An
// I without a preceding B or I is treated as B (standard lenient decoding).
func SpansFromTags(dst []Span, tags []uint8) []Span {
	start := -1
	for i, t := range tags {
		switch t {
		case TagB:
			if start >= 0 {
				dst = append(dst, Span{start, i})
			}
			start = i
		case TagI:
			if start < 0 {
				start = i
			}
		default:
			if start >= 0 {
				dst = append(dst, Span{start, i})
				start = -1
			}
		}
	}
	if start >= 0 {
		dst = append(dst, Span{start, len(tags)})
	}
	return dst
}

// TagsFromSpans writes the BIO tags of mention spans over tags, which must
// be all TagO. Spans outside tags or overlapping each other are a caller
// bug and produce an error.
func TagsFromSpans(tags []uint8, spans []Span) error {
	n := len(tags)
	for _, s := range spans {
		if s.Start < 0 || s.End > n || s.Start >= s.End {
			return fmt.Errorf("seq: invalid span [%d,%d) for length %d", s.Start, s.End, n)
		}
		for i := s.Start; i < s.End; i++ {
			if tags[i] != TagO {
				return fmt.Errorf("seq: overlapping span at token %d", i)
			}
			if i == s.Start {
				tags[i] = TagB
			} else {
				tags[i] = TagI
			}
		}
	}
	return nil
}

// SpanF1 computes exact-match span precision/recall/F1 over a corpus:
// gold[i] and pred[i] are the spans of sentence i.
func SpanF1(gold, pred [][]Span) (precision, recall, f1 float64, err error) {
	if len(gold) != len(pred) {
		return 0, 0, 0, fmt.Errorf("seq: %d gold sentences vs %d predicted", len(gold), len(pred))
	}
	var tp, fp, fn int
	for i := range gold {
		gset := make(map[Span]bool, len(gold[i]))
		for _, s := range gold[i] {
			gset[s] = true
		}
		matched := make(map[Span]bool)
		for _, s := range pred[i] {
			if gset[s] && !matched[s] {
				tp++
				matched[s] = true
			} else {
				fp++
			}
		}
		fn += len(gold[i]) - len(matched)
	}
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		recall = float64(tp) / float64(tp+fn)
	}
	if precision+recall > 0 {
		f1 = 2 * precision * recall / (precision + recall)
	}
	return precision, recall, f1, nil
}

// FeatureDict maps feature strings to dense indices for the sequence model;
// a thin, frozen-able dictionary mirroring data.Dictionary but kept local so
// seq has no dependency on the tabular layer.
type FeatureDict struct {
	index  map[string]int
	frozen bool
}

// NewFeatureDict returns an empty dictionary.
func NewFeatureDict() *FeatureDict { return &FeatureDict{index: make(map[string]int)} }

// Add returns the index for name, allocating unless frozen (then -1).
func (d *FeatureDict) Add(name string) int {
	if i, ok := d.index[name]; ok {
		return i
	}
	if d.frozen {
		return -1
	}
	i := len(d.index)
	d.index[name] = i
	return i
}

// AddBytes is Add for a name held in a byte slice. Looking up a known name
// does not allocate; only a new name is copied into the dictionary.
func (d *FeatureDict) AddBytes(name []byte) int {
	if i, ok := d.index[string(name)]; ok {
		return i
	}
	if d.frozen {
		return -1
	}
	i := len(d.index)
	d.index[string(name)] = i
	return i
}

// Freeze stops growth.
func (d *FeatureDict) Freeze() { d.frozen = true }

// Len returns the number of features.
func (d *FeatureDict) Len() int { return len(d.index) }
