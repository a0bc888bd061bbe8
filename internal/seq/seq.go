// Package seq implements the structured-prediction substrate for the
// information-extraction application: BIO sequence labeling with a
// structured (collins) perceptron and exact Viterbi decoding, plus
// span-level extraction and F1 evaluation. It stands in for the CRF-style
// learner DeepDive brings to the paper's IE task while exercising the same
// workflow shape: token features -> sequence model -> mention spans.
package seq

import (
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

// Instance is one sentence: per-token sparse feature indices and gold tags.
type Instance struct {
	// Feats[i] holds the active feature indices for token i (emission
	// features, already mapped through a dictionary).
	Feats [][]int
	// Tags[i] is the gold BIO tag, empty for unlabeled instances.
	Tags []int
}

// Len returns the number of tokens.
func (in *Instance) Len() int { return len(in.Feats) }

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

// emitScore sums emission weights for tag t over the active features.
func (m *Model) emitScore(feats []int, t int) float64 {
	var s float64
	w := m.Emit[t]
	for _, f := range feats {
		if f >= 0 && f < len(w) {
			s += w[f]
		}
	}
	return s
}

// Decode runs Viterbi, returning the highest-scoring tag sequence under the
// structural constraint that I may only follow B or I (a standard BIO
// validity constraint, enforced with a -inf transition at decode time).
func (m *Model) Decode(feats [][]int) []int {
	n := len(feats)
	if n == 0 {
		return nil
	}
	const negInf = -1e18
	score := make([][NumTags]float64, n)
	back := make([][NumTags]int, n)
	for t := 0; t < NumTags; t++ {
		s := m.Trans[NumTags][t] + m.emitScore(feats[0], t)
		if t == TagI { // I cannot start a sentence
			s = negInf
		}
		score[0][t] = s
	}
	for i := 1; i < n; i++ {
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
			score[i][t] = best + m.emitScore(feats[i], t)
			back[i][t] = bestP
		}
	}
	// Trace back from the best final tag.
	bestT, bestS := 0, score[n-1][0]
	for t := 1; t < NumTags; t++ {
		if score[n-1][t] > bestS {
			bestT, bestS = t, score[n-1][t]
		}
	}
	tags := make([]int, n)
	tags[n-1] = bestT
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

// Train fits a structured perceptron with weight averaging. Each update adds
// the gold feature vector and subtracts the predicted one, for both emission
// and transition weights.
func Train(insts []Instance, cfg TrainConfig) (*Model, error) {
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("seq: dimension must be positive, got %d", cfg.Dim)
	}
	if cfg.Epochs <= 0 {
		return nil, fmt.Errorf("seq: epochs must be positive, got %d", cfg.Epochs)
	}
	if len(insts) == 0 {
		return nil, fmt.Errorf("seq: empty training set")
	}
	for k, in := range insts {
		if len(in.Tags) != len(in.Feats) {
			return nil, fmt.Errorf("seq: instance %d has %d tags for %d tokens", k, len(in.Tags), len(in.Feats))
		}
		for _, t := range in.Tags {
			if t < 0 || t >= NumTags {
				return nil, fmt.Errorf("seq: instance %d has invalid tag %d", k, t)
			}
		}
	}
	m := NewModel(cfg.Dim)
	sum := NewModel(cfg.Dim) // running sum for averaging
	var steps float64 = 1
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int, len(insts))
	for i := range order {
		order[i] = i
	}
	update := func(feats [][]int, tags []int, sign float64) {
		prev := NumTags
		for i, fs := range feats {
			t := tags[i]
			for _, f := range fs {
				if f >= 0 && f < cfg.Dim {
					m.Emit[t][f] += sign
					sum.Emit[t][f] += sign * steps
				}
			}
			m.Trans[prev][t] += sign
			sum.Trans[prev][t] += sign * steps
			prev = t
		}
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, idx := range order {
			in := insts[idx]
			if in.Len() == 0 {
				continue
			}
			pred := m.Decode(in.Feats)
			same := true
			for i := range pred {
				if pred[i] != in.Tags[i] {
					same = false
					break
				}
			}
			if !same {
				update(in.Feats, in.Tags, +1)
				update(in.Feats, pred, -1)
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

// SpansFromTags converts a BIO tag sequence to mention spans. An I without a
// preceding B or I is treated as B (standard lenient decoding).
func SpansFromTags(tags []int) []Span {
	var out []Span
	start := -1
	for i, t := range tags {
		switch t {
		case TagB:
			if start >= 0 {
				out = append(out, Span{start, i})
			}
			start = i
		case TagI:
			if start < 0 {
				start = i
			}
		default:
			if start >= 0 {
				out = append(out, Span{start, i})
				start = -1
			}
		}
	}
	if start >= 0 {
		out = append(out, Span{start, len(tags)})
	}
	return out
}

// TagsFromSpans converts mention spans back to a BIO sequence of length n.
// Overlapping spans are a caller bug and produce an error.
func TagsFromSpans(spans []Span, n int) ([]int, error) {
	tags := make([]int, n)
	for _, s := range spans {
		if s.Start < 0 || s.End > n || s.Start >= s.End {
			return nil, fmt.Errorf("seq: invalid span [%d,%d) for length %d", s.Start, s.End, n)
		}
		for i := s.Start; i < s.End; i++ {
			if tags[i] != TagO {
				return nil, fmt.Errorf("seq: overlapping span at token %d", i)
			}
			if i == s.Start {
				tags[i] = TagB
			} else {
				tags[i] = TagI
			}
		}
	}
	return tags, nil
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

// Freeze stops growth.
func (d *FeatureDict) Freeze() { d.frozen = true }

// Len returns the number of features.
func (d *FeatureDict) Len() int { return len(d.index) }

// Map converts feature strings to indices, dropping unseen-when-frozen.
func (d *FeatureDict) Map(names []string) []int {
	out := make([]int, 0, len(names))
	for _, n := range names {
		if i := d.Add(n); i >= 0 {
			out = append(out, i)
		}
	}
	return out
}
