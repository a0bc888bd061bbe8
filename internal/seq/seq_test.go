package seq

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestTagName(t *testing.T) {
	for tag, want := range map[int]string{TagO: "O", TagB: "B", TagI: "I", 7: "T7"} {
		if got := TagName(tag); got != want {
			t.Errorf("TagName(%d) = %q, want %q", tag, got, want)
		}
	}
}

func TestSpansFromTags(t *testing.T) {
	cases := []struct {
		tags []uint8
		want []Span
	}{
		{[]uint8{TagO, TagB, TagI, TagO}, []Span{{1, 3}}},
		{[]uint8{TagB, TagB}, []Span{{0, 1}, {1, 2}}},
		{[]uint8{TagB, TagI, TagI}, []Span{{0, 3}}},
		{[]uint8{TagO, TagO}, nil},
		{[]uint8{TagI, TagI, TagO}, []Span{{0, 2}}}, // lenient I-start
		{nil, nil},
	}
	for _, tc := range cases {
		if got := SpansFromTags(nil, tc.tags); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("SpansFromTags(%v) = %v, want %v", tc.tags, got, tc.want)
		}
	}
	// Appending keeps what dst held.
	if got := SpansFromTags([]Span{{7, 8}}, []uint8{TagB}); !reflect.DeepEqual(got, []Span{{7, 8}, {0, 1}}) {
		t.Errorf("SpansFromTags onto a prefix = %v", got)
	}
}

func TestTagsFromSpansRoundTrip(t *testing.T) {
	spans := []Span{{1, 3}, {4, 5}}
	tags := make([]uint8, 6)
	if err := TagsFromSpans(tags, spans); err != nil {
		t.Fatal(err)
	}
	want := []uint8{TagO, TagB, TagI, TagO, TagB, TagO}
	if !reflect.DeepEqual(tags, want) {
		t.Errorf("tags = %v, want %v", tags, want)
	}
	back := SpansFromTags(nil, tags)
	if !reflect.DeepEqual(back, spans) {
		t.Errorf("round trip = %v, want %v", back, spans)
	}
}

func TestTagsFromSpansErrors(t *testing.T) {
	if err := TagsFromSpans(make([]uint8, 5), []Span{{2, 1}}); err == nil {
		t.Error("inverted span accepted")
	}
	if err := TagsFromSpans(make([]uint8, 5), []Span{{0, 9}}); err == nil {
		t.Error("out-of-range span accepted")
	}
	if err := TagsFromSpans(make([]uint8, 5), []Span{{0, 3}, {2, 4}}); err == nil {
		t.Error("overlap accepted")
	}
}

func TestSpanF1Perfect(t *testing.T) {
	gold := [][]Span{{{0, 2}}, {{1, 3}, {4, 5}}}
	p, r, f1, err := SpanF1(gold, gold)
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 || r != 1 || f1 != 1 {
		t.Errorf("perfect match: p=%v r=%v f1=%v", p, r, f1)
	}
}

func TestSpanF1Partial(t *testing.T) {
	gold := [][]Span{{{0, 2}, {3, 4}}}
	pred := [][]Span{{{0, 2}, {5, 6}}}
	p, r, f1, err := SpanF1(gold, pred)
	if err != nil {
		t.Fatal(err)
	}
	if p != 0.5 || r != 0.5 || f1 != 0.5 {
		t.Errorf("p=%v r=%v f1=%v, want 0.5 each", p, r, f1)
	}
}

func TestSpanF1Empty(t *testing.T) {
	p, r, f1, err := SpanF1([][]Span{nil}, [][]Span{nil})
	if err != nil || p != 0 || r != 0 || f1 != 0 {
		t.Errorf("empty: p=%v r=%v f1=%v err=%v", p, r, f1, err)
	}
	if _, _, _, err := SpanF1([][]Span{nil}, nil); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestSpanF1DuplicatePredictions(t *testing.T) {
	// The same correct span predicted twice: one TP, one FP.
	gold := [][]Span{{{0, 1}}}
	pred := [][]Span{{{0, 1}, {0, 1}}}
	p, r, _, err := SpanF1(gold, pred)
	if err != nil {
		t.Fatal(err)
	}
	if p != 0.5 || r != 1 {
		t.Errorf("p=%v r=%v, want 0.5, 1", p, r)
	}
}

func TestFeatureDict(t *testing.T) {
	d := NewFeatureDict()
	a := d.Add("x")
	if d.Add("x") != a {
		t.Error("re-add changed index")
	}
	d.Add("y")
	if d.Len() != 2 {
		t.Errorf("Len = %d", d.Len())
	}
	if d.AddBytes([]byte("y")) != 1 || d.AddBytes([]byte("w")) != 2 {
		t.Error("AddBytes disagrees with Add")
	}
	d.Freeze()
	if d.Add("z") != -1 || d.AddBytes([]byte("z")) != -1 {
		t.Error("frozen dict grew")
	}
	if d.AddBytes([]byte("x")) != a || d.Len() != 3 {
		t.Error("frozen dict lost a name")
	}
	name := []byte("x")
	if allocs := testing.AllocsPerRun(10, func() { d.AddBytes(name) }); allocs != 0 {
		t.Errorf("AddBytes of a known name: %v allocs", allocs)
	}
}

// Instance is one sentence in nested form, the shape tests build corpora
// in: Feats[i] holds token i's feature indices, Tags[i] its gold BIO tag
// (empty for unlabeled instances).
type Instance struct {
	Feats [][]int
	Tags  []int
}

// pack lays nested instances out as a corpus; tags are kept only when
// every instance has them.
func pack(insts []Instance) Corpus {
	c := Corpus{Sent: []int32{0}, Tok: []int32{0}}
	labeled := true
	for _, in := range insts {
		for _, fs := range in.Feats {
			for _, f := range fs {
				c.ID = append(c.ID, int32(f))
			}
			c.Tok = append(c.Tok, int32(len(c.ID)))
		}
		c.Sent = append(c.Sent, int32(len(c.Tok)-1))
		labeled = labeled && len(in.Tags) > 0
		for _, tg := range in.Tags {
			c.Tags = append(c.Tags, uint8(tg))
		}
	}
	if !labeled {
		c.Tags = nil
	}
	return c
}

// decode runs Viterbi over one sentence's nested features.
func decode(m *Model, feats [][]int) []uint8 {
	c := pack([]Instance{{Feats: feats}})
	var d Decoder
	return d.Decode(m, &c, 0)
}

func TestDecodeEmpty(t *testing.T) {
	m := NewModel(4)
	if got := decode(m, nil); len(got) != 0 {
		t.Errorf("decode of an empty sentence = %v", got)
	}
}

// A Decoder reused across sentences of different lengths gives what a
// fresh one gives.
func TestDecoderReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dict := NewFeatureDict()
	insts := synthCorpus(40, dict, rng)
	m, err := Train(pack(insts), TrainConfig{Epochs: 2, Seed: 3, Dim: dict.Len()})
	if err != nil {
		t.Fatal(err)
	}
	c := pack(insts)
	var reused Decoder
	for s := c.Len() - 1; s >= 0; s-- {
		got := append([]uint8(nil), reused.Decode(m, &c, s)...)
		if want := decode(m, insts[s].Feats); !reflect.DeepEqual(got, want) {
			t.Fatalf("sentence %d: reused decoder %v, fresh %v", s, got, want)
		}
	}
}

func TestDecodeBIOValidity(t *testing.T) {
	// Even with emission weights pushing hard toward I, decoding never
	// produces an O->I transition or sentence-initial I.
	m := NewModel(1)
	m.Emit[TagI][0] = 100
	m.Emit[TagO][0] = 99 // competitive O
	feats := [][]int{{0}, {0}, {0}}
	tags := decode(m, feats)
	if tags[0] == TagI {
		t.Errorf("sentence-initial I: %v", tags)
	}
	for i := 1; i < len(tags); i++ {
		if tags[i] == TagI && tags[i-1] == TagO {
			t.Errorf("O->I transition at %d: %v", i, tags)
		}
	}
}

// synthCorpus builds sentences where tokens with feature "name" form
// mentions: B if previous token is not a name, I otherwise.
func synthCorpus(n int, dict *FeatureDict, rng *rand.Rand) []Instance {
	nameFeat := dict.Add("name")
	wordFeats := make([]int, 20)
	for i := range wordFeats {
		wordFeats[i] = dict.Add("w" + string(rune('a'+i)))
	}
	insts := make([]Instance, n)
	for k := range insts {
		ln := 3 + rng.Intn(8)
		in := Instance{Feats: make([][]int, ln), Tags: make([]int, ln)}
		prevName := false
		for i := 0; i < ln; i++ {
			isName := rng.Float64() < 0.3
			if isName {
				in.Feats[i] = []int{nameFeat, wordFeats[rng.Intn(len(wordFeats))]}
				if prevName {
					in.Tags[i] = TagI
				} else {
					in.Tags[i] = TagB
				}
			} else {
				in.Feats[i] = []int{wordFeats[rng.Intn(len(wordFeats))]}
				in.Tags[i] = TagO
			}
			prevName = isName
		}
		insts[k] = in
	}
	return insts
}

func TestTrainLearnsSynthetic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dict := NewFeatureDict()
	insts := synthCorpus(200, dict, rng)
	m, err := Train(pack(insts), TrainConfig{Epochs: 5, Seed: 1, Dim: dict.Len()})
	if err != nil {
		t.Fatal(err)
	}
	// Token-level accuracy on held-out data with the same generator.
	test := synthCorpus(50, dict, rng)
	correct, total := 0, 0
	for _, in := range test {
		pred := decode(m, in.Feats)
		for i := range pred {
			if int(pred[i]) == in.Tags[i] {
				correct++
			}
			total++
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.97 {
		t.Errorf("synthetic tagging accuracy = %v, want >= 0.97", acc)
	}
}

func TestTrainValidation(t *testing.T) {
	good := pack([]Instance{{Feats: [][]int{{0}}, Tags: []int{TagO}}})
	if _, err := Train(good, TrainConfig{Epochs: 1, Dim: 1}); err != nil {
		t.Errorf("valid corpus rejected: %v", err)
	}
	if _, err := Train(good, TrainConfig{Epochs: 1, Dim: 0}); err == nil {
		t.Error("dim=0 accepted")
	}
	if _, err := Train(good, TrainConfig{Epochs: 0, Dim: 1}); err == nil {
		t.Error("epochs=0 accepted")
	}
	if _, err := Train(Corpus{}, TrainConfig{Epochs: 1, Dim: 1}); err == nil {
		t.Error("empty corpus accepted")
	}
	for name, c := range map[string]Corpus{
		"tag/token mismatch":   {Sent: []int32{0, 1}, Tok: []int32{0, 1}, ID: []int32{0}, Tags: []uint8{TagO, TagB}},
		"invalid tag":          {Sent: []int32{0, 1}, Tok: []int32{0, 1}, ID: []int32{0}, Tags: []uint8{9}},
		"no tags":              {Sent: []int32{0, 1}, Tok: []int32{0, 1}, ID: []int32{0}},
		"id past dim":          {Sent: []int32{0, 1}, Tok: []int32{0, 1}, ID: []int32{1}, Tags: []uint8{TagO}},
		"negative id":          {Sent: []int32{0, 1}, Tok: []int32{0, 1}, ID: []int32{-1}, Tags: []uint8{TagO}},
		"token offsets short":  {Sent: []int32{0, 1}, Tok: []int32{0, 0}, ID: []int32{0}, Tags: []uint8{TagO}},
		"sentence offsets dip": {Sent: []int32{0, 1, 0, 1}, Tok: []int32{0, 1}, ID: []int32{0}, Tags: []uint8{TagO}},
		"offsets not from 0":   {Sent: []int32{1, 1}, Tok: []int32{0, 1}, ID: []int32{0}, Tags: []uint8{TagO}},
	} {
		if _, err := Train(c, TrainConfig{Epochs: 1, Dim: 1}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestTrainDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dict := NewFeatureDict()
	insts := pack(synthCorpus(30, dict, rng))
	cfg := TrainConfig{Epochs: 3, Seed: 7, Dim: dict.Len()}
	m1, err := Train(insts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(insts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for tg := 0; tg < NumTags; tg++ {
		if !reflect.DeepEqual(m1.Emit[tg], m2.Emit[tg]) {
			t.Fatalf("emission weights differ for tag %d", tg)
		}
	}
	if m1.Trans != m2.Trans {
		t.Error("transition weights differ")
	}
}

// Property: SpansFromTags output spans are disjoint, ordered, in-range.
func TestQuickSpansWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(20)
		tags := make([]uint8, n)
		for i := range tags {
			tags[i] = uint8(r.Intn(NumTags))
		}
		spans := SpansFromTags(nil, tags)
		prevEnd := 0
		for _, s := range spans {
			if s.Start < prevEnd || s.End <= s.Start || s.End > n {
				return false
			}
			prevEnd = s.End
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: decoding always yields BIO-valid sequences for random models.
func TestQuickDecodeValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(6)
		m := NewModel(dim)
		for tg := 0; tg < NumTags; tg++ {
			for f := 0; f < dim; f++ {
				m.Emit[tg][f] = r.NormFloat64() * 10
			}
		}
		for p := 0; p <= NumTags; p++ {
			for tg := 0; tg < NumTags; tg++ {
				m.Trans[p][tg] = r.NormFloat64() * 10
			}
		}
		n := 1 + r.Intn(12)
		feats := make([][]int, n)
		for i := range feats {
			for j := 0; j < r.Intn(4); j++ {
				feats[i] = append(feats[i], r.Intn(dim))
			}
		}
		tags := decode(m, feats)
		if len(tags) != n {
			return false
		}
		if tags[0] == TagI {
			return false
		}
		for i := 1; i < n; i++ {
			if tags[i] == TagI && tags[i-1] == TagO {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
