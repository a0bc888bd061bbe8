package data

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/codec"
)

func TestSchemaBasics(t *testing.T) {
	s := MustSchema("age", "education", "target")
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Index("education") != 1 {
		t.Errorf("Index(education) = %d", s.Index("education"))
	}
	if s.Index("nope") != -1 {
		t.Errorf("Index(nope) = %d", s.Index("nope"))
	}
	if _, err := NewSchema("a", "a"); err == nil {
		t.Error("duplicate column accepted")
	}
}

func TestCollectionAppendGet(t *testing.T) {
	c := NewCollection(MustSchema("a", "b"))
	if err := c.Append("1", "x"); err != nil {
		t.Fatal(err)
	}
	if err := c.Append("only-one"); err == nil {
		t.Error("arity mismatch accepted")
	}
	v, err := c.Get(0, "b")
	if err != nil || v != "x" {
		t.Errorf("Get = %q, %v", v, err)
	}
	if _, err := c.Get(0, "zz"); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := c.Get(5, "a"); err == nil {
		t.Error("out-of-range row accepted")
	}
}

func TestPartition(t *testing.T) {
	c := NewCollection(MustSchema("a"))
	for i := 0; i < 10; i++ {
		if err := c.Append("v"); err != nil {
			t.Fatal(err)
		}
	}
	parts := c.Partition(3)
	if len(parts) != 3 {
		t.Fatalf("parts = %d", len(parts))
	}
	sizes := []int{parts[0].Len(), parts[1].Len(), parts[2].Len()}
	if sizes[0]+sizes[1]+sizes[2] != 10 {
		t.Errorf("sizes %v don't sum to 10", sizes)
	}
	for _, s := range sizes {
		if s < 3 || s > 4 {
			t.Errorf("unbalanced partition %v", sizes)
		}
	}
	// k <= 0 coerces to 1; k > rows yields empties.
	if got := c.Partition(0); len(got) != 1 || got[0].Len() != 10 {
		t.Errorf("Partition(0) wrong")
	}
	many := c.Partition(20)
	total := 0
	for _, p := range many {
		total += p.Len()
	}
	if total != 10 {
		t.Errorf("Partition(20) lost rows")
	}
}

func TestParseCSVLine(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"a,b,c", []string{"a", "b", "c"}},
		{`"a,b",c`, []string{"a,b", "c"}},
		{`"he said ""hi""",x`, []string{`he said "hi"`, "x"}},
		{"", []string{""}},
		{"a,,c", []string{"a", "", "c"}},
	}
	for _, tc := range cases {
		if got := ParseCSVLine(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseCSVLine(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestScanCSVRoundTrip(t *testing.T) {
	s := MustSchema("name", "note")
	c := NewCollection(s)
	for _, r := range [][]string{{"alice", "plain"}, {"bob", "has,comma"}, {"eve", `has"quote`}} {
		if err := c.Append(r...); err != nil {
			t.Fatal(err)
		}
	}
	back, err := ScanCSV(c.ToCSV(), s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Rows, c.Rows) {
		t.Errorf("round trip mismatch:\n%v\n%v", back.Rows, c.Rows)
	}
}

func TestScanCSVErrors(t *testing.T) {
	s := MustSchema("a", "b")
	if _, err := ScanCSV("1,2\n3\n", s); err == nil {
		t.Error("arity mismatch accepted")
	}
	c, err := ScanCSV("\n\n1,2\n\n", s)
	if err != nil || c.Len() != 1 {
		t.Errorf("blank lines mishandled: %v len=%d", err, c.Len())
	}
}

// Property: ToCSV/ScanCSV round-trips arbitrary printable field content.
func TestQuickCSVRoundTrip(t *testing.T) {
	alphabet := []rune{'a', 'b', ',', '"', ' ', 'x'}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := MustSchema("c1", "c2", "c3")
		c := NewCollection(s)
		for i := 0; i < 1+r.Intn(5); i++ {
			row := make([]string, 3)
			for j := range row {
				var rs []rune
				for k := 0; k < r.Intn(6); k++ {
					rs = append(rs, alphabet[r.Intn(len(alphabet))])
				}
				// Leading/trailing spaces are trimmed by ScanCSV by design;
				// avoid them so equality holds.
				row[j] = string(rs)
				if len(row[j]) > 0 && (row[j][0] == ' ' || row[j][len(row[j])-1] == ' ') {
					row[j] = "x" + row[j] + "x"
				}
			}
			if err := c.Append(row...); err != nil {
				return false
			}
		}
		back, err := ScanCSV(c.ToCSV(), s)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(back.Rows, c.Rows)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestDictionaryVectorize(t *testing.T) {
	d := NewDictionary()
	v := d.Vectorize(FeatureMap{"b": 2, "a": 1})
	if len(v.Indices) != 2 {
		t.Fatalf("nnz = %d", len(v.Indices))
	}
	if !sort.IntsAreSorted(v.Indices) {
		t.Errorf("indices not sorted: %v", v.Indices)
	}
	// Same names reuse indices.
	v2 := d.Vectorize(FeatureMap{"a": 5})
	if v2.Indices[0] != d.Index("a") {
		t.Errorf("index for a changed")
	}
	if d.Len() != 2 {
		t.Errorf("dict len = %d", d.Len())
	}
}

func TestDictionaryFreeze(t *testing.T) {
	d := NewDictionary()
	d.Add("known")
	d.Freeze()
	v := d.Vectorize(FeatureMap{"known": 1, "unseen": 9})
	if len(v.Indices) != 1 {
		t.Errorf("frozen dict kept unseen feature: %v", v.Indices)
	}
	if d.Add("unseen2") != -1 {
		t.Error("frozen dict grew")
	}
	name, err := d.Name(0)
	if err != nil || name != "known" {
		t.Errorf("Name(0) = %q, %v", name, err)
	}
	if _, err := d.Name(5); err == nil {
		t.Error("out-of-range Name accepted")
	}
}

func TestVectorDot(t *testing.T) {
	v := Vector{Indices: []int{0, 2, 7}, Values: []float64{1, 2, 3}}
	w := []float64{10, 0, 5} // index 7 out of range: contributes 0
	if got := v.Dot(w); got != 20 {
		t.Errorf("Dot = %v, want 20", got)
	}
	if got := v.L2(); got != 14 {
		t.Errorf("L2 = %v, want 14", got)
	}
}

// feature runs ex on row i and fails the test on error.
func feature(t *testing.T, ex Extractor, c *Collection, i int) (string, float64) {
	t.Helper()
	name, v, err := ex.Feature(c, i)
	if err != nil {
		t.Fatal(err)
	}
	return name, v
}

func TestFieldExtractor(t *testing.T) {
	c := NewCollection(MustSchema("age", "occ"))
	if err := c.Append("39", "Sales"); err != nil {
		t.Fatal(err)
	}
	if name, v := feature(t, &FieldExtractor{Col: "age"}, c, 0); name != "age" || v != 39 {
		t.Errorf("numeric field: %s=%v", name, v)
	}
	if name, v := feature(t, &FieldExtractor{Col: "occ"}, c, 0); name != "occ=Sales" || v != 1 {
		t.Errorf("categorical field: %s=%v", name, v)
	}
	// Numeric=true on a categorical value errors.
	if _, _, err := (&FieldExtractor{Col: "occ", Numeric: true}).Feature(c, 0); err == nil {
		t.Error("forced-numeric on categorical accepted")
	}
}

func TestBucketizer(t *testing.T) {
	c := NewCollection(MustSchema("age"))
	for _, v := range []string{"0", "25", "50", "75", "100"} {
		if err := c.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	b := &Bucketizer{Col: "age", Bins: 4}
	if err := b.Fit(c); err != nil {
		t.Fatal(err)
	}
	if name, v := feature(t, b, c, 0); name != "age_bucket=0" || v != 1 {
		t.Errorf("min value bucket: %s=%v", name, v)
	}
	if name, v := feature(t, b, c, 4); name != "age_bucket=3" || v != 1 { // max clamps into last bin
		t.Errorf("max value bucket: %s=%v", name, v)
	}
}

func TestBucketizerErrors(t *testing.T) {
	c := NewCollection(MustSchema("age"))
	if err := c.Append("10"); err != nil {
		t.Fatal(err)
	}
	b := &Bucketizer{Col: "age", Bins: 0}
	if err := b.Fit(c); err == nil {
		t.Error("bins=0 accepted")
	}
	b2 := &Bucketizer{Col: "age", Bins: 2}
	if _, _, err := b2.Feature(c, 0); err == nil {
		t.Error("extract before fit accepted")
	}
	// Constant column: width falls back to 1, everything in bucket 0.
	if err := b2.Fit(c); err != nil {
		t.Fatal(err)
	}
	if name, v := feature(t, b2, c, 0); name != "age_bucket=0" || v != 1 {
		t.Errorf("constant column: %s=%v", name, v)
	}
}

func TestInteractionFeature(t *testing.T) {
	c := NewCollection(MustSchema("edu", "occ"))
	if err := c.Append("BS", "Sales"); err != nil {
		t.Fatal(err)
	}
	x := &InteractionFeature{Cols: []string{"edu", "occ"}}
	if name, v := feature(t, x, c, 0); name != "eduxocc=BS|Sales" || v != 1 {
		t.Errorf("interaction: %s=%v", name, v)
	}
	bad := &InteractionFeature{Cols: []string{"edu"}}
	if _, _, err := bad.Feature(c, 0); err == nil {
		t.Error("single-column interaction accepted")
	}
}

func TestBuildExamples(t *testing.T) {
	c := NewCollection(MustSchema("age", "occ", "target"))
	if err := c.Append("30", "Sales", ">50K"); err != nil {
		t.Fatal(err)
	}
	if err := c.Append("20", "Tech", "<=50K"); err != nil {
		t.Fatal(err)
	}
	set, err := BuildExamples(c,
		[]Extractor{&FieldExtractor{Col: "age"}, &FieldExtractor{Col: "occ"}},
		&BinaryLabel{Col: "target", Positive: ">50K"})
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 2 {
		t.Fatalf("len = %d", set.Len())
	}
	if set.Examples[0].Label != 1 || set.Examples[1].Label != 0 {
		t.Errorf("labels: %v %v", set.Examples[0].Label, set.Examples[1].Label)
	}
	if !set.Examples[0].HasLabel {
		t.Error("HasLabel not set")
	}
	names := FeatureNames(set)
	want := []string{"age", "occ=Sales", "occ=Tech"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("feature names = %v, want %v", names, want)
	}
}

func TestBuildExamplesUnlabeled(t *testing.T) {
	c := NewCollection(MustSchema("age"))
	if err := c.Append("30"); err != nil {
		t.Fatal(err)
	}
	set, err := BuildExamples(c, []Extractor{&FieldExtractor{Col: "age"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if set.Examples[0].HasLabel {
		t.Error("unlabeled example has HasLabel")
	}
}

// Property: vectorization through a fitted dictionary preserves every
// feature value exactly (no collisions, no drops).
func TestQuickVectorizePreservesValues(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		set := &ExampleSet{}
		for i := 0; i < 1+r.Intn(10); i++ {
			fm := make(FeatureMap)
			for j := 0; j < r.Intn(8); j++ {
				fm[string(rune('a'+r.Intn(12)))] = float64(r.Intn(100)) / 10
			}
			set.Examples = append(set.Examples, Example{Features: fm})
		}
		d := NewDictionary()
		d.Fit(set)
		for _, ex := range set.Examples {
			v := d.Vectorize(ex.Features)
			if len(v.Indices) != len(ex.Features) {
				return false
			}
			for k, idx := range v.Indices {
				name, err := d.Name(idx)
				if err != nil || ex.Features[name] != v.Values[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// decodeNamed round-trips v through the value codec and returns the decode
// error.
func decodeNamed(t *testing.T, v any) error {
	t.Helper()
	var w codec.Writer
	if err := codec.EncodeValue(&w, v); err != nil {
		t.Fatal(err)
	}
	_, err := codec.DecodeValue(codec.NewReader(w.Bytes()))
	return err
}

// A decoded vector must have non-negative, strictly increasing indices:
// the learners guard only the upper bound.
func TestVectorDecodersRejectBadIndices(t *testing.T) {
	for _, idx := range [][]int{{-1, 2}, {3, 3}, {4, 1}} {
		v := Vector{Indices: idx, Values: []float64{1, 2}}
		if err := decodeNamed(t, v); err == nil {
			t.Errorf("Vector with indices %v decoded", idx)
		}
		if err := decodeNamed(t, Labeled{X: v, Y: 1}); err == nil {
			t.Errorf("Labeled with indices %v decoded", idx)
		}
	}
	if err := decodeNamed(t, Vector{Indices: []int{0, 5}, Values: []float64{1, 2}}); err != nil {
		t.Errorf("valid vector rejected: %v", err)
	}
}

// A decoded collection whose row is shorter or longer than its schema is
// rejected: operators index fields by schema position.
func TestDecodeCollectionRejectsArity(t *testing.T) {
	s := MustSchema("a", "b", "c")
	for _, fields := range [][]string{{"1"}, {"1", "2", "3", "4"}} {
		c := &Collection{Schema: s, Rows: []Row{{Fields: []string{"x", "y", "z"}}, {Fields: fields}}}
		if err := decodeNamed(t, c); err == nil {
			t.Errorf("collection with a %d-field row decoded", len(fields))
		}
	}
}

// Decoded rows share one backing slab, each capped so an append to one row
// cannot overwrite the next.
func TestDecodeCollectionSlab(t *testing.T) {
	c := NewCollection(MustSchema("a", "b"))
	for _, r := range [][]string{{"1", "x"}, {"2", "y"}, {"1", "x"}} {
		if err := c.Append(r...); err != nil {
			t.Fatal(err)
		}
	}
	var w codec.Writer
	if err := codec.EncodeValue(&w, c); err != nil {
		t.Fatal(err)
	}
	v, err := codec.DecodeValue(codec.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got := v.(*Collection)
	if !reflect.DeepEqual(got.Rows, c.Rows) {
		t.Fatalf("rows %v, want %v", got.Rows, c.Rows)
	}
	for i, r := range got.Rows {
		if cap(r.Fields) != len(r.Fields) {
			t.Errorf("row %d not capped", i)
		}
	}
}

// ScanCSV yields the same rows as splitting every line with ParseCSVLine,
// for quoted and unquoted lines alike, and reports arity errors with the
// same line numbers.
func TestScanCSVMatchesParseCSVLine(t *testing.T) {
	s := MustSchema("a", "b", "c")
	text := "1, x ,y\r\n\n\"q,1\",\"say \"\"hi\"\"\" , z\n  \n,,\nlast,row,here"
	got, err := ScanCSV(text, s)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"1", "x", "y"}, {"q,1", `say "hi"`, "z"}, {"", "", ""}, {"last", "row", "here"}}
	if len(got.Rows) != len(want) {
		t.Fatalf("rows %v, want %v", got.Rows, want)
	}
	for i, r := range got.Rows {
		if !reflect.DeepEqual(r.Fields, want[i]) || cap(r.Fields) != len(r.Fields) {
			t.Errorf("row %d = %q (cap %d), want %q", i, r.Fields, cap(r.Fields), want[i])
		}
	}
	for bad, want := range map[string]string{
		"1,2,3\n\n1,2\n":       "data: line 3 has 2 fields, want 3",
		"1,2,3\n\"a,b\",c\n":   "data: line 2 has 2 fields, want 3",
		"1,2,3\r\n1,2,3,4\r\n": "data: line 2 has 4 fields, want 3",
	} {
		if _, err := ScanCSV(bad, s); err == nil || err.Error() != want {
			t.Errorf("ScanCSV(%q) error = %v, want %q", bad, err, want)
		}
	}
}
