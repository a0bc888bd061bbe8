package data

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Extractor turns each row into exactly one feature, mirroring the paper's
// extractor operators (FieldExtractor, Bucketizer, InteractionFeature).
// Extractors are deterministic; some (Bucketizer) need a Fit pass over the
// training collection first. An extractor caches its column positions (per
// schema) and the feature names it emits, so one instance is not safe for
// concurrent use.
type Extractor interface {
	// Name identifies the extractor (used for signatures and provenance).
	Name() string
	// Fit observes the training collection to learn any statistics
	// (bucket boundaries etc.). Stateless extractors return nil immediately.
	Fit(c *Collection) error
	// Feature returns row i's feature name and value. The extractor keeps
	// the name, so a repeated value returns the same string without
	// allocating.
	Feature(c *Collection, i int) (name string, v float64, err error)
}

// colRef resolves a named column once per schema instead of once per row.
type colRef struct {
	schema *Schema
	idx    int
}

// get returns row i's value of col, with Collection.Get's errors.
func (r *colRef) get(c *Collection, i int, col string) (string, error) {
	if r.schema != c.Schema {
		idx, err := c.Schema.column(col)
		if err != nil {
			return "", err
		}
		r.schema, r.idx = c.Schema, idx
	}
	return c.At(i, r.idx)
}

// FieldExtractor emits one feature per row from a single column: numeric
// columns yield "<col>"=value, categorical columns yield a one-hot
// "<col>=<value>"=1 feature, decided per value.
type FieldExtractor struct {
	Col string
	// Numeric forces numeric interpretation; parse failures become errors
	// instead of falling back to one-hot.
	Numeric bool

	ref colRef
	// oneHot caches "<col>=<value>" by value.
	oneHot map[string]string
}

// Name implements Extractor.
func (f *FieldExtractor) Name() string { return "field(" + f.Col + ")" }

// Fit implements Extractor (stateless).
func (f *FieldExtractor) Fit(*Collection) error { return nil }

// mayParse reports whether strconv.ParseFloat can accept a trimmed cell
// starting with b: a digit, a sign, a point, or the first letter of "inf",
// "infinity" or "nan" in either case. Every other cell is categorical
// without a parse attempt.
func mayParse(b byte) bool {
	switch {
	case b >= '0' && b <= '9':
		return true
	case b == '+' || b == '-' || b == '.' || b == 'i' || b == 'I' || b == 'n' || b == 'N':
		return true
	}
	return false
}

// Feature implements Extractor.
func (f *FieldExtractor) Feature(c *Collection, i int) (string, float64, error) {
	v, err := f.ref.get(c, i, f.Col)
	if err != nil {
		return "", 0, err
	}
	if f.Numeric {
		x, err := ParseFloat(v, f.Col)
		if err != nil {
			return "", 0, err
		}
		return f.Col, x, nil
	}
	name, known := f.oneHot[v]
	if known {
		return name, 1, nil
	}
	if s := strings.TrimSpace(v); s != "" && mayParse(s[0]) {
		if x, err := strconv.ParseFloat(s, 64); err == nil {
			return f.Col, x, nil
		}
	}
	if f.oneHot == nil {
		f.oneHot = make(map[string]string)
	}
	name = f.Col + "=" + v
	f.oneHot[v] = name
	return name, 1, nil
}

// Bucketizer discretizes a numeric column into equi-width bins learned from
// the training collection, emitting a one-hot "<col>_bucket=<k>" feature.
// This is the paper's `Bucketizer(age, bins=10)`.
type Bucketizer struct {
	Col  string
	Bins int

	// Fitted state, exported so a fitted bucketizer survives the codec of
	// the materialization store.
	Lo, Width float64
	Fitted    bool

	ref colRef
	// names[k] is "<col>_bucket=<k>", built on first use.
	names []string
}

// Name implements Extractor.
func (b *Bucketizer) Name() string { return fmt.Sprintf("bucket(%s,%d)", b.Col, b.Bins) }

// Fit learns [min,max] and the bin width.
func (b *Bucketizer) Fit(c *Collection) error {
	if b.Bins <= 0 {
		return fmt.Errorf("data: bucketizer %s: bins must be positive, got %d", b.Col, b.Bins)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range c.Rows {
		v, err := b.ref.get(c, i, b.Col)
		if err != nil {
			return err
		}
		x, err := ParseFloat(v, b.Col)
		if err != nil {
			return err
		}
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	if c.Len() == 0 {
		lo, hi = 0, 1
	}
	b.Lo = lo
	b.Width = (hi - lo) / float64(b.Bins)
	if b.Width == 0 {
		b.Width = 1
	}
	b.Fitted = true
	return nil
}

// Feature implements Extractor. Values outside the fitted range clamp to
// the first/last bucket so test data never errors.
func (b *Bucketizer) Feature(c *Collection, i int) (string, float64, error) {
	if !b.Fitted {
		return "", 0, fmt.Errorf("data: bucketizer %s used before Fit", b.Col)
	}
	v, err := b.ref.get(c, i, b.Col)
	if err != nil {
		return "", 0, err
	}
	x, err := ParseFloat(v, b.Col)
	if err != nil {
		return "", 0, err
	}
	k := int((x - b.Lo) / b.Width)
	if k < 0 {
		k = 0
	}
	if k >= b.Bins {
		k = b.Bins - 1
	}
	if len(b.names) != b.Bins {
		b.names = make([]string, b.Bins)
		for j := range b.names {
			b.names[j] = b.Col + "_bucket=" + strconv.Itoa(j)
		}
	}
	return b.names[k], 1, nil
}

// InteractionFeature crosses the categorical values of several columns into
// a single one-hot feature, e.g. "edu x occ=Bachelors|Sales". This is the
// paper's `InteractionFeature(Array(edu, occ))`.
type InteractionFeature struct {
	Cols []string

	refs []colRef
	// key is a scratch buffer for "v1|v2|..."; names caches the full
	// feature name by that key.
	key   []byte
	names map[string]string
}

// Name implements Extractor.
func (x *InteractionFeature) Name() string { return "cross(" + strings.Join(x.Cols, ",") + ")" }

// Fit implements Extractor (stateless).
func (x *InteractionFeature) Fit(*Collection) error { return nil }

// Feature implements Extractor.
func (x *InteractionFeature) Feature(c *Collection, i int) (string, float64, error) {
	if len(x.Cols) < 2 {
		return "", 0, fmt.Errorf("data: interaction needs >=2 columns, got %d", len(x.Cols))
	}
	if len(x.refs) != len(x.Cols) {
		x.refs = make([]colRef, len(x.Cols))
	}
	x.key = x.key[:0]
	for k, col := range x.Cols {
		v, err := x.refs[k].get(c, i, col)
		if err != nil {
			return "", 0, err
		}
		if k > 0 {
			x.key = append(x.key, '|')
		}
		x.key = append(x.key, v...)
	}
	name, ok := x.names[string(x.key)]
	if !ok {
		if x.names == nil {
			x.names = make(map[string]string)
		}
		name = strings.Join(x.Cols, "x") + "=" + string(x.key)
		x.names[name[len(name)-len(x.key):]] = name
	}
	return name, 1, nil
}

// BinaryLabel reads a column and maps one designated value to label 1,
// everything else to 0 (the census task's ">50K" target).
type BinaryLabel struct {
	Col      string
	Positive string

	ref colRef
}

// ExtractLabel returns the 0/1 label for row i.
func (l *BinaryLabel) ExtractLabel(c *Collection, i int) (float64, error) {
	v, err := l.ref.get(c, i, l.Col)
	if err != nil {
		return 0, err
	}
	if v == l.Positive {
		return 1, nil
	}
	return 0, nil
}

// BuildExamples fits every extractor on the collection and runs them over
// all rows, producing the labeled feature-mapped dataset. A nil label
// produces unlabeled examples. This is the bridge between the
// human-readable pre-processing format and ML (§2.1).
func BuildExamples(c *Collection, extractors []Extractor, label *BinaryLabel) (*ExampleSet, error) {
	for _, ex := range extractors {
		if err := ex.Fit(c); err != nil {
			return nil, fmt.Errorf("data: fit %s: %w", ex.Name(), err)
		}
	}
	return ExtractExamples(c, extractors, label)
}

// ExtractExamples runs already-fitted extractors over the collection without
// refitting — the test-set path, where training statistics (e.g. bucket
// boundaries) must be reused as-is.
func ExtractExamples(c *Collection, extractors []Extractor, label *BinaryLabel) (*ExampleSet, error) {
	set := &ExampleSet{Examples: make([]Example, c.Len())}
	for i := 0; i < c.Len(); i++ {
		fm := make(FeatureMap, len(extractors))
		for _, ex := range extractors {
			name, v, err := ex.Feature(c, i)
			if err != nil {
				return nil, fmt.Errorf("data: extract %s row %d: %w", ex.Name(), i, err)
			}
			fm[name] = v
		}
		set.Examples[i] = Example{Features: fm}
		if label != nil {
			y, err := label.ExtractLabel(c, i)
			if err != nil {
				return nil, err
			}
			set.Examples[i].Label = y
			set.Examples[i].HasLabel = true
		}
	}
	return set, nil
}

// FeatureNames returns the sorted union of feature names in a set — handy in
// tests and for the provenance-based slicing diagnostics.
func FeatureNames(set *ExampleSet) []string {
	seen := make(map[string]bool)
	for _, ex := range set.Examples {
		for n := range ex.Features {
			seen[n] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
