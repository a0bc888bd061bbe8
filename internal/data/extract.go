package data

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Extractor turns one row into features, mirroring the paper's extractor
// operators (FieldExtractor, Bucketizer, InteractionFeature). Extractors are
// pure and deterministic; some (Bucketizer) need a Fit pass over the
// training collection first.
type Extractor interface {
	// Name identifies the extractor (used for signatures and provenance).
	Name() string
	// Fit observes the training collection to learn any statistics
	// (bucket boundaries etc.). Stateless extractors return nil immediately.
	Fit(c *Collection) error
	// Extract appends this extractor's features for row i into fm.
	Extract(c *Collection, i int, fm FeatureMap) error
}

// FieldExtractor emits one feature per row from a single column: numeric
// columns yield "<col>"=value, categorical columns yield a one-hot
// "<col>=<value>"=1 feature, decided per value.
type FieldExtractor struct {
	Col string
	// Numeric forces numeric interpretation; parse failures become errors
	// instead of falling back to one-hot.
	Numeric bool
}

// Name implements Extractor.
func (f *FieldExtractor) Name() string { return "field(" + f.Col + ")" }

// Fit implements Extractor (stateless).
func (f *FieldExtractor) Fit(*Collection) error { return nil }

// Extract implements Extractor.
func (f *FieldExtractor) Extract(c *Collection, i int, fm FeatureMap) error {
	v, err := c.Get(i, f.Col)
	if err != nil {
		return err
	}
	if f.Numeric {
		x, err := ParseFloat(v, f.Col)
		if err != nil {
			return err
		}
		fm[f.Col] = x
		return nil
	}
	if x, err := ParseFloat(v, f.Col); err == nil {
		fm[f.Col] = x
		return nil
	}
	fm[f.Col+"="+v] = 1
	return nil
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
		v, err := c.Get(i, b.Col)
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

// Extract implements Extractor. Values outside the fitted range clamp to the
// first/last bucket so test data never errors.
func (b *Bucketizer) Extract(c *Collection, i int, fm FeatureMap) error {
	if !b.Fitted {
		return fmt.Errorf("data: bucketizer %s used before Fit", b.Col)
	}
	v, err := c.Get(i, b.Col)
	if err != nil {
		return err
	}
	x, err := ParseFloat(v, b.Col)
	if err != nil {
		return err
	}
	k := int((x - b.Lo) / b.Width)
	if k < 0 {
		k = 0
	}
	if k >= b.Bins {
		k = b.Bins - 1
	}
	fm[fmt.Sprintf("%s_bucket=%d", b.Col, k)] = 1
	return nil
}

// InteractionFeature crosses the categorical values of several columns into
// a single one-hot feature, e.g. "edu x occ=Bachelors|Sales". This is the
// paper's `InteractionFeature(Array(edu, occ))`.
type InteractionFeature struct {
	Cols []string
}

// Name implements Extractor.
func (x *InteractionFeature) Name() string { return "cross(" + strings.Join(x.Cols, ",") + ")" }

// Fit implements Extractor (stateless).
func (x *InteractionFeature) Fit(*Collection) error { return nil }

// Extract implements Extractor.
func (x *InteractionFeature) Extract(c *Collection, i int, fm FeatureMap) error {
	if len(x.Cols) < 2 {
		return fmt.Errorf("data: interaction needs >=2 columns, got %d", len(x.Cols))
	}
	parts := make([]string, len(x.Cols))
	for k, col := range x.Cols {
		v, err := c.Get(i, col)
		if err != nil {
			return err
		}
		parts[k] = v
	}
	fm[strings.Join(x.Cols, "x")+"="+strings.Join(parts, "|")] = 1
	return nil
}

// BinaryLabel reads a column and maps one designated value to label 1,
// everything else to 0 (the census task's ">50K" target).
type BinaryLabel struct {
	Col      string
	Positive string
}

// ExtractLabel returns the 0/1 label for row i.
func (l *BinaryLabel) ExtractLabel(c *Collection, i int) (float64, error) {
	v, err := c.Get(i, l.Col)
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
		fm := make(FeatureMap)
		for _, ex := range extractors {
			if err := ex.Extract(c, i, fm); err != nil {
				return nil, fmt.Errorf("data: extract %s row %d: %w", ex.Name(), i, err)
			}
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
