package core

import (
	"repro/internal/data"
)

// The value types flowing between census-style workflow operators. Each pair
// carries the train and test halves together so every operator downstream of
// the source applies consistently to both (the paper's FileSource declares
// train and test paths in one statement). Each is registered with the store's
// binary codec in binary.go; a type without a registration is never
// materialized.

// TextPair is raw train/test text as produced by a source operator.
type TextPair struct {
	Train, Test string
}

// CollectionPair is parsed train/test rows.
type CollectionPair struct {
	Train, Test *data.Collection
}

// FittedExtractor is a feature extractor fitted on the training collection,
// kept for workflows that want lazy (at-featurize-time) extraction. An
// extractor caches lookups as it runs, so consumers sharing one must not
// call Feature concurrently.
type FittedExtractor struct {
	Ex data.Extractor
}

// FeatureColumn is one extractor's output over every row of both halves —
// the value of the extractor nodes in Figure 1b (age, edu, ageBucket, ...).
// Each extractor node carries real per-row work, so HELIX can reuse
// unchanged columns when a prep edit adds or removes one extractor.
//
// The layout is columnar: the column's distinct feature names once, then
// each half as compressed sparse rows of (name id, value) pairs.
type FeatureColumn struct {
	// Names are the column's feature names in first-seen order (train rows
	// first, then test rows).
	Names       []string
	Train, Test FeatureRows
}

// FeatureRows is one half of a FeatureColumn in CSR form: row i holds the
// features ID[Start[i]:Start[i+1]] (indices into FeatureColumn.Names) with
// values Val[Start[i]:Start[i+1]], ordered by name within the row. Start
// has one entry per row plus a final one equal to len(ID); the zero value
// is zero rows.
type FeatureRows struct {
	Start []int32
	ID    []int32
	Val   []float64
}

// Len returns the number of rows.
func (r FeatureRows) Len() int { return max(len(r.Start)-1, 0) }

// VecPair is the vectorized dataset: the output of a featurize node
// ("income results_from rows with_labels target"), ML-ready.
type VecPair struct {
	// Featurize and the decoder back each half's rows with one index slab
	// and one value slab.
	Train, Test []data.Labeled
	// Dim is the feature-space size (train dictionary length).
	Dim int
	// Names are the dictionary's feature names, index-aligned, kept so
	// post-processing UDFs can report per-feature diagnostics.
	Names []string
}

// Predictions carries model outputs over the test half.
type Predictions struct {
	// Scores are raw margins; Labels are thresholded 0/1 predictions.
	Scores, Labels []float64
	// Gold are the test labels, copied through for evaluation operators.
	Gold []float64
}
