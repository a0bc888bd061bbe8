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
// kept for workflows that want lazy (at-featurize-time) extraction.
type FittedExtractor struct {
	Ex data.Extractor
}

// FeatureColumn is one extractor's output over every row of both halves —
// the value of the extractor nodes in Figure 1b (age, edu, ageBucket, ...).
// Each extractor node carries real per-row work, so HELIX can reuse
// unchanged columns when a prep edit adds or removes one extractor.
type FeatureColumn struct {
	Train, Test []data.FeatureMap
}

// VecPair is the vectorized dataset: the output of a featurize node
// ("income results_from rows with_labels target"), ML-ready.
type VecPair struct {
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
