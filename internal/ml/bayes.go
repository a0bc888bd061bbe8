package ml

import (
	"fmt"
	"math"

	"repro/internal/data"
)

// NaiveBayes is a multinomial naive Bayes classifier over non-negative
// sparse features — the cheap probabilistic baseline the DSL's Learner
// operator offers alongside the linear models. Exported fields for the
// store's codec.
type NaiveBayes struct {
	// LogPrior[c] is log P(class c), c in {0, 1}.
	LogPrior [2]float64
	// LogLik[c][j] is log P(feature j | class c), Laplace-smoothed.
	LogLik [2][]float64
	// Dim is the feature-space size.
	Dim int
}

// TrainNaiveBayes fits the classifier. Labels must be 0/1; negative feature
// values are rejected (multinomial NB requires counts/weights >= 0).
func TrainNaiveBayes(train []data.Labeled, dim int) (*NaiveBayes, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("ml: dimension must be positive, got %d", dim)
	}
	if len(train) == 0 {
		return nil, fmt.Errorf("ml: empty training set")
	}
	var counts [2][]float64
	counts[0] = make([]float64, dim)
	counts[1] = make([]float64, dim)
	var classN [2]float64
	var classTotal [2]float64
	for _, ex := range train {
		c := 0
		if ex.Y == 1 {
			c = 1
		}
		classN[c]++
		for k, j := range ex.X.Indices {
			v := ex.X.Values[k]
			if v < 0 {
				return nil, fmt.Errorf("ml: naive bayes requires non-negative features, got %v at index %d", v, j)
			}
			if j < dim {
				counts[c][j] += v
				classTotal[c] += v
			}
		}
	}
	nb := &NaiveBayes{Dim: dim}
	n := float64(len(train))
	for c := 0; c < 2; c++ {
		// Laplace smoothing on both prior and likelihood.
		nb.LogPrior[c] = math.Log((classN[c] + 1) / (n + 2))
		nb.LogLik[c] = make([]float64, dim)
		denom := classTotal[c] + float64(dim)
		for j := 0; j < dim; j++ {
			nb.LogLik[c][j] = math.Log((counts[c][j] + 1) / denom)
		}
	}
	return nb, nil
}

// Score implements Model: the log-odds log P(1|x) - log P(0|x).
func (nb *NaiveBayes) Score(x data.Vector) float64 {
	s := nb.LogPrior[1] - nb.LogPrior[0]
	for k, j := range x.Indices {
		if j < nb.Dim {
			s += x.Values[k] * (nb.LogLik[1][j] - nb.LogLik[0][j])
		}
	}
	return s
}

// Predict implements Model.
func (nb *NaiveBayes) Predict(x data.Vector) float64 {
	if nb.Score(x) > 0 {
		return 1
	}
	return 0
}
