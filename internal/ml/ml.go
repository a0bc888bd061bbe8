// Package ml provides the learning substrate HELIX workflows train with:
// linear classifiers over sparse vectors (logistic regression, linear SVM,
// perceptron), naive Bayes, k-means for unsupervised workloads, and the
// evaluation metrics the demo's Metrics tab plots. The paper runs on
// Spark MLlib / JVM libraries; these implementations replace them with
// deterministic, dependency-free equivalents so iteration runtimes are real
// but reproducible.
package ml

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/data"
)

// Model scores examples; every learner in the package produces one.
type Model interface {
	// Score returns a real-valued margin; >0 predicts the positive class.
	Score(x data.Vector) float64
	// Predict maps the score to a 0/1 label.
	Predict(x data.Vector) float64
}

// linearModel is the shared representation: dense weights + bias.
type linearModel struct {
	W []float64
	B float64
}

func (m *linearModel) Score(x data.Vector) float64 { return x.Dot(m.W) + m.B }

func (m *linearModel) Predict(x data.Vector) float64 {
	if m.Score(x) > 0 {
		return 1
	}
	return 0
}

// LinearModel is an exported trained linear classifier. Serialized by the
// materialization store, so fields are exported for its codec.
type LinearModel struct {
	Weights []float64
	Bias    float64
	// Kind records the producing learner ("logreg", "svm", "perceptron").
	Kind string
}

// Score implements Model.
func (m *LinearModel) Score(x data.Vector) float64 { return x.Dot(m.Weights) + m.Bias }

// Predict implements Model.
func (m *LinearModel) Predict(x data.Vector) float64 {
	if m.Score(x) > 0 {
		return 1
	}
	return 0
}

// Sigmoid is the logistic link, exported for probability read-outs.
func Sigmoid(z float64) float64 {
	// Guard against overflow for |z| > ~700.
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// LogisticConfig parameterizes logistic-regression training. The regParam
// field is the workflow knob the paper's ML-iteration edits twiddle
// (`Learner(modelType, regParam=0.1)`).
type LogisticConfig struct {
	// Epochs over the training set.
	Epochs int
	// LearningRate is the initial SGD step size (decayed 1/sqrt(epoch)).
	LearningRate float64
	// RegParam is the L2 regularization strength.
	RegParam float64
	// Seed fixes the shuffle order for reproducibility.
	Seed int64
	// Dim is the feature-space dimension (dictionary length).
	Dim int
}

// DefaultLogistic returns the configuration used by the Census workflow.
func DefaultLogistic(dim int) LogisticConfig {
	return LogisticConfig{Epochs: 5, LearningRate: 0.1, RegParam: 0.1, Seed: 42, Dim: dim}
}

func (c LogisticConfig) validate(n int) error {
	if c.Dim <= 0 {
		return fmt.Errorf("ml: dimension must be positive, got %d", c.Dim)
	}
	if c.Epochs <= 0 {
		return fmt.Errorf("ml: epochs must be positive, got %d", c.Epochs)
	}
	if c.LearningRate <= 0 {
		return fmt.Errorf("ml: learning rate must be positive, got %v", c.LearningRate)
	}
	if c.RegParam < 0 {
		return fmt.Errorf("ml: negative regularization %v", c.RegParam)
	}
	if n == 0 {
		return fmt.Errorf("ml: empty training set")
	}
	return nil
}

// TrainLogistic fits L2-regularized logistic regression with SGD. Labels
// must be 0/1. Deterministic given the config seed.
func TrainLogistic(train []data.Labeled, cfg LogisticConfig) (*LinearModel, error) {
	if err := cfg.validate(len(train)); err != nil {
		return nil, err
	}
	m := &LinearModel{Weights: make([]float64, cfg.Dim), Kind: "logreg"}
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int, len(train))
	for i := range order {
		order[i] = i
	}
	w, b := m.Weights, 0.0
	reg, n := cfg.RegParam, float64(len(train))
	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		lr := cfg.LearningRate / math.Sqrt(float64(epoch))
		for _, idx := range order {
			ex := &train[idx]
			vals := ex.X.Values[:len(ex.X.Indices)]
			p := Sigmoid(ex.X.Dot(w) + b)
			g := p - ex.Y // dLoss/dScore
			for k, i := range ex.X.Indices {
				if i < len(w) {
					// L2 applied per-update, scaled by 1/n to keep the
					// effective penalty epoch-count independent.
					w[i] -= lr * (g*vals[k] + reg*w[i]/n)
				}
			}
			b -= lr * g
		}
	}
	m.Bias = b
	return m, nil
}

// SVMConfig parameterizes linear-SVM training (hinge loss, SGD).
type SVMConfig struct {
	Epochs       int
	LearningRate float64
	RegParam     float64
	Seed         int64
	Dim          int
}

// DefaultSVM returns sensible defaults for the census-scale tasks.
func DefaultSVM(dim int) SVMConfig {
	return SVMConfig{Epochs: 5, LearningRate: 0.1, RegParam: 0.01, Seed: 42, Dim: dim}
}

// TrainSVM fits a linear SVM by SGD on the hinge loss. Labels must be 0/1
// (mapped internally to ±1).
func TrainSVM(train []data.Labeled, cfg SVMConfig) (*LinearModel, error) {
	lc := LogisticConfig{Epochs: cfg.Epochs, LearningRate: cfg.LearningRate, RegParam: cfg.RegParam, Seed: cfg.Seed, Dim: cfg.Dim}
	if err := lc.validate(len(train)); err != nil {
		return nil, err
	}
	m := &LinearModel{Weights: make([]float64, cfg.Dim), Kind: "svm"}
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int, len(train))
	for i := range order {
		order[i] = i
	}
	w, b, reg := m.Weights, 0.0, cfg.RegParam
	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		lr := cfg.LearningRate / math.Sqrt(float64(epoch))
		decay := lr * reg
		for _, idx := range order {
			ex := &train[idx]
			vals := ex.X.Values[:len(ex.X.Indices)]
			y := 2*ex.Y - 1 // ±1
			margin := y * (ex.X.Dot(w) + b)
			if margin < 1 {
				for k, i := range ex.X.Indices {
					if i < len(w) {
						w[i] += lr * (y*vals[k] - reg*w[i])
					}
				}
				b += lr * y
			} else if reg > 0 {
				for _, i := range ex.X.Indices {
					if i < len(w) {
						w[i] -= decay * w[i]
					}
				}
			}
		}
	}
	m.Bias = b
	return m, nil
}

// TrainPerceptron fits an averaged perceptron — the cheap baseline learner
// provided by the DSL's Learner operator for quick iterations.
func TrainPerceptron(train []data.Labeled, epochs int, dim int, seed int64) (*LinearModel, error) {
	cfg := LogisticConfig{Epochs: epochs, LearningRate: 1, RegParam: 0, Seed: seed, Dim: dim}
	if err := cfg.validate(len(train)); err != nil {
		return nil, err
	}
	w := make([]float64, dim)
	wSum := make([]float64, dim)
	var b, bSum float64
	var updates float64 = 1
	rng := rand.New(rand.NewSource(seed))
	order := make([]int, len(train))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, idx := range order {
			ex := &train[idx]
			vals := ex.X.Values[:len(ex.X.Indices)]
			y := 2*ex.Y - 1
			if y*(ex.X.Dot(w)+b) <= 0 {
				uy := updates * y
				for k, i := range ex.X.Indices {
					if i < dim {
						w[i] += y * vals[k]
						wSum[i] += uy * vals[k]
					}
				}
				b += y
				bSum += uy
			}
			updates++
		}
	}
	// Averaging: w_avg = w - wSum/updates.
	avg := make([]float64, dim)
	for i := range w {
		avg[i] = w[i] - wSum[i]/updates
	}
	return &LinearModel{Weights: avg, Bias: b - bSum/updates, Kind: "perceptron"}, nil
}
