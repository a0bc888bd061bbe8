package ml

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/data"
)

// linearlySeparable generates points labeled by sign(w·x + b) with margin.
func linearlySeparable(n, dim int, seed int64) []data.Labeled {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, dim)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	out := make([]data.Labeled, 0, n)
	for len(out) < n {
		x := data.Vector{}
		var dot float64
		for i := 0; i < dim; i++ {
			if rng.Float64() < 0.6 {
				v := rng.NormFloat64()
				x.Indices = append(x.Indices, i)
				x.Values = append(x.Values, v)
				dot += w[i] * v
			}
		}
		if math.Abs(dot) < 0.5 {
			continue // enforce margin
		}
		y := 0.0
		if dot > 0 {
			y = 1
		}
		out = append(out, data.Labeled{X: x, Y: y})
	}
	return out
}

func TestSigmoid(t *testing.T) {
	if got := Sigmoid(0); got != 0.5 {
		t.Errorf("Sigmoid(0) = %v", got)
	}
	if got := Sigmoid(1000); got != 1 {
		t.Errorf("Sigmoid(1000) = %v", got)
	}
	if got := Sigmoid(-1000); got != 0 {
		t.Errorf("Sigmoid(-1000) = %v", got)
	}
	// Symmetry: s(-z) = 1 - s(z).
	for _, z := range []float64{0.1, 2, 5} {
		if d := Sigmoid(-z) - (1 - Sigmoid(z)); math.Abs(d) > 1e-12 {
			t.Errorf("symmetry broken at %v: %v", z, d)
		}
	}
}

func TestTrainLogisticSeparable(t *testing.T) {
	train := linearlySeparable(400, 8, 1)
	cfg := DefaultLogistic(8)
	cfg.Epochs = 20
	m, err := TrainLogistic(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	met, err := Evaluate(m, train)
	if err != nil {
		t.Fatal(err)
	}
	if met.Accuracy < 0.95 {
		t.Errorf("separable accuracy = %v, want >= 0.95", met.Accuracy)
	}
}

func TestTrainLogisticDeterministic(t *testing.T) {
	train := linearlySeparable(100, 5, 2)
	cfg := DefaultLogistic(5)
	m1, err := TrainLogistic(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := TrainLogistic(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1.Weights {
		if m1.Weights[i] != m2.Weights[i] {
			t.Fatalf("weights differ at %d", i)
		}
	}
	if m1.Bias != m2.Bias {
		t.Error("bias differs")
	}
}

func TestTrainLogisticRegularizationShrinksWeights(t *testing.T) {
	train := linearlySeparable(200, 6, 3)
	weak := DefaultLogistic(6)
	weak.RegParam = 0
	strong := DefaultLogistic(6)
	strong.RegParam = 50
	mw, err := TrainLogistic(train, weak)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := TrainLogistic(train, strong)
	if err != nil {
		t.Fatal(err)
	}
	norm := func(w []float64) float64 {
		var s float64
		for _, x := range w {
			s += x * x
		}
		return s
	}
	if norm(ms.Weights) >= norm(mw.Weights) {
		t.Errorf("strong reg norm %v >= weak %v", norm(ms.Weights), norm(mw.Weights))
	}
}

func TestTrainLogisticValidation(t *testing.T) {
	train := linearlySeparable(10, 3, 4)
	for name, cfg := range map[string]LogisticConfig{
		"zero dim":    {Epochs: 1, LearningRate: 0.1, Dim: 0},
		"zero epochs": {Epochs: 0, LearningRate: 0.1, Dim: 3},
		"zero lr":     {Epochs: 1, LearningRate: 0, Dim: 3},
		"neg reg":     {Epochs: 1, LearningRate: 0.1, RegParam: -1, Dim: 3},
	} {
		if _, err := TrainLogistic(train, cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := TrainLogistic(nil, DefaultLogistic(3)); err == nil {
		t.Error("empty training set accepted")
	}
}

func TestTrainSVMSeparable(t *testing.T) {
	train := linearlySeparable(400, 8, 5)
	cfg := DefaultSVM(8)
	cfg.Epochs = 20
	m, err := TrainSVM(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	met, err := Evaluate(m, train)
	if err != nil {
		t.Fatal(err)
	}
	if met.Accuracy < 0.95 {
		t.Errorf("svm separable accuracy = %v", met.Accuracy)
	}
	if m.Kind != "svm" {
		t.Errorf("kind = %q", m.Kind)
	}
}

func TestTrainPerceptronSeparable(t *testing.T) {
	train := linearlySeparable(400, 8, 6)
	m, err := TrainPerceptron(train, 10, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	met, err := Evaluate(m, train)
	if err != nil {
		t.Fatal(err)
	}
	if met.Accuracy < 0.93 {
		t.Errorf("perceptron accuracy = %v", met.Accuracy)
	}
}

func TestConfusionMetrics(t *testing.T) {
	var c Confusion
	// 3 TP, 1 FP, 4 TN, 2 FN
	for i := 0; i < 3; i++ {
		c.Add(1, 1)
	}
	c.Add(0, 1)
	for i := 0; i < 4; i++ {
		c.Add(0, 0)
	}
	for i := 0; i < 2; i++ {
		c.Add(1, 0)
	}
	if got := c.Accuracy(); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("accuracy = %v", got)
	}
	if got := c.Precision(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("precision = %v", got)
	}
	if got := c.Recall(); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("recall = %v", got)
	}
	wantF1 := 2 * 0.75 * 0.6 / 1.35
	if got := c.F1(); math.Abs(got-wantF1) > 1e-12 {
		t.Errorf("f1 = %v, want %v", got, wantF1)
	}
}

func TestConfusionEmpty(t *testing.T) {
	var c Confusion
	if c.Accuracy() != 0 || c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 {
		t.Error("empty confusion should be all zeros")
	}
}

func TestEvaluateEmpty(t *testing.T) {
	if _, err := Evaluate(&LinearModel{Weights: []float64{1}}, nil); err == nil {
		t.Error("empty test set accepted")
	}
}

func TestTrainTestSplit(t *testing.T) {
	all := linearlySeparable(100, 3, 7)
	train, test, err := TrainTestSplit(all, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(train)+len(test) != 100 {
		t.Errorf("split lost examples: %d + %d", len(train), len(test))
	}
	if len(test) != 20 {
		t.Errorf("test size = %d, want 20", len(test))
	}
	// Determinism.
	train2, _, err := TrainTestSplit(all, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(train2) != len(train) {
		t.Error("split not deterministic")
	}
	for _, bad := range []float64{0, 1, -0.5, 1.5} {
		if _, _, err := TrainTestSplit(all, bad); err == nil {
			t.Errorf("testFrac=%v accepted", bad)
		}
	}
	if _, _, err := TrainTestSplit(all[:1], 0.5); err == nil {
		t.Error("degenerate split accepted")
	}
}

func TestMetricsString(t *testing.T) {
	m := Metrics{Accuracy: 0.5, N: 10}
	if got := m.String(); got == "" {
		t.Error("empty string")
	}
}

func TestKMeansTwoClusters(t *testing.T) {
	// Two well-separated blobs on a 2-D space.
	var xs []data.Vector
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 50; i++ {
		xs = append(xs, data.Vector{Indices: []int{0, 1}, Values: []float64{rng.NormFloat64() * 0.1, rng.NormFloat64() * 0.1}})
	}
	for i := 0; i < 50; i++ {
		xs = append(xs, data.Vector{Indices: []int{0, 1}, Values: []float64{10 + rng.NormFloat64()*0.1, 10 + rng.NormFloat64()*0.1}})
	}
	km, err := TrainKMeans(xs, KMeansConfig{K: 2, MaxIters: 50, Seed: 1, Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	// All blob-1 points share a cluster, distinct from blob-2.
	c0 := km.Assign(xs[0])
	for _, x := range xs[:50] {
		if km.Assign(x) != c0 {
			t.Fatal("blob 1 split across clusters")
		}
	}
	if km.Assign(xs[99]) == c0 {
		t.Fatal("blobs merged")
	}
	if in := km.Inertia(xs); in > 10 {
		t.Errorf("inertia = %v, want small", in)
	}
}

func TestKMeansValidation(t *testing.T) {
	xs := []data.Vector{{Indices: []int{0}, Values: []float64{1}}}
	if _, err := TrainKMeans(xs, KMeansConfig{K: 0, MaxIters: 1, Dim: 1}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := TrainKMeans(xs, KMeansConfig{K: 5, MaxIters: 1, Dim: 1, Seed: 1}); err == nil {
		t.Error("n < k accepted")
	}
}

func TestKMeansIdenticalPoints(t *testing.T) {
	xs := make([]data.Vector, 5)
	for i := range xs {
		xs[i] = data.Vector{Indices: []int{0}, Values: []float64{3}}
	}
	km, err := TrainKMeans(xs, KMeansConfig{K: 2, MaxIters: 10, Seed: 1, Dim: 1})
	if err != nil {
		t.Fatal(err)
	}
	if in := km.Inertia(xs); in != 0 {
		t.Errorf("identical points inertia = %v", in)
	}
}

// Property: Evaluate's accuracy equals 1 - (error count)/n for any model and
// data (consistency between confusion counts and metric).
func TestQuickEvaluateConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		test := make([]data.Labeled, n)
		for i := range test {
			test[i] = data.Labeled{
				X: data.Vector{Indices: []int{0}, Values: []float64{r.NormFloat64()}},
				Y: float64(r.Intn(2)),
			}
		}
		m := &LinearModel{Weights: []float64{r.NormFloat64()}, Bias: r.NormFloat64()}
		met, err := Evaluate(m, test)
		if err != nil {
			return false
		}
		errs := 0
		for _, ex := range test {
			if m.Predict(ex.X) != ex.Y {
				errs++
			}
		}
		return math.Abs(met.Accuracy-(1-float64(errs)/float64(n))) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: averaged perceptron never errors on valid input and always
// produces finite weights.
func TestQuickPerceptronFinite(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		train := linearlySeparable(20+r.Intn(50), 4, seed)
		m, err := TrainPerceptron(train, 3, 4, seed)
		if err != nil {
			return false
		}
		for _, w := range m.Weights {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// trainerDigest is a SHA-256 of the bits of a model's weights and bias.
func trainerDigest(m *LinearModel) string {
	h := sha256.New()
	var b [8]byte
	for _, w := range append(append([]float64(nil), m.Weights...), m.Bias) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(w))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainersBitIdentical pins every SGD trainer's weights and bias, bit
// for bit, on a seeded sparse set in which some rows carry an index at or
// beyond Dim (skipped by training). The regularization is strong enough
// that the L2 term is on the scale of the gradient term, so reordering
// either one's floating-point operations moves a digest. The digests were
// captured from the loops that read every field through the config and the
// model.
func TestTrainersBitIdentical(t *testing.T) {
	const dim = 12
	rng := rand.New(rand.NewSource(11))
	train := make([]data.Labeled, 300)
	for i := range train {
		var x data.Vector
		for j := 0; j < dim+3; j++ {
			if rng.Float64() < 0.35 {
				x.Indices = append(x.Indices, j)
				x.Values = append(x.Values, rng.NormFloat64())
			}
		}
		train[i] = data.Labeled{X: x, Y: float64(rng.Intn(2))}
	}
	logreg, err := TrainLogistic(train, LogisticConfig{Epochs: 4, LearningRate: 0.1, RegParam: 60, Seed: 5, Dim: dim})
	if err != nil {
		t.Fatal(err)
	}
	svm, err := TrainSVM(train, SVMConfig{Epochs: 4, LearningRate: 0.1, RegParam: 0.5, Seed: 5, Dim: dim})
	if err != nil {
		t.Fatal(err)
	}
	perc, err := TrainPerceptron(train, 4, dim, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		m    *LinearModel
		want string
	}{
		{"logreg", logreg, "cc6d077489f1d14cede107769a3645b57bca67a756ecd02f2851bb2f82e13da3"},
		{"svm", svm, "b894ba78bb72d1e562074f33c668f4e1644f267387e557a5d341fbc802cb1376"},
		{"perceptron", perc, "7ad383ea67c4c3faaee74696101223456e745bb1fd3a7ab83c71f2bc10d45875"},
	} {
		if got := trainerDigest(c.m); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}
