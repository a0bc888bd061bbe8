package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/data"
	"repro/internal/ml"
)

// baseOp carries the boilerplate shared by built-in operators.
type baseOp struct {
	typ    string
	cat    Category
	params map[string]string
	udf    string
}

func (b baseOp) Type() string              { return b.typ }
func (b baseOp) Category() Category        { return b.cat }
func (b baseOp) Params() map[string]string { return b.params }
func (b baseOp) UDFVersion() string        { return b.udf }

func inputErr(op string, want int, got int) error {
	return fmt.Errorf("core: %s expects %d inputs, got %d", op, want, got)
}

func typeErr(op string, pos int, want string, got any) error {
	return fmt.Errorf("core: %s input %d: want %s, got %T", op, pos, want, got)
}

// LiteralSource supplies raw train/test text. Its signature embeds a content
// hash, so replacing the dataset invalidates all downstream results exactly
// like editing an operator would (the paper's FileSource behaves the same
// through file paths + modification tracking).
type LiteralSource struct {
	baseOp
	train, test string
}

// NewLiteralSource builds a source over in-memory text.
func NewLiteralSource(train, test string) *LiteralSource {
	h := sha256.New()
	// The digest takes bytes only, so the text goes through one fixed
	// buffer instead of being copied whole.
	buf := make([]byte, 32<<10)
	for _, s := range [...]string{train, test} {
		h.Write(append(strconv.AppendInt(buf[:0], int64(len(s)), 10), ':'))
		for len(s) > 0 {
			n := copy(buf, s)
			h.Write(buf[:n])
			s = s[n:]
		}
	}
	return &LiteralSource{
		baseOp: baseOp{
			typ:    "source",
			cat:    CatPrep,
			params: map[string]string{"content": hex.EncodeToString(h.Sum(nil))[:16]},
		},
		train: train,
		test:  test,
	}
}

// Supplies reports whether s supplies exactly this train and test text.
func (s *LiteralSource) Supplies(train, test string) bool { return s.train == train && s.test == test }

// Apply implements Operator.
func (s *LiteralSource) Apply(inputs []any) (any, error) {
	if len(inputs) != 0 {
		return nil, inputErr("source", 0, len(inputs))
	}
	return TextPair{Train: s.train, Test: s.test}, nil
}

// CSVScanner parses a TextPair into collections (paper: `data is_read_into
// rows using CSVScanner(...)`).
type CSVScanner struct {
	baseOp
	columns []string
}

// NewCSVScanner builds a scanner over the given column names.
func NewCSVScanner(columns ...string) *CSVScanner {
	return &CSVScanner{
		baseOp: baseOp{
			typ:    "scanner",
			cat:    CatPrep,
			params: map[string]string{"columns": fmt.Sprint(columns)},
		},
		columns: append([]string(nil), columns...),
	}
}

// Apply implements Operator.
func (s *CSVScanner) Apply(inputs []any) (any, error) {
	if len(inputs) != 1 {
		return nil, inputErr("scanner", 1, len(inputs))
	}
	tp, ok := inputs[0].(TextPair)
	if !ok {
		return nil, typeErr("scanner", 0, "TextPair", inputs[0])
	}
	schema, err := data.NewSchema(s.columns...)
	if err != nil {
		return nil, err
	}
	train, err := data.ScanCSV(tp.Train, schema)
	if err != nil {
		return nil, fmt.Errorf("core: scanner train: %w", err)
	}
	test, err := data.ScanCSV(tp.Test, schema)
	if err != nil {
		return nil, fmt.Errorf("core: scanner test: %w", err)
	}
	return CollectionPair{Train: train, Test: test}, nil
}

// extractorOp is the shared Apply for extractor-declaration nodes: build the
// extractor, fit it on the train collection, and run it over every row of
// both halves. The materialized FeatureColumn is what downstream featurize
// consumes, so adding one extractor in a later iteration leaves the others
// reusable.
type extractorOp struct {
	baseOp
	build func() data.Extractor
}

// Apply implements Operator.
func (e *extractorOp) Apply(inputs []any) (any, error) {
	if len(inputs) != 1 {
		return nil, inputErr(e.typ, 1, len(inputs))
	}
	cp, ok := inputs[0].(CollectionPair)
	if !ok {
		return nil, typeErr(e.typ, 0, "CollectionPair", inputs[0])
	}
	ex := e.build()
	if err := ex.Fit(cp.Train); err != nil {
		return nil, err
	}
	b := columnBuilder{ids: make(map[string]int32)}
	train, err := b.extract(e.typ, ex, cp.Train)
	if err != nil {
		return nil, err
	}
	test, err := b.extract(e.typ, ex, cp.Test)
	if err != nil {
		return nil, err
	}
	return FeatureColumn{Names: b.names, Train: train, Test: test}, nil
}

// columnBuilder lays an extractor's rows out as a FeatureColumn. Every row
// holds exactly one feature, whose name is interned into an id on first
// sight, so a row allocates nothing once its name is known.
type columnBuilder struct {
	names []string
	ids   map[string]int32
}

// extract runs ex over every row of c.
func (b *columnBuilder) extract(op string, ex data.Extractor, c *data.Collection) (FeatureRows, error) {
	n := c.Len()
	if n > math.MaxInt32 {
		return FeatureRows{}, fmt.Errorf("core: %s: more than %d features in one column", op, math.MaxInt32)
	}
	rows := FeatureRows{Start: make([]int32, n+1), ID: make([]int32, n), Val: make([]float64, n)}
	for i := 0; i < n; i++ {
		name, v, err := ex.Feature(c, i)
		if err != nil {
			return FeatureRows{}, fmt.Errorf("core: %s row %d: %w", op, i, err)
		}
		id, ok := b.ids[name]
		if !ok {
			id = int32(len(b.names))
			b.ids[name] = id
			b.names = append(b.names, name)
		}
		rows.ID[i], rows.Val[i] = id, v
		rows.Start[i+1] = int32(i + 1)
	}
	return rows, nil
}

// Field declares a FieldExtractor node (paper: `age refers_to
// FieldExtractor("age")`).
func Field(col string) Operator {
	return &extractorOp{
		baseOp: baseOp{typ: "field", cat: CatPrep, params: map[string]string{"col": col}},
		build:  func() data.Extractor { return &data.FieldExtractor{Col: col} },
	}
}

// Bucket declares a Bucketizer node (paper: `ageBucket refers_to
// Bucketizer(age, bins=10)`).
func Bucket(col string, bins int) Operator {
	return &extractorOp{
		baseOp: baseOp{typ: "bucketizer", cat: CatPrep, params: map[string]string{
			"col": col, "bins": strconv.Itoa(bins),
		}},
		build: func() data.Extractor { return &data.Bucketizer{Col: col, Bins: bins} },
	}
}

// Cross declares an InteractionFeature node (paper: `eduXocc refers_to
// InteractionFeature(Array(edu, occ))`).
func Cross(cols ...string) Operator {
	return &extractorOp{
		baseOp: baseOp{typ: "interaction", cat: CatPrep, params: map[string]string{"cols": fmt.Sprint(cols)}},
		build:  func() data.Extractor { return &data.InteractionFeature{Cols: append([]string(nil), cols...)} },
	}
}

// Clean is the data-cleaning ETL stage between scanning and feature
// extraction: it trims and collapses whitespace, canonicalizes categorical
// casing, and imputes missing markers ("?", "") with the column's training-
// set mode. Real census extracts need exactly this pass, and it is the kind
// of expensive, iteration-invariant prep work whose reuse the paper's
// optimizers exist to exploit.
type Clean struct {
	baseOp
}

// NewClean builds the cleaning operator.
func NewClean() *Clean {
	return &Clean{baseOp: baseOp{typ: "clean", cat: CatPrep, params: nil}}
}

// Apply implements Operator.
func (cl *Clean) Apply(inputs []any) (any, error) {
	if len(inputs) != 1 {
		return nil, inputErr("clean", 1, len(inputs))
	}
	cp, ok := inputs[0].(CollectionPair)
	if !ok {
		return nil, typeErr("clean", 0, "CollectionPair", inputs[0])
	}
	// Normalize every cell once, noting the columns that hold a missing
	// marker on either half; only those need a training-set mode.
	ncols := cp.Train.Schema.Len()
	marked := make([]bool, ncols)
	train, test := normalizeSide(cp.Train, marked), normalizeSide(cp.Test, marked)
	for j, m := range marked {
		if !m {
			continue
		}
		counts := make(map[string]int)
		for _, row := range train.Rows {
			if v := row.Fields[j]; !isMissing(v) {
				counts[v]++
			}
		}
		mode, modeN := "", -1
		for v, n := range counts {
			if n > modeN || (n == modeN && v < mode) {
				mode, modeN = v, n
			}
		}
		for _, c := range [...]*data.Collection{train, test} {
			for _, row := range c.Rows {
				if isMissing(row.Fields[j]) {
					row.Fields[j] = mode
				}
			}
		}
	}
	return CollectionPair{Train: train, Test: test}, nil
}

// normalizeSide copies c with every cell normalized into one slab, each row
// a capped window of it, and sets marked[j] for every column j that holds a
// missing marker.
func normalizeSide(c *data.Collection, marked []bool) *data.Collection {
	out := &data.Collection{Schema: c.Schema, Rows: make([]data.Row, len(c.Rows))}
	slab := make([]string, 0, len(c.Rows)*len(marked))
	for i, row := range c.Rows {
		start := len(slab)
		for j, f := range row.Fields {
			v := normalizeField(f)
			if isMissing(v) {
				marked[j] = true
			}
			slab = append(slab, v)
		}
		out.Rows[i] = data.Row{Fields: slab[start:len(slab):len(slab)]}
	}
	return out
}

// normalizeField trims outer whitespace and collapses internal runs. A cell
// that is already normal is returned as is.
func normalizeField(s string) string {
	if isNormalASCII(s) {
		return s
	}
	return strings.Join(strings.Fields(s), " ")
}

// Byte classes for isNormalASCII. Class 0 is a byte that may appear
// anywhere in a normal cell.
const (
	cellSpace    = 1 + iota // a space
	cellAbnormal            // other whitespace, or a non-ASCII byte
)

var cellClass = func() (t [256]uint8) {
	for c := utf8.RuneSelf; c < len(t); c++ {
		t[c] = cellAbnormal
	}
	for _, c := range "\t\n\v\f\r" {
		t[c] = cellAbnormal
	}
	t[' '] = cellSpace
	return t
}()

// isNormalASCII reports whether strings.Fields/Join would return s
// unchanged for a reason cheap to see: s is ASCII, holds no whitespace but
// single spaces, and neither starts nor ends with one.
func isNormalASCII(s string) bool {
	if n := len(s); n > 0 && (s[0] == ' ' || s[n-1] == ' ') {
		return false
	}
	for i := 0; i < len(s); i++ {
		switch cellClass[s[i]] {
		case cellAbnormal:
			return false
		case cellSpace:
			// Not the last byte: s does not end with a space.
			if s[i+1] == ' ' {
				return false
			}
		}
	}
	return true
}

// isMissing recognizes the missing-value markers census extracts use.
func isMissing(s string) bool {
	return s == "" || s == "?" || s == "NA" || s == "N/A"
}

// Featurize merges the extractor feature columns with labels from the row
// collections into the vectorized dataset (paper: `income results_from rows
// with_labels target`). Inputs: CollectionPair followed by one or more
// FeatureColumns.
type Featurize struct {
	baseOp
	labelCol, positive string
}

// NewFeaturize builds the featurize operator with a binary label read from
// labelCol (positive value → 1).
func NewFeaturize(labelCol, positive string) *Featurize {
	return &Featurize{
		baseOp: baseOp{typ: "featurize", cat: CatPrep, params: map[string]string{
			"label": labelCol, "positive": positive,
		}},
		labelCol: labelCol,
		positive: positive,
	}
}

// Apply implements Operator.
func (f *Featurize) Apply(inputs []any) (any, error) {
	if len(inputs) < 2 {
		return nil, fmt.Errorf("core: featurize expects rows + >=1 extractor, got %d inputs", len(inputs))
	}
	cp, ok := inputs[0].(CollectionPair)
	if !ok {
		return nil, typeErr("featurize", 0, "CollectionPair", inputs[0])
	}
	// Each column's names, and each half's rows, taken out of the inputs
	// once so the row loop indexes them in place.
	ncol := len(inputs) - 1
	colNames := make([][]string, ncol)
	trainRows, testRows := make([]FeatureRows, ncol), make([]FeatureRows, ncol)
	for i, in := range inputs[1:] {
		fc, ok := in.(FeatureColumn)
		if !ok {
			return nil, typeErr("featurize", i+1, "FeatureColumn", in)
		}
		colNames[i], trainRows[i], testRows[i] = fc.Names, fc.Train, fc.Test
	}
	label := &data.BinaryLabel{Col: f.labelCol, Positive: f.positive}
	dict := data.NewDictionary()
	// dictIdx[ci][id] is column ci's name id in dict: unresolved until the
	// name is first seen, -1 once the frozen test dictionary dropped it.
	const unresolved = -2
	dictIdx := make([][]int, ncol)
	for ci := range dictIdx {
		dictIdx[ci] = make([]int, len(colNames[ci]))
		for id := range dictIdx[ci] {
			dictIdx[ci][id] = unresolved
		}
	}
	vectorize := func(c *data.Collection, half []FeatureRows) ([]data.Labeled, error) {
		n := c.Len()
		bound := 0
		for ci := range half {
			if half[ci].Len() != n {
				return nil, fmt.Errorf("core: featurize: column %d has %d rows, collection has %d", ci, half[ci].Len(), n)
			}
			bound += len(half[ci].ID)
		}
		// One slab per half; each row is a capped window of it, sorted by
		// dictionary index, and a name two columns emit keeps the later
		// column's value.
		idx := make([]int, 0, bound)
		val := make([]float64, 0, bound)
		out := make([]data.Labeled, n)
		for i := 0; i < n; i++ {
			start := len(idx)
			for ci := range half {
				rows, tbl := &half[ci], dictIdx[ci]
				for k := rows.Start[i]; k < rows.Start[i+1]; k++ {
					id := rows.ID[k]
					d := tbl[id]
					if d == unresolved {
						d = dict.Add(colNames[ci][id])
						tbl[id] = d
					}
					if d >= 0 {
						idx, val = insertFeature(idx, val, start, d, rows.Val[k])
					}
				}
			}
			y, err := label.ExtractLabel(c, i)
			if err != nil {
				return nil, err
			}
			end := len(idx)
			out[i] = data.Labeled{X: data.Vector{Indices: idx[start:end:end], Values: val[start:end:end]}, Y: y}
		}
		return out, nil
	}
	train, err := vectorize(cp.Train, trainRows)
	if err != nil {
		return nil, fmt.Errorf("core: featurize train: %w", err)
	}
	dict.Freeze()
	test, err := vectorize(cp.Test, testRows)
	if err != nil {
		return nil, fmt.Errorf("core: featurize test: %w", err)
	}
	names := make([]string, dict.Len())
	for i := range names {
		n, err := dict.Name(i)
		if err != nil {
			return nil, err
		}
		names[i] = n
	}
	scaleMaxAbs(train, test, dict.Len())
	return VecPair{
		Train: train,
		Test:  test,
		Dim:   dict.Len(),
		Names: names,
	}, nil
}

// insertFeature adds (d, v) to the row occupying idx[start:], keeping it
// sorted by index; an index already present takes the new value. Rows hold
// a handful of features, so insertion is a short shift.
func insertFeature(idx []int, val []float64, start, d int, v float64) ([]int, []float64) {
	k := len(idx)
	for k > start && idx[k-1] > d {
		k--
	}
	if k > start && idx[k-1] == d {
		val[k-1] = v
		return idx, val
	}
	return slices.Insert(idx, k, d), slices.Insert(val, k, v)
}

// scaleMaxAbs divides every feature by its maximum absolute value on the
// training set, bounding features to [-1,1] without destroying sparsity —
// raw numeric columns (age, hours) would otherwise dominate SGD updates.
func scaleMaxAbs(train, test []data.Labeled, dim int) {
	maxAbs := make([]float64, dim)
	for _, ex := range train {
		for k, i := range ex.X.Indices {
			if v := math.Abs(ex.X.Values[k]); i < dim && v > maxAbs[i] {
				maxAbs[i] = v
			}
		}
	}
	scale := func(set []data.Labeled) {
		for _, ex := range set {
			for k, i := range ex.X.Indices {
				if i < dim && maxAbs[i] > 0 {
					ex.X.Values[k] /= maxAbs[i]
				}
			}
		}
	}
	scale(train)
	scale(test)
}

// Learner trains a model on the vectorized dataset (paper: `incPred
// refers_to new Learner(modelType, regParam=0.1)`).
type Learner struct {
	baseOp
	kind     string
	regParam float64
	epochs   int
	lr       float64
	seed     int64
}

// NewLearner builds a learner. kind is "logreg", "svm", "perceptron" or
// "bayes".
func NewLearner(kind string, regParam float64, epochs int) *Learner {
	return &Learner{
		baseOp: baseOp{typ: "learner", cat: CatML, params: map[string]string{
			"kind":     kind,
			"regParam": strconv.FormatFloat(regParam, 'g', -1, 64),
			"epochs":   strconv.Itoa(epochs),
		}},
		kind:     kind,
		regParam: regParam,
		epochs:   epochs,
		lr:       0.1,
		seed:     42,
	}
}

// Apply implements Operator.
func (l *Learner) Apply(inputs []any) (any, error) {
	if len(inputs) != 1 {
		return nil, inputErr("learner", 1, len(inputs))
	}
	vp, ok := inputs[0].(VecPair)
	if !ok {
		return nil, typeErr("learner", 0, "VecPair", inputs[0])
	}
	switch l.kind {
	case "logreg":
		return ml.TrainLogistic(vp.Train, ml.LogisticConfig{
			Epochs: l.epochs, LearningRate: l.lr, RegParam: l.regParam, Seed: l.seed, Dim: vp.Dim,
		})
	case "svm":
		return ml.TrainSVM(vp.Train, ml.SVMConfig{
			Epochs: l.epochs, LearningRate: l.lr, RegParam: l.regParam, Seed: l.seed, Dim: vp.Dim,
		})
	case "perceptron":
		return ml.TrainPerceptron(vp.Train, l.epochs, vp.Dim, l.seed)
	case "bayes":
		return ml.TrainNaiveBayes(vp.Train, vp.Dim)
	default:
		return nil, fmt.Errorf("core: unknown learner kind %q", l.kind)
	}
}

// Clusterer is the unsupervised path of the DSL (§2.1: "both supervised and
// unsupervised learning"): k-means over the vectorized training half,
// reporting cluster assignments for the test half and the inertia metric.
type Clusterer struct {
	baseOp
	k, maxIters int
	seed        int64
}

// ClusterResult is the Clusterer output.
type ClusterResult struct {
	// Model is the fitted k-means model.
	Model *ml.KMeans
	// TestAssign[i] is the cluster of test example i.
	TestAssign []int
	// Inertia is the within-cluster squared distance on the training half.
	Inertia float64
}

// NewClusterer builds a k-means operator.
func NewClusterer(k, maxIters int, seed int64) *Clusterer {
	return &Clusterer{
		baseOp: baseOp{typ: "clusterer", cat: CatML, params: map[string]string{
			"k":     strconv.Itoa(k),
			"iters": strconv.Itoa(maxIters),
			"seed":  strconv.FormatInt(seed, 10),
		}},
		k: k, maxIters: maxIters, seed: seed,
	}
}

// Apply implements Operator.
func (c *Clusterer) Apply(inputs []any) (any, error) {
	if len(inputs) != 1 {
		return nil, inputErr("clusterer", 1, len(inputs))
	}
	vp, ok := inputs[0].(VecPair)
	if !ok {
		return nil, typeErr("clusterer", 0, "VecPair", inputs[0])
	}
	xs := make([]data.Vector, len(vp.Train))
	for i, ex := range vp.Train {
		xs[i] = ex.X
	}
	km, err := ml.TrainKMeans(xs, ml.KMeansConfig{K: c.k, MaxIters: c.maxIters, Seed: c.seed, Dim: vp.Dim})
	if err != nil {
		return nil, err
	}
	res := ClusterResult{Model: km, TestAssign: make([]int, len(vp.Test)), Inertia: km.Inertia(xs)}
	for i, ex := range vp.Test {
		res.TestAssign[i] = km.Assign(ex.X)
	}
	return res, nil
}

// Predict applies a trained model to the test half of the dataset (paper:
// `predictions results_from incPred on income`). Inputs: model, VecPair.
type Predict struct {
	baseOp
}

// NewPredict builds the prediction operator.
func NewPredict() *Predict {
	return &Predict{baseOp: baseOp{typ: "predict", cat: CatML, params: nil}}
}

// Apply implements Operator.
func (p *Predict) Apply(inputs []any) (any, error) {
	if len(inputs) != 2 {
		return nil, inputErr("predict", 2, len(inputs))
	}
	model, ok := inputs[0].(ml.Model)
	if !ok {
		return nil, typeErr("predict", 0, "ml.Model", inputs[0])
	}
	vp, ok := inputs[1].(VecPair)
	if !ok {
		return nil, typeErr("predict", 1, "VecPair", inputs[1])
	}
	out := Predictions{
		Scores: make([]float64, len(vp.Test)),
		Labels: make([]float64, len(vp.Test)),
		Gold:   make([]float64, len(vp.Test)),
	}
	for i, ex := range vp.Test {
		out.Scores[i] = model.Score(ex.X)
		if out.Scores[i] > 0 {
			out.Labels[i] = 1
		}
		out.Gold[i] = ex.Y
	}
	return out, nil
}

// Eval computes metrics from predictions (paper: the `checkResults` Reducer
// with a Scala UDF for checking prediction accuracy). The metric parameter
// models eval-component edits: it selects the headline metric but the full
// metric set is always computed.
type Eval struct {
	baseOp
}

// NewEval builds the evaluation operator; metric ("accuracy", "f1", ...) is
// a signature-visible knob.
func NewEval(metric string) *Eval {
	return &Eval{baseOp: baseOp{typ: "eval", cat: CatEval, params: map[string]string{"metric": metric}}}
}

// Apply implements Operator.
func (e *Eval) Apply(inputs []any) (any, error) {
	if len(inputs) != 1 {
		return nil, inputErr("eval", 1, len(inputs))
	}
	preds, ok := inputs[0].(Predictions)
	if !ok {
		return nil, typeErr("eval", 0, "Predictions", inputs[0])
	}
	if len(preds.Labels) != len(preds.Gold) {
		return nil, fmt.Errorf("core: eval: %d predictions vs %d gold labels", len(preds.Labels), len(preds.Gold))
	}
	if len(preds.Labels) == 0 {
		return nil, fmt.Errorf("core: eval: empty predictions")
	}
	var conf ml.Confusion
	var ll float64
	for i := range preds.Labels {
		conf.Add(preds.Gold[i], preds.Labels[i])
		p := ml.Sigmoid(preds.Scores[i])
		const eps = 1e-12
		if p < eps {
			p = eps
		}
		if p > 1-eps {
			p = 1 - eps
		}
		if preds.Gold[i] == 1 {
			ll -= math.Log(p)
		} else {
			ll -= math.Log(1 - p)
		}
	}
	return ml.Metrics{
		Accuracy:  conf.Accuracy(),
		Precision: conf.Precision(),
		Recall:    conf.Recall(),
		F1:        conf.F1(),
		LogLoss:   ll / float64(len(preds.Labels)),
		N:         len(preds.Labels),
	}, nil
}

// UDF wraps arbitrary user code as an operator — the paper's inline Scala
// UDF mechanism. The version tag must be bumped whenever fn's behaviour
// changes; params participate in the signature like any operator's.
type UDF struct {
	baseOp
	fn func(inputs []any) (any, error)
}

// NewUDF builds a user-defined operator.
func NewUDF(typeName string, cat Category, params map[string]string, version string, fn func(inputs []any) (any, error)) *UDF {
	return &UDF{
		baseOp: baseOp{typ: typeName, cat: cat, params: params, udf: version},
		fn:     fn,
	}
}

// Apply implements Operator.
func (u *UDF) Apply(inputs []any) (any, error) {
	if u.fn == nil {
		return nil, fmt.Errorf("core: UDF %s has no function", u.typ)
	}
	return u.fn(inputs)
}
