// Package workload contains the two applications the paper demonstrates
// (§3): Census income classification and person-mention information
// extraction, both expressed in the core DSL over synthetic datasets, plus
// the scripted iteration sequences (data-prep / ML / eval edits) that drive
// the Figure 2 benchmarks.
//
// Substitution note (see DESIGN.md): the paper uses the UCI Adult dataset
// and real news articles. This package generates deterministic synthetic
// equivalents with the same schema and pipeline shape, sized so per-
// iteration runtimes are large enough for the reuse trade-offs to be real.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/core"
)

// Census column vocabulary, mirroring the UCI Adult schema the paper's
// Figure 1 workflow reads.
var (
	censusColumns = []string{
		"age", "workclass", "education", "marital_status", "occupation",
		"race", "sex", "capital_gain", "capital_loss", "hours_per_week", "target",
	}
	workclasses = []string{"Private", "Self-emp", "Federal-gov", "Local-gov", "State-gov"}
	educations  = []string{"HS-grad", "Some-college", "Bachelors", "Masters", "Doctorate", "Assoc"}
	maritals    = []string{"Married", "Never-married", "Divorced", "Widowed"}
	occupations = []string{"Tech-support", "Sales", "Exec-managerial", "Craft-repair", "Adm-clerical", "Prof-specialty", "Handlers-cleaners"}
	races       = []string{"White", "Black", "Asian-Pac", "Amer-Indian", "Other"}
	sexes       = []string{"Male", "Female"}
)

// CensusData is a generated train/test dataset in CSV form.
type CensusData struct {
	TrainCSV, TestCSV   string
	TrainRows, TestRows int
	// src is GenerateCensus's source over the text, hashed once.
	src *core.LiteralSource
}

// GenerateCensus produces a deterministic synthetic census dataset. The
// planted income rule combines education, occupation, age, hours and
// marital status through a logistic link with noise, so the classification
// task is learnable but not trivial — feature-engineering edits genuinely
// move the metrics.
func GenerateCensus(trainRows, testRows int, seed int64) CensusData {
	rng := rand.New(rand.NewSource(seed))
	gen := func(rows int) string {
		var b strings.Builder
		b.Grow(rows * 64)
		for i := 0; i < rows; i++ {
			age := 17 + rng.Intn(60)
			wc := workclasses[rng.Intn(len(workclasses))]
			edu := educations[rng.Intn(len(educations))]
			ms := maritals[rng.Intn(len(maritals))]
			occ := occupations[rng.Intn(len(occupations))]
			race := races[rng.Intn(len(races))]
			sex := sexes[rng.Intn(len(sexes))]
			gain := 0
			if rng.Float64() < 0.08 {
				gain = rng.Intn(20000)
			}
			loss := 0
			if rng.Float64() < 0.05 {
				loss = rng.Intn(2000)
			}
			hours := 20 + rng.Intn(50)
			// Dirty cells: real census extracts carry stray whitespace and
			// missing markers; the workflow's Clean stage repairs them.
			if rng.Float64() < 0.03 {
				wc = "?"
			}
			if rng.Float64() < 0.02 {
				occ = " " + occ + " "
			}
			if rng.Float64() < 0.02 {
				ms = "?"
			}

			// Planted income model.
			score := -4.0
			switch edu {
			case "Bachelors":
				score += 1.2
			case "Masters":
				score += 1.8
			case "Doctorate":
				score += 2.4
			case "Some-college", "Assoc":
				score += 0.4
			}
			switch occ {
			case "Exec-managerial":
				score += 1.3
			case "Prof-specialty":
				score += 1.0
			case "Tech-support":
				score += 0.5
			case "Handlers-cleaners":
				score -= 0.6
			}
			if ms == "Married" {
				score += 1.0
			}
			score += 0.035 * float64(age-38)
			score += 0.03 * float64(hours-40)
			score += float64(gain) / 8000
			score -= float64(loss) / 4000
			p := 1 / (1 + math.Exp(-score))
			target := "<=50K"
			if rng.Float64() < p {
				target = ">50K"
			}
			fmt.Fprintf(&b, "%d,%s,%s,%s,%s,%s,%s,%d,%d,%d,%s\n",
				age, wc, edu, ms, occ, race, sex, gain, loss, hours, target)
		}
		return b.String()
	}
	train, test := gen(trainRows), gen(testRows)
	return CensusData{
		TrainCSV: train, TestCSV: test,
		TrainRows: trainRows, TestRows: testRows,
		src: core.NewLiteralSource(train, test),
	}
}

// CensusParams are the iteration knobs of the Census workflow — each field
// a scripted edit can change, mirroring the paper's Figure 1a deltas
// (adding marital_status, removing extractors, tuning regParam, changing
// the evaluation metric).
type CensusParams struct {
	// Data is the generated dataset (kept fixed across iterations).
	Data CensusData
	// Learner selects "logreg", "svm" or "perceptron".
	Learner string
	// RegParam is the regularization strength.
	RegParam float64
	// Epochs is the number of training epochs.
	Epochs int
	// Metric is the eval operator's headline metric.
	Metric string
	// AgeBuckets is the Bucketizer bin count.
	AgeBuckets int
	// WithOccupation, WithMaritalStatus, WithRace, WithCapital toggle
	// extractors.
	WithOccupation    bool
	WithMaritalStatus bool
	WithRace          bool
	WithCapital       bool
	// WithEduXOcc toggles the education x occupation interaction feature.
	WithEduXOcc bool
	// WithHours toggles the hours_per_week extractor.
	WithHours bool
}

// DefaultCensusParams is the initial version of the workflow (iteration 1).
func DefaultCensusParams(data CensusData) CensusParams {
	return CensusParams{
		Data:       data,
		Learner:    "logreg",
		RegParam:   0.1,
		Epochs:     6,
		Metric:     "accuracy",
		AgeBuckets: 10,
	}
}

// Build constructs the Figure-1a workflow for the current parameters.
func (p CensusParams) Build() *core.Workflow {
	wf := core.NewWorkflow("census")
	// Reuse the source hashed at generation while it still supplies this
	// text; a reassigned or hand-built dataset is hashed afresh.
	src := p.Data.src
	if src == nil || !src.Supplies(p.Data.TrainCSV, p.Data.TestCSV) {
		src = core.NewLiteralSource(p.Data.TrainCSV, p.Data.TestCSV)
	}
	wf.Source("data", src)
	wf.Apply("rows", core.NewCSVScanner(censusColumns...), "data")
	wf.Apply("clean", core.NewClean(), "rows")

	wf.Apply("age", core.Field("age"), "clean")
	wf.Apply("edu", core.Field("education"), "clean")
	wf.Apply("ageBucket", core.Bucket("age", p.AgeBuckets), "clean")
	inputs := []string{"clean", "age", "edu", "ageBucket"}

	if p.WithOccupation {
		wf.Apply("occ", core.Field("occupation"), "clean")
		inputs = append(inputs, "occ")
	}
	if p.WithMaritalStatus {
		wf.Apply("ms", core.Field("marital_status"), "clean")
		inputs = append(inputs, "ms")
	}
	if p.WithRace {
		wf.Apply("race", core.Field("race"), "clean")
		inputs = append(inputs, "race")
	}
	if p.WithCapital {
		wf.Apply("gain", core.Field("capital_gain"), "clean")
		wf.Apply("loss", core.Field("capital_loss"), "clean")
		inputs = append(inputs, "gain", "loss")
	}
	if p.WithHours {
		wf.Apply("hours", core.Field("hours_per_week"), "clean")
		inputs = append(inputs, "hours")
	}
	if p.WithEduXOcc {
		wf.Apply("eduXocc", core.Cross("education", "occupation"), "clean")
		inputs = append(inputs, "eduXocc")
	}

	wf.Apply("income", core.NewFeaturize("target", ">50K"), inputs...)
	wf.Apply("model", core.NewLearner(p.Learner, p.RegParam, p.Epochs), "income")
	wf.Apply("predictions", core.NewPredict(), "model", "income")
	wf.Apply("checked", core.NewEval(p.Metric), "predictions")
	wf.Output("predictions").Output("checked")
	return wf
}

// CensusScenario is the scripted 10-iteration development session used for
// Figure 2(b): a realistic mix of data-prep (purple), ML (orange) and eval
// (green) edits.
func CensusScenario(data CensusData) *Scenario {
	p := DefaultCensusParams(data)
	sc := &Scenario{Name: "census", Metric: "accuracy"}
	sc.Add("initial workflow", StepInitial, p.Build())

	p.WithOccupation = true
	sc.Add("add occupation feature", StepPrep, p.Build())

	p.RegParam = 0.01
	sc.Add("lower regularization to 0.01", StepML, p.Build())

	p.WithMaritalStatus = true
	p.WithCapital = true
	sc.Add("add marital_status and capital features", StepPrep, p.Build())

	p.Epochs = 10
	sc.Add("train for 10 epochs", StepML, p.Build())

	p.Metric = "f1"
	sc.Add("evaluate F1 instead of accuracy", StepEval, p.Build())

	p.WithEduXOcc = true
	p.WithHours = true
	sc.Add("add eduXocc interaction and hours feature", StepPrep, p.Build())

	p.Learner = "svm"
	sc.Add("switch model to linear SVM", StepML, p.Build())

	p.Metric = "logloss"
	sc.Add("evaluate log-loss", StepEval, p.Build())

	p.RegParam = 0.05
	sc.Add("retune regularization to 0.05", StepML, p.Build())
	return sc
}
