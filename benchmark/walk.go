package main

import (
	"math/rand"

	"repro/internal/serve"
	"repro/internal/workload"
)

// Edit kinds of a walk step, after the paper's Figure 2 colour classes plus
// the two a scripted scenario does not have: the initial version and a
// revert to an earlier version.
const (
	kindInitial = "initial"
	kindPrep    = "prep"
	kindML      = "ml"
	kindEval    = "eval"
	kindRevert  = "revert"
)

// walkStep is one version of the census workflow in an edit walk. The knobs
// are held as a serve.Variant because that is the closed knob set both the
// session workloads and the daemon's wire protocol can express.
type walkStep struct {
	Kind    string
	Variant serve.Variant
}

// shape is one version of the workflow with its knobs as indices: which
// of the six feature slots are on, and which entry of each ML and eval
// option list is chosen. Index 0 of every list is the census default.
type shape struct {
	on                           [6]bool
	learner, reg, epochs, metric int
}

// Option lists a shape indexes. Learner and epoch count change what an
// iteration costs, so their order is fixed; the regularization strengths
// and eval metrics after the default do not, so a labeling permutes them.
var (
	walkLearners = []string{"logreg", "svm", "perceptron"}
	walkEpochs   = []int{6, 5, 7}
	walkRegs     = []float64{0.1, 0.01, 0.05, 0.5}
	walkMetrics  = []string{"accuracy", "f1", "logloss", "precision", "recall"}
)

// editMix is the share, in percent, of each kind among a walk's edits;
// reverts are the rest.
type editMix struct{ prep, ml, eval int }

// sessionMix is the data scientist's walk: 30 % prep toggles, 30 % ML
// knobs, 20 % eval metric, 20 % reverts.
var sessionMix = editMix{prep: 30, ml: 30, eval: 20}

// walkShape draws a walk of steps versions from shapeSeed: the start, then
// steps-1 edits of the given mix (rounded) in a shuffled order. Which slot a
// prep edit toggles, which knob an ML edit turns and which earlier version a
// revert returns to all come from shapeSeed. Everything that decides what
// the session costs — how much is recomputed, what an earlier version left
// in the store — is in the shape.
func walkShape(shapeSeed int64, steps int, mix editMix) (kinds []string, shapes []shape) {
	rng := rand.New(rand.NewSource(shapeSeed))
	edits := steps - 1
	nPrep, nML, nEval := (edits*mix.prep+50)/100, (edits*mix.ml+50)/100, (edits*mix.eval+50)/100
	for i := 0; i < edits; i++ {
		switch {
		case i < nPrep:
			kinds = append(kinds, kindPrep)
		case i < nPrep+nML:
			kinds = append(kinds, kindML)
		case i < nPrep+nML+nEval:
			kinds = append(kinds, kindEval)
		default:
			kinds = append(kinds, kindRevert)
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	// The first edit has no earlier version to return to.
	for i := 0; i < len(kinds) && kinds[0] == kindRevert; i++ {
		kinds[0], kinds[i] = kinds[i], kinds[0]
	}

	var cur shape
	kinds = append([]string{kindInitial}, kinds...)
	shapes = []shape{cur}
	for _, kind := range kinds[1:] {
		switch kind {
		case kindPrep:
			slot := rng.Intn(len(cur.on))
			cur.on[slot] = !cur.on[slot]
		case kindML:
			switch rng.Intn(3) {
			case 0:
				cur.learner = otherIndex(rng, len(walkLearners), cur.learner)
			case 1:
				cur.reg = otherIndex(rng, len(walkRegs), cur.reg)
			default:
				cur.epochs = otherIndex(rng, len(walkEpochs), cur.epochs)
			}
		case kindEval:
			cur.metric = otherIndex(rng, len(walkMetrics), cur.metric)
		case kindRevert:
			// Return to an earlier version that differs from the current
			// one; there always is one once the first edit is not a revert.
			var earlier []shape
			for _, s := range shapes[:len(shapes)-1] {
				if s != cur {
					earlier = append(earlier, s)
				}
			}
			if len(earlier) > 0 {
				cur = earlier[rng.Intn(len(earlier))]
			}
		}
		shapes = append(shapes, cur)
	}
	return kinds, shapes
}

// otherIndex draws an index below n that differs from cur.
func otherIndex(rng *rand.Rand, n, cur int) int {
	i := rng.Intn(n - 1)
	if i >= cur {
		i++
	}
	return i
}

// labeling maps a shape's indices onto concrete knobs. It is a bijection
// drawn from the run's seed over the choices that do not change what a
// version costs: which of the four single-column extractors (occupation,
// marital status, race, hours) sits in which of the first four feature
// slots, and the order of the non-default regularization strengths and eval
// metrics. Two seeds therefore submit different workflows whose sessions do
// the same amount of work, and versions are equal under one labeling exactly
// when they are equal under another.
type labeling struct {
	column  [4]int
	regs    []float64
	metrics []string
}

func newLabeling(seed int64) labeling {
	rng := rand.New(rand.NewSource(seed))
	var l labeling
	copy(l.column[:], rng.Perm(4))
	l.regs = append([]float64(nil), walkRegs...)
	rng.Shuffle(len(l.regs)-1, func(i, j int) { l.regs[i+1], l.regs[j+1] = l.regs[j+1], l.regs[i+1] })
	l.metrics = append([]string(nil), walkMetrics...)
	rng.Shuffle(len(l.metrics)-1, func(i, j int) { l.metrics[i+1], l.metrics[j+1] = l.metrics[j+1], l.metrics[i+1] })
	return l
}

// variant spells a shape out as the daemon's knob set. Every knob is
// explicit, so equal workflows always have equal Variant values.
func (l labeling) variant(s shape) serve.Variant {
	v := serve.Variant{
		Learner:     walkLearners[s.learner],
		RegParam:    l.regs[s.reg],
		Epochs:      walkEpochs[s.epochs],
		Metric:      l.metrics[s.metric],
		AgeBuckets:  10,
		WithCapital: s.on[4],
		WithEduXOcc: s.on[5],
	}
	columns := [4]*bool{&v.WithOccupation, &v.WithMaritalStatus, &v.WithRace, &v.WithHours}
	for slot := 0; slot < 4; slot++ {
		*columns[l.column[slot]] = s.on[slot]
	}
	return v
}

// editWalk is the walk of the given shape under the seed's labeling. The
// same (shapeSeed, seed) always gives the same walk.
func editWalk(shapeSeed, seed int64, steps int, mix editMix) []walkStep {
	kinds, shapes := walkShape(shapeSeed, steps, mix)
	l := newLabeling(seed)
	walk := make([]walkStep, len(shapes))
	for i, s := range shapes {
		walk[i] = walkStep{Kind: kinds[i], Variant: l.variant(s)}
	}
	return walk
}

// censusParams maps a variant onto the census workflow's parameters the
// way the daemon does for a submission.
func censusParams(data workload.CensusData, v serve.Variant) workload.CensusParams {
	return workload.CensusParams{
		Data:              data,
		Learner:           v.Learner,
		RegParam:          v.RegParam,
		Epochs:            v.Epochs,
		Metric:            v.Metric,
		AgeBuckets:        v.AgeBuckets,
		WithOccupation:    v.WithOccupation,
		WithMaritalStatus: v.WithMaritalStatus,
		WithRace:          v.WithRace,
		WithCapital:       v.WithCapital,
		WithEduXOcc:       v.WithEduXOcc,
		WithHours:         v.WithHours,
	}
}
