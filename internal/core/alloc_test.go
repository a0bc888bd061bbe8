package core

import (
	"testing"

	"repro/internal/data"
	"repro/internal/store"
)

// Allocation ceilings for the census operators and decoders. Each is
// measured at allocTrain + allocTest rows and must stay under
// maxAllocsPerRow allocations per row: a fixed number of slabs, maps and
// name caches, never an allocation per row.
const (
	allocTrain, allocTest = 4000, 1000
	maxAllocsPerRow       = 0.05
)

// allocInputs builds the census values the ceilings are measured on.
func allocInputs(t *testing.T) (TextPair, CollectionPair, []any) {
	t.Helper()
	text := TextPair{Train: censusCSV(allocTrain, 0), Test: censusCSV(allocTest, 1)}
	out, err := NewCSVScanner("age", "education", "occupation", "target").Apply([]any{text})
	if err != nil {
		t.Fatal(err)
	}
	cp := out.(CollectionPair)
	inputs := []any{cp}
	for _, op := range []Operator{Field("age"), Field("education"), Bucket("age", 10), Cross("education", "occupation")} {
		col, err := op.Apply([]any{cp})
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, col)
	}
	return text, cp, inputs
}

// checkAllocs fails when f allocates more than maxAllocsPerRow per row,
// beyond extra allocations the caller accounts for.
func checkAllocs(t *testing.T, name string, extra int, f func()) {
	t.Helper()
	allocs := testing.AllocsPerRun(3, f)
	perRow := (allocs - float64(extra)) / float64(allocTrain+allocTest)
	t.Logf("%s: %.0f allocs (%.4f per row)", name, allocs, allocs/float64(allocTrain+allocTest))
	if perRow >= maxAllocsPerRow {
		t.Errorf("%s: %.0f allocs over %d rows (%d excepted) = %.3f per row, ceiling %.2f",
			name, allocs, allocTrain+allocTest, extra, perRow, maxAllocsPerRow)
	}
}

func TestPrepOperatorAllocCeilings(t *testing.T) {
	text, cp, featInputs := allocInputs(t)
	apply := func(op Operator, inputs ...any) func() {
		return func() {
			if _, err := op.Apply(inputs); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkAllocs(t, "scanner", 0, apply(NewCSVScanner("age", "education", "occupation", "target"), text))
	checkAllocs(t, "clean", 0, apply(NewClean(), cp))
	checkAllocs(t, "field(numeric)", 0, apply(Field("age"), cp))
	checkAllocs(t, "field(categorical)", 0, apply(Field("education"), cp))
	checkAllocs(t, "bucketizer", 0, apply(Bucket("age", 10), cp))
	checkAllocs(t, "interaction", 0, apply(Cross("education", "occupation"), cp))
	checkAllocs(t, "featurize", 0, apply(NewFeaturize("target", ">50K"), featInputs...))
}

func TestCensusDecoderAllocCeilings(t *testing.T) {
	_, cp, featInputs := allocInputs(t)
	vp, err := NewFeaturize("target", ">50K").Apply(featInputs)
	if err != nil {
		t.Fatal(err)
	}
	// Every distinct cell of a collection is one string copy out of the
	// buffer, and those are excepted from the ceiling.
	distinct := 0
	for _, half := range []*data.Collection{cp.Train, cp.Test} {
		seen := map[string]bool{}
		for _, r := range half.Rows {
			for _, f := range r.Fields {
				seen[f] = true
			}
		}
		distinct += len(seen)
	}
	for _, c := range []struct {
		name  string
		v     any
		extra int
	}{
		{"CollectionPair", cp, distinct},
		{"FeatureColumn", featInputs[1], 0},
		{"FeatureColumn(one-hot)", featInputs[4], 0},
		{"VecPair", vp, 0},
	} {
		raw := mustEncode(t, c.v)
		checkAllocs(t, c.name+" decode", c.extra, func() {
			if _, err := store.Decode(raw); err != nil {
				t.Fatal(err)
			}
		})
	}
}
