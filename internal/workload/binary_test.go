package workload

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/seq"
	"repro/internal/store"
)

func roundTrip(t *testing.T, v any) any {
	t.Helper()
	raw, err := store.Encode(v)
	if err != nil {
		t.Fatalf("encode %T: %v", v, err)
	}
	got, err := store.Decode(raw)
	if err != nil {
		t.Fatalf("decode %T: %v", v, err)
	}
	return got
}

// ragged lays nested rows out as one slab.
func ragged[T any](rows ...[]T) Ragged[T] {
	r := newRagged[T](len(rows), 0)
	for _, row := range rows {
		r.Vals = append(r.Vals, row...)
		r.endRow()
	}
	return r
}

func TestTokenizedCorpusRoundTrip(t *testing.T) {
	tc := TokenizedCorpus{
		TrainSents:   ragged([]string{"Mary", "Smith", "spoke", "."}, []string{"Hello"}),
		TestSents:    ragged([]string{"Bob", "ran", "."}),
		TrainPersons: ragged([]string{"Mary Smith"}, nil),
		TestPersons:  ragged([]string{"Bob Jones"}),
	}
	if got := roundTrip(t, tc).(TokenizedCorpus); !reflect.DeepEqual(got, tc) {
		t.Errorf("round trip mismatch:\n%+v\n%+v", got, tc)
	}
}

func TestLabeledCorpusRoundTrip(t *testing.T) {
	lc := LabeledCorpus{
		TrainSents: ragged([]string{"Mary", "Smith", "spoke"}),
		TestSents:  ragged([]string{"Bob", "ran"}),
		TrainTags:  []uint8{seq.TagB, seq.TagI, seq.TagO},
		TrainGold:  ragged([]seq.Span{{Start: 0, End: 2}}),
		TestGold:   ragged([]seq.Span{{Start: 0, End: 1}}),
	}
	if got := roundTrip(t, lc).(LabeledCorpus); !reflect.DeepEqual(got, lc) {
		t.Errorf("round trip mismatch:\n%+v\n%+v", got, lc)
	}
}

func TestSeqDatasetRoundTrip(t *testing.T) {
	ds := SeqDataset{
		Train:    seq.Corpus{Sent: []int32{0, 2}, Tok: []int32{0, 2, 3}, ID: []int32{0, 1, 2}, Tags: []uint8{seq.TagB, seq.TagO}},
		Test:     seq.Corpus{Sent: []int32{0, 2}, Tok: []int32{0, 1, 3}, ID: []int32{0, 2, 1}},
		TestGold: ragged([]seq.Span{{Start: 1, End: 2}}),
		Dim:      3,
	}
	if got := roundTrip(t, ds).(SeqDataset); !reflect.DeepEqual(got, ds) {
		t.Errorf("round trip mismatch:\n%+v\n%+v", got, ds)
	}
}

func TestSeqModelRoundTrip(t *testing.T) {
	m := seq.NewModel(3)
	m.Emit[seq.TagB][1] = 2.5
	m.Trans[seq.NumTags][seq.TagB] = -1
	got := roundTrip(t, m).(*seq.Model)
	if got.Dim != 3 || got.Emit[seq.TagB][1] != 2.5 || got.Trans[seq.NumTags][seq.TagB] != -1 {
		t.Errorf("model round trip: %+v", got)
	}
}

// TestScenarioIntermediatesStorable runs every workflow version of the
// census and IE scenarios all-compute, keeping intermediates, and pushes
// every node value through the store codec. The store has one format and no
// fallback, so a value type without a codec.RegisterValue entry would
// silently never be materialized; this test makes that gap fail loudly.
// Encode → decode → encode must also be a byte-level fixed point.
func TestScenarioIntermediatesStorable(t *testing.T) {
	seen := make(map[string]bool) // result signatures already checked
	for _, sc := range []*Scenario{
		CensusScenario(GenerateCensus(200, 50, 1)),
		IEScenario(GenerateNews(20, 5, 1)),
	} {
		for i, step := range sc.Steps {
			c, err := core.Compile(step.Workflow)
			if err != nil {
				t.Fatalf("%s step %d: %v", sc.Name, i+1, err)
			}
			plan := &opt.Plan{States: make([]opt.State, c.Graph.Len())}
			for id := range plan.States {
				plan.States[id] = opt.Compute
			}
			res, err := (&exec.Engine{Workers: 2}).Execute(c.Graph, c.Tasks, plan)
			if err != nil {
				t.Fatalf("%s step %d: %v", sc.Name, i+1, err)
			}
			for id, v := range res.Values {
				if seen[c.Tasks[id].Key] {
					continue
				}
				seen[c.Tasks[id].Key] = true
				node := fmt.Sprintf("%s step %d node %s (%T)", sc.Name, i+1, c.Graph.Node(id).Name, v)
				raw, err := store.Encode(v)
				if err != nil {
					t.Errorf("%s: not storable: %v", node, err)
					continue
				}
				dec, err := store.Decode(raw)
				if err != nil {
					t.Errorf("%s: decode: %v", node, err)
					continue
				}
				again, err := store.Encode(dec)
				if err != nil {
					t.Errorf("%s: re-encode: %v", node, err)
					continue
				}
				if !bytes.Equal(raw, again) {
					t.Errorf("%s: re-encode not byte-identical (%d vs %d bytes)", node, len(raw), len(again))
				}
			}
		}
	}
	if len(seen) == 0 {
		t.Fatal("no node values checked")
	}
	t.Logf("%d distinct node values checked", len(seen))
}
