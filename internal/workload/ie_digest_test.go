package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/opt"
)

// ieDigests are the IE scenario's per-iteration digests of the model, spans
// and checked outputs at GenerateNews(60, 20, 3), captured from the
// string-per-feature, slice-per-token implementation of the IE operators
// before their values became columnar. The model is part of the pin because
// spans and checked alone do not move under a feature-id reordering.
var ieDigests = [10]string{
	"738294a828be11ad36e71817ec6fb73acda5747eed68ed8550b0b2090ee24a26",
	"379310a6e4ac979df5ef954028b19ab0e0c6b6d1d8f38a032e0b423a19a16c2f",
	"1b4226295971dc6be374cd3509582dd949d762aa50166629792bc4242f4bfca6",
	"8af9efab03c627b53f3a3a1ff93080e2adc7d90fd0044212b696b7d5ccd5ad7f",
	"8af9efab03c627b53f3a3a1ff93080e2adc7d90fd0044212b696b7d5ccd5ad7f",
	"7c26883c5143f098f4cc01719470b3304eba56c89079471018d526a67ff3722b",
	"1c77bf610983416b82f4bb9f2fd8306c0d0df9da639d66f007944322a02b6979",
	"11d6b9ec28d007fe634336429bcfdfdcf8169cc4e4a6660ea592dd8d572d5871",
	"11d6b9ec28d007fe634336429bcfdfdcf8169cc4e4a6660ea592dd8d572d5871",
	"eb5e5fb5838096886a63559ce1c18864e3478276fd7bce112d5de4f0fadb5974",
}

// ieScenarioWithModel is the IE scenario with the trained model declared an
// output of every step.
func ieScenarioWithModel() *Scenario {
	sc := IEScenario(GenerateNews(60, 20, 3))
	for _, step := range sc.Steps {
		step.Workflow.Output("model")
	}
	return sc
}

// TestIEScenarioDigestsPinned replays the IE scenario with reuse (loads of
// every materialized intermediate: tokens, labels, feature datasets,
// models) and without a store, and checks every iteration's outputs against
// the pinned digests. Only an eval edit (a metric label the outputs do not
// carry) may leave the digest where the previous iteration put it; every
// prep or ML edit must move it, or the pin would not see that edit's path.
func TestIEScenarioDigestsPinned(t *testing.T) {
	sc := ieScenarioWithModel()
	for _, cfg := range []struct {
		name string
		opts core.Options
	}{
		{"helix", core.Options{StoreDir: t.TempDir(), Policy: opt.MaterializeAll{}, Reuse: true, Workers: 2}},
		{"unopt", core.Options{Workers: 2}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			s, err := core.Open(cfg.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			prev := ""
			for i, step := range sc.Steps {
				rep, err := s.Run(step.Workflow)
				if err != nil {
					t.Fatalf("iteration %d: %v", i+1, err)
				}
				got := outputDigest(t, rep)
				if got != ieDigests[i] {
					t.Errorf("iteration %d (%s): digest %s, want %s", i+1, step.Description, got, ieDigests[i])
				}
				if step.Kind != StepEval && got == prev {
					t.Errorf("iteration %d (%s) leaves the digest of iteration %d", i+1, step.Description, i)
				}
				prev = got
			}
		})
	}
}
