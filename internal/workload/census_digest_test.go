package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/store"
)

// censusDigests are the census scenario's per-iteration output digests at
// GenerateCensus(400, 120, 5), captured from the map-per-row implementation
// of the census operators before their values became columnar. Any change to
// extraction, dictionary order, vectorization or scaling moves them.
var censusDigests = [10]string{
	"789aed93c0c5b3f639443f9778094939f74e3ecdfc3c62aa1cd28057ab3bfa8f",
	"be296c8e01603bcde9b7723e31f211c1a7e2517a91fb1fe454d22b30b9e42051",
	"1ff7d98f1caa0d5a23cef1c5637647640401099a4a25be07a375d2fa4b138943",
	"709924acfbcc93f39776f928861d1f77a22a70afd9b579a76a7863894fd363e9",
	"1e54abe3ca3ba6ff4c33be1eab7b9d44cd9a29d1696bf435e76425353b54e6fd",
	"1e54abe3ca3ba6ff4c33be1eab7b9d44cd9a29d1696bf435e76425353b54e6fd",
	"e8ef0185b1578c4b4d658dff88870f67fc271832b86b151cd69ec7b939415d81",
	"c022ceb1079fe22eb51092f2fc2d8a2e993dc0e2734e19ebcb7c3027c95f0eeb",
	"c022ceb1079fe22eb51092f2fc2d8a2e993dc0e2734e19ebcb7c3027c95f0eeb",
	"349f5532df8168e7c56e6991b3df9ed00a77fac346ae852ce91dcf1df571c1a0",
}

// outputDigest folds a report's outputs, sorted by name, into one SHA-256
// of their canonical encodings.
func outputDigest(t *testing.T, rep *core.Report) string {
	t.Helper()
	names := make([]string, 0, len(rep.Outputs))
	for n := range rep.Outputs {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		raw, err := store.Encode(rep.Outputs[n])
		if err != nil {
			t.Fatalf("encode output %s: %v", n, err)
		}
		fmt.Fprintf(h, "%s:%d:", n, len(raw))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCensusScenarioDigestsPinned replays the census scenario with reuse
// (loads of every materialized intermediate, including feature columns and
// vectorized datasets) and without a store, and checks every iteration's
// outputs against the pinned digests.
func TestCensusScenarioDigestsPinned(t *testing.T) {
	sc := CensusScenario(GenerateCensus(400, 120, 5))
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
			for i, step := range sc.Steps {
				rep, err := s.Run(step.Workflow)
				if err != nil {
					t.Fatalf("iteration %d: %v", i+1, err)
				}
				if got := outputDigest(t, rep); got != censusDigests[i] {
					t.Errorf("iteration %d (%s): digest %s, want %s", i+1, step.Description, got, censusDigests[i])
				}
			}
		})
	}
}
