package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// censusIntermediates are the SHA-256 digests of the stored encodings of
// the cleaned collections, of every extractor column and of the vectorized
// dataset at GenerateCensus(400, 120, 5) with every extractor enabled,
// captured from the map-per-row extractors and the two-pass Clean. A store
// entry written by either implementation decodes to the same value only
// while these hold.
var censusIntermediates = map[string]string{
	"clean":     "af1aaa6555256bdc5c8fad19650b388aa9a34566ddfad021242c74888f30ad15",
	"age":       "a8743cd6952e5598ce25ccb7794ade6c0ec2365bc38935de55eda3e00e5bbfb1",
	"edu":       "b7ed0fb60b2acac209dfed224385285022b457fd25e9cc770a99c42c4943cd7f",
	"ageBucket": "14e1e0c306c822434509bd3051484093919a5672c685d2307fc14cdbcc2be48d",
	"occ":       "840b84c0e754727d2410784c7b508d2dd33557f8cb270cb263cd3a09b6b5fd04",
	"ms":        "b42c0ee66deec85f1a5a379960d869eb5bcffd360d4c640e1725572c65c7936a",
	"race":      "eaa4381b893cf323bee8770a9a915dca067598ce5305c16437e73e78b10d2bc2",
	"gain":      "d6e8557c984e7cc94bfea44a4f651b4b9f0df5b10561fa6bbfcae3aaafba2a00",
	"loss":      "a0272623e4de34faf06352cc300b291b98feaead4eacdbb5ed750c9c8ab0a0f6",
	"hours":     "d80eda212b4e1d04591713ab56b93cd115bf20f95a904ee13515d25768a8b771",
	"eduXocc":   "84626928b53f43902d331f5d098d2b6de8c1d1fb4eb0b960dfb211807afa7675",
	"income":    "262a79c0d6ccac8784e3a2ed62d3d1e98774de4e165329456b2d5b9e79cce277",
}

// TestCensusIntermediatesPinned runs the census workflow with every
// extractor enabled and checks each intermediate's encoded bytes.
func TestCensusIntermediatesPinned(t *testing.T) {
	p := DefaultCensusParams(GenerateCensus(400, 120, 5))
	p.WithOccupation, p.WithMaritalStatus, p.WithRace, p.WithCapital = true, true, true, true
	p.WithHours, p.WithEduXOcc = true, true
	wf := p.Build()
	for name := range censusIntermediates {
		wf.Output(name)
	}
	outputs := storelessOutputs(t, wf)
	for name, want := range censusIntermediates {
		v, ok := outputs[name]
		if !ok {
			t.Fatalf("no output %s", name)
		}
		sum := sha256.Sum256(mustEncode(t, v))
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: digest %s, want %s", name, got, want)
		}
	}
}
