package workload

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/sig"
)

// dataNode compiles wf and returns its "data" node's operator params and
// result signature.
func dataNode(t *testing.T, wf *core.Workflow) (map[string]string, sig.Signature) {
	t.Helper()
	c, err := core.Compile(wf)
	if err != nil {
		t.Fatal(err)
	}
	id := c.Graph.Lookup("data")
	return c.Ops[id].Params(), c.Sigs[id]
}

// TestCensusSourceDigestPinned pins the census source's content digest, so
// every stored entry keyed under it stays valid across changes to how the
// digest is computed.
func TestCensusSourceDigestPinned(t *testing.T) {
	params, _ := dataNode(t, DefaultCensusParams(GenerateCensus(400, 120, 5)).Build())
	if got, want := params["content"], "2f0bd875d0c7bd00"; got != want {
		t.Errorf("census source content = %s, want %s", got, want)
	}
}

// TestIESourceDigestPinned pins the IE corpus digest the same way.
func TestIESourceDigestPinned(t *testing.T) {
	if got, want := hashDocs(GenerateNews(40, 10, 5)), "7db80fe94cc6b94a"; got != want {
		t.Errorf("hashDocs = %s, want %s", got, want)
	}
}

// TestCensusBuildDoesNotRehash bounds what one Build allocates at 4 000
// rows to under a quarter of the dataset's CSV bytes: the dataset is hashed
// once, when it is generated, not on every Build.
func TestCensusBuildDoesNotRehash(t *testing.T) {
	d := GenerateCensus(4000, 1000, 7)
	p := DefaultCensusParams(d)
	p.Build()
	const builds = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		p.Build()
	}
	runtime.ReadMemStats(&after)
	perBuild := (after.TotalAlloc - before.TotalAlloc) / builds
	limit := uint64(len(d.TrainCSV)+len(d.TestCSV)) / 4
	if perBuild >= limit {
		t.Errorf("Build allocates %d B, want < %d B (a quarter of the CSV)", perBuild, limit)
	}
}

// TestCensusSourceNotStale reassigns a generated dataset's text: the
// workflow built from it must sign its data node as a fresh source over the
// new text does, never with the digest of the text it was generated with.
// A hand-built dataset, which carries no hashed source, signs as generated.
func TestCensusSourceNotStale(t *testing.T) {
	d := GenerateCensus(400, 120, 5)
	_, orig := dataNode(t, DefaultCensusParams(d).Build())
	byHand := CensusData{TrainCSV: d.TrainCSV, TestCSV: d.TestCSV, TrainRows: d.TrainRows, TestRows: d.TestRows}
	if _, got := dataNode(t, DefaultCensusParams(byHand).Build()); got != orig {
		t.Errorf("hand-built dataset signs data as %s, want %s", got, orig)
	}

	d.TrainCSV = GenerateCensus(400, 120, 6).TrainCSV
	_, got := dataNode(t, DefaultCensusParams(d).Build())
	fresh := core.NewWorkflow("fresh").Source("data", core.NewLiteralSource(d.TrainCSV, d.TestCSV)).Output("data")
	_, want := dataNode(t, fresh)
	if got != want {
		t.Errorf("reassigned dataset signs data as %s, want %s", got, want)
	}
	if got == orig {
		t.Error("reassigned dataset kept the original data signature")
	}
}

// TestLiteralSourceHashAllocs bounds what hashing a 4 000 + 1 000 row
// dataset allocates to under 64 KiB: the text is hashed through a fixed
// buffer, never copied whole.
func TestLiteralSourceHashAllocs(t *testing.T) {
	d := GenerateCensus(4000, 1000, 7)
	core.NewLiteralSource(d.TrainCSV, d.TestCSV)
	const calls = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		core.NewLiteralSource(d.TrainCSV, d.TestCSV)
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall >= 64<<10 {
		t.Errorf("NewLiteralSource allocates %d B per call, want < %d B", perCall, 64<<10)
	}
}
