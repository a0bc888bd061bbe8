package main

import (
	"math"
	"testing"
)

func TestQuietIsInterpolatedFirstDecile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 1}, {2, 1.1}, {9, 1.8}, {10, 1.9}, {11, 2}, {21, 3}, {45, 5.4}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // n..1, unsorted on purpose
		}
		if got := quiet(xs); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quiet of 1..%d = %v, want %v", c.n, got, c.want)
		}
	}
	if got := quiet(nil); got != 0 {
		t.Errorf("quiet of nothing = %v, want 0", got)
	}
}

// TestReportOpsReadsTheQuietScript builds twelve repeats of a two-round,
// two-client script in which every repeat but two has one operation hit by a
// burst, and checks that each metric is the one of the undisturbed script.
func TestReportOpsReadsTheQuietScript(t *testing.T) {
	kinds := []string{kindInitial, kindPrep, kindML, kindEval}
	quietMS := []float64{100, 40, 10, 1}
	var reps [][]opSample
	for r := 0; r < 12; r++ {
		var rep []opSample
		for client := 0; client < 2; client++ {
			for i, k := range kinds {
				lat := quietMS[i]
				if r >= 2 && (r+i+client)%4 == 0 {
					lat *= 3
				}
				rep = append(rep, opSample{kind: k, latency: lat, reported: lat / 2})
			}
		}
		reps = append(reps, rep)
	}
	o := newOutcome()
	if err := reportOps(o, script{roundOps: 4, clients: 2}, reps, []float64{3, 2, 4}, []float64{50, 70, 60}); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"peak_rss_mb":    60,
		"setup_s":        2.2, // a tenth of the way from the smallest of three to the next
		"session_wall_s": 0.151,
		"iter_prep_ms":   40,
		"iter_ml_ms":     10,
		"run_wall_ms":    12.5, // median of 50, 20, 5, 0.5 twice over
		"submit_p50_ms":  25,
		"throughput_rps": 8 / 0.151, // two clients, four operations each, 0.151 s
	}
	for name, w := range want {
		if got := o.values[name]; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
	if err := reportOps(newOutcome(), script{roundOps: 4, clients: 2}, append(reps, reps[0][:7]), nil, nil); err == nil {
		t.Error("a repeat of another length was accepted")
	}
}
