package main

import (
	"io"
	"math"
	"regexp"
	"testing"
	"time"
)

// tinySizes runs every workload in a fraction of a second each.
var tinySizes = sizes{
	censusTrain: 600, censusTest: 150,
	ieTrain: 60, ieTest: 15,
	walkSteps: 12, walkHot: 64 << 10, walkCold: 256 << 10,
	wideChains: 16, wideDepth: 8,
	serveRows: 400, serveRound: 10, serveRounds: 2, serveHot: 1 << 20, serveCold: 8 << 20, serveProbeEvery: 5,
	setups: 1, minRounds: 2,
	probeRounds: 2, probeBudget: 5 * time.Millisecond,
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs all six workloads, untraced and traced, at tiny sizes and
// holds the output to BENCHMARK.json: every declared metric is emitted
// exactly once with a finite value and its declared unit, no operation
// fails, and the declaration stays within the contract's limits.
func TestSmoke(t *testing.T) {
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	seen := make(map[string]bool)
	hasSetup := false
	for _, list := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q does not match %v", m.Name, nameRE)
			}
			if seen[m.Name] {
				t.Errorf("name %q is used twice", m.Name)
			}
			seen[m.Name] = true
			if m.Unit == "" || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("metric %s has unit %q, better %q", m.Name, m.Unit, m.Better)
			}
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s has bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	fns := workloadFuncs(tinySizes)
	if len(fns) != len(spec.Workloads) {
		t.Errorf("the program has %d workloads, BENCHMARK.json declares %d", len(fns), len(spec.Workloads))
	}

	for _, w := range spec.Workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or reused", w.Name)
		}
		seen[w.Name] = true
		for _, trace := range []bool{false, true} {
			e := &env{spec: spec, seed: 7, seconds: 0.05, trace: trace, sizes: tinySizes,
				workDir: t.TempDir(), outDir: t.TempDir(), log: io.Discard}
			res, err := runOne(e, w.Name)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			declared := spec.metrics(trace)
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.Name, trace, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not emitted", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, declared %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s is %v", w.Name, trace, m.Name, got.Value)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}
