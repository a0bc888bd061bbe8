package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// metricSpec is one metric declaration of BENCHMARK.json. Bound is only
// present on end-to-end metrics.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json. It is the single place metric names, units
// and bounds are declared: the program fills values by name and refuses to
// report a run that leaves a declared metric without one.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec finds BENCHMARK.json in the working directory or its parent
// (the program is started from the repository root by run.sh and from
// benchmark/ by `go test`) and returns it with the directory it sits in.
func loadSpec() (*benchSpec, string, error) {
	for _, dir := range []string{".", ".."} {
		raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, "", err
		}
		var s benchSpec
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		root, err := filepath.Abs(dir)
		if err != nil {
			return nil, "", err
		}
		return &s, root, nil
	}
	return nil, "", fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// metrics returns the end-to-end declarations for an untraced run and the
// per-layer ones for a traced run.
func (s *benchSpec) metrics(trace bool) []metricSpec {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// dist is the spread of the samples behind one reported value.
type dist struct {
	Q1, Median, Q3 float64
	N              int
}

// outcome collects what one run of one workload measured.
type outcome struct {
	values    map[string]float64
	dists     map[string]dist
	attempted int
	failed    int
	// problems describes each failed operation or violated check; a
	// non-empty list makes the run incorrect.
	problems []string
}

func newOutcome() *outcome {
	return &outcome{values: make(map[string]float64), dists: make(map[string]dist)}
}

// set records a single measured value.
func (o *outcome) set(name string, v float64) { o.values[name] = v }

// setMedian records the median of samples with its quartiles and count.
func (o *outcome) setMedian(name string, samples []float64) {
	q1, q2, q3 := quartiles(samples)
	o.values[name] = q2
	o.dists[name] = dist{Q1: q1, Median: q2, Q3: q3, N: len(samples)}
}

// setQuiet records v, a value built from first deciles (see quiet), with
// the quartiles and count of the samples it was built from.
func (o *outcome) setQuiet(name string, v float64, samples []float64) {
	q1, q2, q3 := quartiles(samples)
	o.values[name] = v
	o.dists[name] = dist{Q1: q1, Median: q2, Q3: q3, N: len(samples)}
}

// fail counts n failed operations and records why.
func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object a run prints as its last line of output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result turns an outcome into the result line for the declared metrics:
// every declared name must have a finite value, and a value without a
// declaration is a bug in the benchmark.
func (o *outcome) result(declared []metricSpec) (*resultLine, error) {
	res := &resultLine{
		Correct:   o.failed == 0 && len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(declared)),
	}
	known := make(map[string]bool, len(declared))
	for _, m := range declared {
		known[m.Name] = true
		v, ok := o.values[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s declared in BENCHMARK.json but not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", m.Name, v)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	var extra []string
	for name := range o.values {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("measured metrics not declared in BENCHMARK.json: %v", extra)
	}
	return res, nil
}
