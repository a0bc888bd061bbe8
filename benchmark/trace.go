package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Parent is the ID of the span that caused it (-1 for a root);
// spans of one replay (or one tenant round) share Replay. Attrs carries the
// counts taken at the same boundary (node counts, busy sums, bytes).
type span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"`
	Replay  int                `json:"replay"`
	Name    string             `json:"name"`
	Layer   string             `json:"layer"`
	StartNS int64              `json:"start_ns"`
	EndNS   int64              `json:"end_ns"`
	Attrs   map[string]float64 `json:"attrs,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends. Safe for concurrent use
// (the serve workload's tenants trace from two goroutines). A nil tracer
// records nothing, which is how untraced runs go through the same code with
// tracing off.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its ID.
func (t *tracer) start(name, layer string, parent, replay int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Replay: replay, Name: name, Layer: layer, StartNS: now})
	return id
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].EndNS = now
	return t.spans[id].dur()
}

// attr attaches a count to a span.
func (t *tracer) attr(id int, key string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spans[id].Attrs == nil {
		t.spans[id].Attrs = make(map[string]float64)
	}
	t.spans[id].Attrs[key] = v
}

// durations returns the durations, in the given unit, of every span named
// name.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, float64(t.spans[i].dur())/float64(unit))
		}
	}
	return out
}

// selfTimes sums, per layer, the self time (a span's duration minus the
// part its children cover) of every span in the subtrees rooted at spans
// named root, and returns it with the summed duration of those roots. The
// two agree exactly when children nest inside their parents without
// overlapping, which is what the 5 % check in the report guards.
func (t *tracer) selfTimes(root string) (byLayer map[string]time.Duration, total time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	childSum := make([]time.Duration, len(t.spans))
	inTree := make([]bool, len(t.spans))
	for i := range t.spans { // parents precede children: IDs are start order
		s := &t.spans[i]
		if s.Name == root {
			inTree[i] = true
			total += s.dur()
		} else if s.Parent >= 0 && inTree[s.Parent] {
			inTree[i] = true
		}
		if inTree[i] && s.Parent >= 0 && inTree[s.Parent] {
			childSum[s.Parent] += s.dur()
		}
	}
	byLayer = make(map[string]time.Duration)
	for i := range t.spans {
		if inTree[i] {
			byLayer[t.spans[i].Layer] += t.spans[i].dur() - childSum[i]
		}
	}
	return byLayer, total
}

// write stores the spans as benchmark/out/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	raw, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, raw, 0o644)
}

// printSelfTable prints the per-layer self-time table of the subtrees
// rooted at spans named root and returns how far, in percent of the roots'
// summed duration, the self times are from adding up to it.
func (t *tracer) printSelfTable(w io.Writer, root string) float64 {
	byLayer, total := t.selfTimes(root)
	if total <= 0 {
		return 0
	}
	layers := make([]string, 0, len(byLayer))
	var selfSum time.Duration
	for l, d := range byLayer {
		layers = append(layers, l)
		selfSum += d
	}
	sort.Slice(layers, func(i, j int) bool { return byLayer[layers[i]] > byLayer[layers[j]] })
	fmt.Fprintf(w, "  layer self times under %q spans (traced pass):\n", root)
	for _, l := range layers {
		fmt.Fprintf(w, "    %-10s %10.3f ms  %5.1f %%\n", l, ms(byLayer[l]), 100*float64(byLayer[l])/float64(total))
	}
	errPct := 100 * float64(selfSum-total) / float64(total)
	fmt.Fprintf(w, "    %-10s %10.3f ms  (spans %.3f ms, difference %.2f %%)\n", "sum", ms(selfSum), ms(total), errPct)
	if errPct < 0 {
		errPct = -errPct
	}
	return errPct
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
