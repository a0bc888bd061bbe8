// Package bench is the harness that regenerates the paper's evaluation
// artifacts: Figure 2(a) (IE task) and Figure 2(b) (classification task)
// cumulative-runtime comparisons, the §2.4 summary claims, and the ablation
// studies on the recomputation and materialization optimizers. It replays a
// scripted iteration scenario against each comparator system and reports
// per-iteration and cumulative wall-clock times.
package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/systems"
	"repro/internal/version"
	"repro/internal/workload"
)

// IterationResult is one (system, iteration) measurement.
type IterationResult struct {
	Iteration   int
	Kind        workload.StepKind
	Description string
	Wall        time.Duration
	Cumulative  time.Duration
	Computed    int
	Loaded      int
	Pruned      int
	StoreUsed   int64
	Metrics     map[string]float64
}

// SeriesResult is one system's full scenario replay.
type SeriesResult struct {
	System     systems.Kind
	Iterations []IterationResult
	// Versions is the version store accumulated during the replay (kept for
	// the Figure-3 style outputs).
	Versions *version.Store
	// PeakLiveBytes is the session's high-water mark of in-memory
	// intermediate-value size estimates across the replay — the
	// memory-bounded-execution metric next to the wall-clock numbers.
	PeakLiveBytes int64
}

// Cumulative returns the final cumulative runtime.
func (s *SeriesResult) Cumulative() time.Duration {
	if len(s.Iterations) == 0 {
		return 0
	}
	return s.Iterations[len(s.Iterations)-1].Cumulative
}

// MedianWallByKind returns the median per-iteration wall time for each edit
// kind — the basis of the paper's observation that eval iterations are near
// zero for HELIX, ML iterations slightly higher, prep iterations highest.
func (s *SeriesResult) MedianWallByKind() map[workload.StepKind]time.Duration {
	byKind := map[workload.StepKind][]time.Duration{}
	for _, it := range s.Iterations {
		byKind[it.Kind] = append(byKind[it.Kind], it.Wall)
	}
	out := map[workload.StepKind]time.Duration{}
	for k, ds := range byKind {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		out[k] = ds[len(ds)/2]
	}
	return out
}

// Limits caps the number of iterations a system can replay. The paper's
// Figure 2(b) plots DeepDive only through iteration 2 because its ML and
// evaluation components are not user-configurable; a limit reproduces that
// truncation.
type Limits map[systems.Kind]int

// Tweak adjusts a system's preset core.Options before the session opens —
// the hook harness callers use to apply shared knobs (budget, workers,
// dispatch, spill) across every system of a comparison.
type Tweak func(*core.Options)

// RunScenario replays a scenario on one system rooted at baseDir (see
// systems.Preset for the store layout). maxIters <= 0 means all iterations.
func RunScenario(kind systems.Kind, sc *workload.Scenario, baseDir string, maxIters int, tweaks ...Tweak) (*SeriesResult, error) {
	return RunScenarioCtx(context.Background(), kind, sc, baseDir, maxIters, tweaks...)
}

// RunScenarioCtx is RunScenario under a cancellation context: a canceled
// ctx stops between (or inside) iterations and returns the partial error,
// leaving materialized state valid for a later resume.
func RunScenarioCtx(ctx context.Context, kind systems.Kind, sc *workload.Scenario, baseDir string, maxIters int, tweaks ...Tweak) (*SeriesResult, error) {
	opts, err := systems.Preset(kind, baseDir)
	if err != nil {
		return nil, err
	}
	for _, tw := range tweaks {
		tw(&opts)
	}
	sess, err := core.Open(opts)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	res := &SeriesResult{System: kind, Versions: version.NewStore()}
	var cum time.Duration
	for i, step := range sc.Steps {
		if maxIters > 0 && i >= maxIters {
			break
		}
		rep, err := sess.RunCtx(ctx, step.Workflow)
		if err != nil {
			return nil, fmt.Errorf("bench: %s iteration %d (%s): %w", kind, i+1, step.Description, err)
		}
		cum += rep.Wall
		computed, loaded, pruned := rep.Counts()
		ir := IterationResult{
			Iteration:   i + 1,
			Kind:        step.Kind,
			Description: step.Description,
			Wall:        rep.Wall,
			Cumulative:  cum,
			Computed:    computed,
			Loaded:      loaded,
			Pruned:      pruned,
			StoreUsed:   rep.StoreUsed,
			Metrics:     extractMetrics(rep),
		}
		res.Iterations = append(res.Iterations, ir)
		res.Versions.Commit(version.Version{
			Message: step.Description,
			Kind:    string(step.Kind),
			Source:  step.Workflow.SourceText(),
			Graph:   rep.Graph,
			Wall:    rep.Wall,
			Metrics: ir.Metrics,
		})
	}
	res.PeakLiveBytes = sess.LiveBytes().Peak()
	return res, nil
}

// extractMetrics pulls the evaluation output ("checked") into a flat map.
func extractMetrics(rep *core.Report) map[string]float64 {
	out := map[string]float64{}
	if met, ok := rep.Outputs["checked"].(ml.Metrics); ok {
		out["accuracy"] = met.Accuracy
		out["precision"] = met.Precision
		out["recall"] = met.Recall
		out["f1"] = met.F1
		out["logloss"] = met.LogLoss
	}
	return out
}

// Comparison is a full figure: one scenario replayed across systems.
type Comparison struct {
	Scenario *workload.Scenario
	Series   []*SeriesResult
}

// RunComparison replays the scenario on every listed system. Each system
// gets a fresh store under baseDir. A nil limits map runs every system to
// completion; tweaks apply to every system's preset (see Tweak).
func RunComparison(sc *workload.Scenario, kinds []systems.Kind, baseDir string, limits Limits, tweaks ...Tweak) (*Comparison, error) {
	cmp := &Comparison{Scenario: sc}
	for _, k := range kinds {
		sr, err := RunScenario(k, sc, baseDir, limits[k], tweaks...)
		if err != nil {
			return nil, err
		}
		cmp.Series = append(cmp.Series, sr)
	}
	return cmp, nil
}

// kindMark is the Figure-2 color coding rendered in ASCII.
func kindMark(k workload.StepKind) string {
	switch k {
	case workload.StepPrep:
		return "P" // purple
	case workload.StepML:
		return "M" // orange
	case workload.StepEval:
		return "E" // green
	default:
		return "I"
	}
}

// Table renders the per-iteration cumulative runtimes as the textual
// analogue of a Figure 2 panel: one row per iteration, one column per
// system, cumulative milliseconds.
func (c *Comparison) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s: cumulative run time (ms) per iteration\n", c.Scenario.Name)
	fmt.Fprintf(&b, "%-4s %-5s %-44s", "iter", "kind", "modification")
	for _, s := range c.Series {
		fmt.Fprintf(&b, " %12s", s.System)
	}
	b.WriteByte('\n')
	for i := range c.Scenario.Steps {
		step := c.Scenario.Steps[i]
		fmt.Fprintf(&b, "%-4d %-5s %-44s", i+1, kindMark(step.Kind), truncate(step.Description, 44))
		for _, s := range c.Series {
			if i < len(s.Iterations) {
				fmt.Fprintf(&b, " %12.1f", float64(s.Iterations[i].Cumulative.Microseconds())/1000)
			} else {
				// The paper renders unsupported iterations as missing data.
				fmt.Fprintf(&b, " %12s", "-")
			}
		}
		b.WriteByte('\n')
	}
	b.WriteString(c.Summary())
	return b.String()
}

// Summary renders the §2.4 headline comparisons: total cumulative runtime
// per system and HELIX's reduction factor against each baseline.
func (c *Comparison) Summary() string {
	var b strings.Builder
	var helix *SeriesResult
	for _, s := range c.Series {
		if s.System == systems.Helix {
			helix = s
		}
	}
	b.WriteString("totals:")
	for _, s := range c.Series {
		fmt.Fprintf(&b, "  %s=%.1fms", s.System, float64(s.Cumulative().Microseconds())/1000)
	}
	b.WriteByte('\n')
	// A zero peak means the gauge had nothing to measure (size-blind
	// policies never learn estimates) — print n/a rather than implying the
	// system used no memory.
	b.WriteString("peak live bytes:")
	for _, s := range c.Series {
		if s.PeakLiveBytes == 0 {
			fmt.Fprintf(&b, "  %s=n/a", s.System)
			continue
		}
		fmt.Fprintf(&b, "  %s=%.1fKB", s.System, float64(s.PeakLiveBytes)/1024)
	}
	b.WriteByte('\n')
	if helix != nil {
		for _, s := range c.Series {
			if s.System == systems.Helix || s.Cumulative() == 0 {
				continue
			}
			// Compare over the common iteration prefix so truncated series
			// (DeepDive in Figure 2b) are compared fairly.
			n := len(s.Iterations)
			if len(helix.Iterations) < n {
				n = len(helix.Iterations)
			}
			if n == 0 {
				continue
			}
			h := helix.Iterations[n-1].Cumulative
			o := s.Iterations[n-1].Cumulative
			if h == 0 || o == 0 {
				continue
			}
			note := ""
			if n < len(c.Scenario.Steps) {
				note = fmt.Sprintf(" (through iteration %d)", n)
			}
			pct, dir := (1-float64(h)/float64(o))*100, "lower"
			if h > o {
				pct, dir = -pct, "higher"
			}
			fmt.Fprintf(&b, "helix vs %s: %.0f%% %s cumulative runtime (%.1fx)%s\n",
				s.System, pct, dir, float64(o)/float64(h), note)
		}
		med := helix.MedianWallByKind()
		fmt.Fprintf(&b, "helix median iteration wall: prep=%v ml=%v eval=%v\n",
			med[workload.StepPrep].Round(time.Microsecond),
			med[workload.StepML].Round(time.Microsecond),
			med[workload.StepEval].Round(time.Microsecond))
	}
	return b.String()
}

// CumulativeSeries returns the (iteration, cumulative-ms) series for one
// system, for plotting.
func (c *Comparison) CumulativeSeries(kind systems.Kind) ([]int, []float64, error) {
	for _, s := range c.Series {
		if s.System != kind {
			continue
		}
		iters := make([]int, len(s.Iterations))
		vals := make([]float64, len(s.Iterations))
		for i, it := range s.Iterations {
			iters[i] = it.Iteration
			vals[i] = float64(it.Cumulative.Microseconds()) / 1000
		}
		return iters, vals, nil
	}
	return nil, nil, fmt.Errorf("bench: no series for system %q", kind)
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}
