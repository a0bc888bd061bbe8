// Command helix-bench regenerates the paper's evaluation artifacts:
//
//	Figure 2(a): cumulative runtime on the IE task (HELIX vs DeepDive vs
//	             unoptimized HELIX), 10 iterations of scripted edits.
//	Figure 2(b): cumulative runtime on the Census classification task
//	             (HELIX vs DeepDive vs KeystoneML), 10 iterations.
//	§3.2 demo:   the same workflow version run with and without HELIX's
//	             optimizations (-ablation optflag).
//	Ablations:   materialization-policy comparison under a budget sweep
//	             (-ablation matpolicy).
//
// Absolute numbers differ from the paper (its substrate was Spark on a
// cluster; ours is an in-process engine on synthetic data) but the shape —
// who wins, by roughly what factor, and which iteration types are cheap —
// is the reproduction target. Per-layer performance measurement lives in
// the separate benchmark/ module (bash benchmark/run.sh).
//
// Usage:
//
//	helix-bench -fig 2a -docs 600
//	helix-bench -fig 2b -rows 40000
//	helix-bench -fig all
//	helix-bench -ablation optflag
//	helix-bench -ablation matpolicy
//	helix-bench -fig 2b -budget 65536 -spill -1 # tiered store on figure runs
//
// "-spill" attaches a cold second-tier store to figure runs (see
// docs/store.md): 0 leaves tiering off, >0 caps the spill tier, <0 leaves
// it unbudgeted. Figure runs print each system's peak live-byte estimate
// next to the wall-clock numbers.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/systems"
	"repro/internal/workload"
)

func main() {
	fig := flag.String("fig", "", "figure to regenerate: 2a, 2b, or all")
	ablation := flag.String("ablation", "", "ablation to run: optflag or matpolicy")
	rows := flag.Int("rows", 20000, "census training rows (fig 2b)")
	docs := flag.Int("docs", 400, "news training documents (fig 2a)")
	budget := flag.Int64("budget", 0, "storage budget in bytes (0 = unlimited)")
	spill := flag.Int64("spill", 0, "cold spill-tier budget in bytes (0 = tiering off, <0 = unbudgeted spill tier)")
	workers := flag.Int("workers", 4, "executor worker pool size")
	seed := flag.Int64("seed", 2018, "dataset seed")
	flag.Parse()

	// tweak applies the shared CLI knobs onto every system's preset; the
	// spill tier follows the conventional StoreDir+"-spill" layout for
	// systems that persist.
	tweak := func(o *core.Options) {
		o.BudgetBytes = *budget
		o.Workers = *workers
		if o.StoreDir != "" && *spill != 0 {
			o.SpillDir = o.StoreDir + "-spill"
			if *spill > 0 {
				o.SpillBudgetBytes = *spill
			}
		}
	}
	if *fig == "" && *ablation == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *fig == "2a" || *fig == "all" {
		if err := runFig2a(*docs, tweak, *seed); err != nil {
			fatal(err)
		}
	}
	if *fig == "2b" || *fig == "all" {
		if err := runFig2b(*rows, tweak, *seed); err != nil {
			fatal(err)
		}
	}
	switch *ablation {
	case "":
	case "optflag":
		if err := runOptFlag(*rows, *workers, *seed); err != nil {
			fatal(err)
		}
	case "matpolicy":
		if err := runMatPolicy(*rows, *workers, *seed); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown ablation %q (want optflag or matpolicy)", *ablation))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "helix-bench:", err)
	os.Exit(1)
}

func tempBase(label string) (string, func(), error) {
	dir, err := os.MkdirTemp("", "helix-bench-"+label+"-*")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

func runFig2a(docs int, tweak bench.Tweak, seed int64) error {
	fmt.Printf("=== Figure 2(a): IE task, %d train docs ===\n", docs)
	data := workload.GenerateNews(docs, docs/4, seed)
	sc := workload.IEScenario(data)
	base, cleanup, err := tempBase("fig2a")
	if err != nil {
		return err
	}
	defer cleanup()
	cmp, err := bench.RunComparison(sc,
		[]systems.Kind{systems.Helix, systems.DeepDive, systems.HelixUnopt}, base, nil, tweak)
	if err != nil {
		return err
	}
	fmt.Print(cmp.Table())
	fmt.Println()
	return nil
}

func runFig2b(rows int, tweak bench.Tweak, seed int64) error {
	fmt.Printf("=== Figure 2(b): Census classification, %d train rows ===\n", rows)
	data := workload.GenerateCensus(rows, rows/4, seed)
	sc := workload.CensusScenario(data)
	base, cleanup, err := tempBase("fig2b")
	if err != nil {
		return err
	}
	defer cleanup()
	// DeepDive's ML and evaluation components are not user-configurable, so
	// (as in the paper's plot) its series stops before the first ML edit.
	cmp, err := bench.RunComparison(sc,
		[]systems.Kind{systems.Helix, systems.DeepDive, systems.KeystoneML}, base,
		bench.Limits{systems.DeepDive: 2}, tweak)
	if err != nil {
		return err
	}
	fmt.Print(cmp.Table())
	fmt.Println()
	return nil
}

// runOptFlag reproduces the §3.2 demo step: execute the same workflow twice,
// once with and once without optimizations, and compare.
func runOptFlag(rows int, workers int, seed int64) error {
	fmt.Printf("=== §3.2: same version with vs without optimization ===\n")
	data := workload.GenerateCensus(rows, rows/4, seed)
	p := workload.DefaultCensusParams(data)
	p.WithOccupation = true
	base, cleanup, err := tempBase("optflag")
	if err != nil {
		return err
	}
	defer cleanup()

	helixOpts, err := systems.Preset(systems.Helix, base)
	if err != nil {
		return err
	}
	helixOpts.Workers = workers
	opt1, err := core.Open(helixOpts)
	if err != nil {
		return err
	}
	defer opt1.Close()
	// Prime: run v1, then re-run the identical version optimized.
	if _, err := opt1.Run(p.Build()); err != nil {
		return err
	}
	repOpt, err := opt1.Run(p.Build())
	if err != nil {
		return err
	}
	unoptOpts, err := systems.Preset(systems.HelixUnopt, "")
	if err != nil {
		return err
	}
	unoptOpts.Workers = workers
	unopt, err := core.Open(unoptOpts)
	if err != nil {
		return err
	}
	defer unopt.Close()
	if _, err := unopt.Run(p.Build()); err != nil {
		return err
	}
	repUnopt, err := unopt.Run(p.Build())
	if err != nil {
		return err
	}
	fmt.Printf("optimized rerun:   wall=%v (loads %d, computes %d)\n",
		repOpt.Wall.Round(time.Microsecond), countState(repOpt, opt.Load), countState(repOpt, opt.Compute))
	fmt.Printf("unoptimized rerun: wall=%v (loads %d, computes %d)\n",
		repUnopt.Wall.Round(time.Microsecond), countState(repUnopt, opt.Load), countState(repUnopt, opt.Compute))
	if repUnopt.Wall > 0 && repOpt.Wall > 0 {
		fmt.Printf("speedup: %.1fx\n\n", float64(repUnopt.Wall)/float64(repOpt.Wall))
	}
	return nil
}

func countState(rep *core.Report, s opt.State) int {
	n := 0
	for _, st := range rep.Plan.States {
		if st == s {
			n++
		}
	}
	return n
}

// runMatPolicy sweeps the storage budget and compares cumulative runtimes of
// the online heuristic against materialize-all and never-materialize — the
// materialization-problem ablation (§2.3). Whichever system runs first in a
// row reads slower, so row i starts at kinds[i%len(kinds)] and rotates; the
// printed columns keep a fixed order.
func runMatPolicy(rows int, workers int, seed int64) error {
	fmt.Printf("=== ablation: materialization policy under budget sweep ===\n")
	data := workload.GenerateCensus(rows, rows/4, seed)
	budgets := []int64{0, 64 << 20, 16 << 20, 4 << 20, 1 << 20}
	kinds := []systems.Kind{systems.Helix, systems.DeepDive, systems.KeystoneML}
	fmt.Printf("%-12s %16s %16s %16s\n", "budget", "helix-online", "materialize-all", "never")
	for i, b := range budgets {
		sc := workload.CensusScenario(data)
		base, cleanup, err := tempBase("matpolicy")
		if err != nil {
			return err
		}
		r := i % len(kinds)
		order := append(append([]systems.Kind(nil), kinds[r:]...), kinds[:r]...)
		cmp, err := bench.RunComparison(sc, order, base, nil, func(o *core.Options) {
			o.BudgetBytes = b
			o.Workers = workers
		})
		cleanup()
		if err != nil {
			return err
		}
		label := "unlimited"
		if b > 0 {
			label = fmt.Sprintf("%dMB", b>>20)
		}
		fmt.Printf("%-12s", label)
		for _, k := range kinds {
			_, vals, err := cmp.CumulativeSeries(k)
			if err != nil {
				return err
			}
			fmt.Printf(" %14.1fms", vals[len(vals)-1])
		}
		fmt.Println()
	}
	fmt.Println()
	return nil
}
