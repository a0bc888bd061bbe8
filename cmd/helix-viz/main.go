// Command helix-viz is the DAG visualization tool (§3.1): it runs one or two
// iterations of an application and emits the optimized execution plan as
// Graphviz DOT (Figure 1b — pruned nodes gray, loaded nodes blue,
// materialized results double-bordered) or as a text plan, plus the git-like
// version diff between consecutive iterations (Figure 1a's +/- highlights).
//
// Usage:
//
//	helix-viz -app census -iters 2 -format dot > plan.dot
//	helix-viz -app census -iters 2 -format text
//	helix-viz -app ie -iters 3 -format diff
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/systems"
	"repro/internal/version"
	"repro/internal/workload"
)

func main() {
	app := flag.String("app", "census", "application: census or ie")
	iters := flag.Int("iters", 2, "how many scenario iterations to run")
	format := flag.String("format", "dot", "output: dot, text, or diff")
	rows := flag.Int("rows", 2000, "census training rows")
	docs := flag.Int("docs", 100, "news training documents")
	seed := flag.Int64("seed", 2018, "dataset seed")
	flag.Parse()

	var sc *workload.Scenario
	switch *app {
	case "census":
		sc = workload.CensusScenario(workload.GenerateCensus(*rows, *rows/4, *seed))
	case "ie":
		sc = workload.IEScenario(workload.GenerateNews(*docs, *docs/4, *seed))
	default:
		fatal(fmt.Errorf("unknown app %q", *app))
	}
	if *iters < 1 || *iters > sc.Len() {
		fatal(fmt.Errorf("iters must be in [1,%d]", sc.Len()))
	}

	base, err := os.MkdirTemp("", "helix-viz-*")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(base)
	// Canonical session construction: preset -> tweak -> core.Open.
	opts, err := systems.Preset(systems.Helix, base)
	if err != nil {
		fatal(err)
	}
	sess, err := core.Open(opts)
	if err != nil {
		fatal(err)
	}
	defer sess.Close()
	var reports []*core.Report
	var sources []string
	for i := 0; i < *iters; i++ {
		rep, err := sess.Run(sc.Steps[i].Workflow)
		if err != nil {
			fatal(err)
		}
		reports = append(reports, rep)
		sources = append(sources, sc.Steps[i].Workflow.SourceText())
	}
	last := reports[len(reports)-1]

	switch *format {
	case "dot":
		fmt.Print(last.DOT())
	case "text":
		fmt.Print(last.RenderPlan())
	case "diff":
		if len(reports) < 2 {
			fatal(fmt.Errorf("diff needs -iters >= 2"))
		}
		prev := reports[len(reports)-2]
		fmt.Printf("workflow changes, iteration %d -> %d (%s):\n",
			prev.Iteration, last.Iteration, sc.Steps[last.Iteration-1].Description)
		for _, ch := range last.Changes {
			fmt.Printf("  %s: %s\n", ch.Kind, ch.Name)
		}
		fmt.Println("\nsource diff:")
		fmt.Print(version.DiffText(sources[len(sources)-2], sources[len(sources)-1]))
	default:
		fatal(fmt.Errorf("unknown format %q", *format))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "helix-viz:", err)
	os.Exit(1)
}
