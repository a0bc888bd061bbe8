// Command benchmark is the repository's benchmark: six named workloads,
// the end-to-end metrics a user of a session or of the helix-serve daemon
// sees, and — in a separate traced pass — per-layer metrics taken from
// outside the program, around calls into each internal package's public
// functions. BENCHMARK.json at the repository root declares the workloads,
// the metric names, their units and bounds; README.md in this directory
// explains the choices.
//
//	bash benchmark/run.sh --workload census_session --seed 2018 --seconds 10 --trace 0
//	bash benchmark/run.sh                  # every workload, untraced then traced
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// sizes freezes every workload's input size. They are part of the
// benchmark's definition: changing one starts a new baseline.
type sizes struct {
	// censusTrain/censusTest size the census dataset of census_session,
	// census_unopt and census_walk_tiered (the same data, so their outputs
	// and walls compare).
	censusTrain, censusTest int
	// ieTrain/ieTest are the news corpus's document counts.
	ieTrain, ieTest int
	// walkSteps is the length of census_walk_tiered's edit walk; walkHot and
	// walkCold are its hot and cold store budgets in bytes.
	walkSteps         int
	walkHot, walkCold int64
	// wideChains x wideDepth shape wide_dag's ContentionDAG.
	wideChains, wideDepth int
	// serveRows sizes the daemon's dataset, serveRound is the submits in one
	// tenant walk, serveRounds how many walks a tenant takes against one
	// daemon (a repeat), serveHot/serveCold the shared store's budgets, and
	// serveProbeEvery how many submits lie between two layer probes of a
	// traced run.
	serveRows, serveRound, serveRounds int
	serveHot, serveCold                int64
	serveProbeEvery                    int
	// setups is how many times a session workload or wide_dag sets up
	// (serve_tenants sets up once per repeat) and minRounds the fewest
	// repeats a measured phase runs however short --seconds is.
	setups, minRounds int
	// probeRounds and probeBudget bound each store/codec/dag probe: at
	// least that many rounds, and more until the budget is spent.
	probeRounds int
	probeBudget time.Duration
}

var benchSizes = sizes{
	censusTrain: 12_000, censusTest: 3_000,
	ieTrain: 1_200, ieTest: 300,
	walkSteps: 30, walkHot: 1200 << 10, walkCold: 3600 << 10,
	wideChains: 256, wideDepth: 128,
	serveRows: 4_000, serveRound: 40, serveRounds: 3, serveHot: 1 << 20, serveCold: 16 << 20, serveProbeEvery: 20,
	setups: 3, minRounds: 5,
	probeRounds: 20, probeBudget: 500 * time.Millisecond,
}

// env is what one run of one workload is given.
type env struct {
	spec    *benchSpec
	seed    int64
	seconds float64
	trace   bool
	sizes   sizes
	workDir string    // scratch for store directories, removed at the end
	outDir  string    // where trace files go
	log     io.Writer // human-readable report
	dirSeq  int
}

// workloadFuncs maps every workload name to its runner.
func workloadFuncs(sz sizes) map[string]func(*env) (*outcome, error) {
	fns := map[string]func(*env) (*outcome, error){
		"wide_dag":      runWideDAG,
		"serve_tenants": runServeTenants,
	}
	for _, w := range sessionWorkloads(sz) {
		fns[w.name] = w.run
	}
	return fns
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: every workload, untraced then traced)")
		seed     = flag.Int64("seed", 2018, "seed for dataset generation, edit walks and cost models")
		seconds  = flag.Float64("seconds", 0, "length of the measured phase (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the traced pass and the per-layer metrics")
		compare  = flag.Bool("compare", false, "compare two result files: -compare parent.json change.json")
		runs     = flag.Int("runs", 1, "with no -workload: how many times to run every workload")
		out      = flag.String("out", "", "with no -workload: result file (default benchmark/out/results.json)")
	)
	flag.Parse()
	if err := realMain(*workload, *seed, *seconds, *trace, *compare, *runs, *out, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func realMain(workload string, seed int64, seconds float64, trace int, compare bool, runs int, out string, args []string) error {
	spec, root, err := loadSpec()
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, spec, args[0], args[1])
	}
	if seconds <= 0 {
		seconds = float64(spec.RunSeconds)
	}
	outDir := filepath.Join(root, "benchmark", "out")
	if workload == "" {
		if out == "" {
			out = filepath.Join(outDir, "results.json")
		}
		return runAll(spec, seed, seconds, runs, out)
	}
	workDir := filepath.Join(root, ".bench_build", "work", fmt.Sprintf("%s-%d", workload, os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	e := &env{spec: spec, seed: seed, seconds: seconds, trace: trace != 0, sizes: benchSizes,
		workDir: workDir, outDir: outDir, log: os.Stdout}
	res, err := runOne(e, workload)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.RemoveAll(workDir)
		os.Exit(2)
	}
	return nil
}

// runOne runs one workload once and prints its report to e.log.
func runOne(e *env, workload string) (*resultLine, error) {
	fn, ok := workloadFuncs(e.sizes)[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	declared := false
	for _, w := range e.spec.Workloads {
		declared = declared || w.Name == workload
	}
	if !declared {
		return nil, fmt.Errorf("workload %q is not declared in BENCHMARK.json", workload)
	}
	fmt.Fprintf(e.log, "workload %s  seed %d  seconds %g  trace %v  nproc %d  GOMAXPROCS %d  %s  commit %s\n",
		workload, e.seed, e.seconds, e.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	o, err := fn(e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	declaredMetrics := e.spec.metrics(e.trace)
	res, err := o.result(declaredMetrics)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	printReport(e.log, o, declaredMetrics)
	return res, nil
}

// printReport prints every metric by name with its unit, and the median,
// quartiles and sample count of the samples behind it.
func printReport(w io.Writer, o *outcome, declared []metricSpec) {
	fmt.Fprintf(w, "  %-32s %14s %-7s %14s %14s %14s %7s\n", "metric", "value", "unit", "q1", "median", "q3", "n")
	for _, m := range declared {
		if d, ok := o.dists[m.Name]; ok && d.N > 0 && d.Q1 != d.Q3 {
			fmt.Fprintf(w, "  %-32s %14.4f %-7s %14.4f %14.4f %14.4f %7d\n", m.Name, o.values[m.Name], m.Unit, d.Q1, d.Median, d.Q3, d.N)
		} else if ok && d.N > 0 {
			fmt.Fprintf(w, "  %-32s %14.4f %-7s %14s %14s %14s %7d\n", m.Name, o.values[m.Name], m.Unit, "", "", "", d.N)
		} else {
			fmt.Fprintf(w, "  %-32s %14.4f %-7s\n", m.Name, o.values[m.Name], m.Unit)
		}
	}
	fmt.Fprintf(w, "  operations attempted %d, failed %d\n", o.attempted, o.failed)
	for _, p := range o.problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

// commit names the source revision the binary was built from, when the
// build recorded one (the acceptance checkouts are not git repositories).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB since the
// last settle. Each workload runs in its own process, so no other
// workload's memory is in it.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// settle collects the garbage a set-up or an earlier repeat left, returns
// the freed pages and restarts the peak-RSS mark from what is left, so that
// the peak read after a repeat is that repeat's own and not how far the
// collector happened to lag behind some earlier one. The time it takes is
// outside every operation. Where the kernel does not offer the reset, the
// peaks read as a running maximum.
func settle() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
