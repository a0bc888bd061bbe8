package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// runRecord is one run of one workload in a result file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	resultLine
}

// resultFile is what `benchmark` with no -workload writes and -compare
// reads: every run made, plus where they were made.
type resultFile struct {
	Commit     string      `json:"commit"`
	GoVersion  string      `json:"go_version"`
	NumCPU     int         `json:"nproc"`
	GoMaxProcs int         `json:"gomaxprocs"`
	Seconds    float64     `json:"seconds"`
	Runs       []runRecord `json:"runs"`
}

// runAll runs every declared workload `runs` times, untraced and traced,
// each in a process of its own (so peak_rss_mb is that workload's alone),
// and writes the result file. It prints each child's report as it runs and
// the derived paper speed-up at the end.
func runAll(spec *benchSpec, seed int64, seconds float64, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0), Seconds: seconds}
	failed := 0
	for r := 0; r < runs; r++ {
		for _, w := range spec.Workloads {
			for trace := 0; trace <= 1; trace++ {
				cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
				cmd.Stderr = os.Stderr
				var buf bytes.Buffer
				cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
				runErr := cmd.Run()
				rec := runRecord{Workload: w.Name, Seed: seed, Trace: trace}
				if line := lastLine(buf.Bytes()); json.Unmarshal(line, &rec.resultLine) != nil {
					return fmt.Errorf("%s (trace %d) printed no result: %v", w.Name, trace, runErr)
				}
				if runErr != nil || !rec.Correct {
					failed++
				}
				file.Runs = append(file.Runs, rec)
			}
		}
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("\nresults written to %s\n", out)
	unopt, helix := file.values("census_unopt", "session_wall_s"), file.values("census_session", "session_wall_s")
	if len(unopt) > 0 && len(helix) > 0 {
		fmt.Printf("derived: census_unopt.session_wall_s / census_session.session_wall_s = %.3f s / %.3f s = %.2fx (the paper's speed-up; not gated)\n",
			median(unopt), median(helix), median(unopt)/median(helix))
	}
	if failed > 0 {
		return fmt.Errorf("%d runs failed or were incorrect", failed)
	}
	return nil
}

func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

// values returns the metric's value in every run of the workload.
func (f *resultFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload == workload {
			if m, ok := r.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

func readResultFile(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// verdict compares a change's runs of one end-to-end metric with the
// parent's: "unresolved" when the parent's own inter-quartile spread is
// wider than the bound (the runs cannot tell a regression of that size from
// noise), "regressed" when the change's median is worse than the parent's
// by more than the bound, "ok" otherwise.
func verdict(m metricSpec, parent, change []float64) (string, float64) {
	pq1, pmed, pq3 := quartiles(parent)
	cmed := median(change)
	if pmed == 0 {
		return "unresolved", 0
	}
	worse := (cmed - pmed) / pmed
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case (pq3-pq1)/pmed > m.Bound:
		return "unresolved", worse
	case worse > m.Bound:
		return "regressed", worse
	default:
		return "ok", worse
	}
}

// compareFiles prints, per workload and end-to-end metric, both files'
// medians and quartiles, how much worse the change is as a share of the
// parent's median, the bound, and the verdict. Per-layer metrics have no
// bound; they are listed with their medians only.
func compareFiles(w io.Writer, spec *benchSpec, parentPath, changePath string) error {
	parent, err := readResultFile(parentPath)
	if err != nil {
		return err
	}
	change, err := readResultFile(changePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "parent %s (%s)  change %s (%s)\n", parentPath, parent.Commit, changePath, change.Commit)
	regressed := 0
	for _, wl := range spec.Workloads {
		fmt.Fprintf(w, "\n%s\n  %-28s %-6s %12s %23s %12s %23s %8s %6s  %s\n", wl.Name, "metric", "unit",
			"parent", "[q1, q3]", "change", "[q1, q3]", "worse", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			p, c := parent.values(wl.Name, m.Name), change.values(wl.Name, m.Name)
			if len(p) == 0 || len(c) == 0 {
				fmt.Fprintf(w, "  %-28s %-6s missing in %s\n", m.Name, m.Unit, map[bool]string{true: parentPath, false: changePath}[len(p) == 0])
				continue
			}
			pq1, pmed, pq3 := quartiles(p)
			cq1, cmed, cq3 := quartiles(c)
			v, worse := verdict(m, p, c)
			if v == "regressed" {
				regressed++
			}
			fmt.Fprintf(w, "  %-28s %-6s %12.4f [%10.4f,%10.4f] %12.4f [%10.4f,%10.4f] %+7.1f%% %5.0f%%  %s\n",
				m.Name, m.Unit, pmed, pq1, pq3, cmed, cq1, cq3, 100*worse, 100*m.Bound, v)
		}
		for _, m := range spec.PerLayer {
			p, c := parent.values(wl.Name, m.Name), change.values(wl.Name, m.Name)
			if len(p) == 0 || len(c) == 0 || (median(p) == 0 && median(c) == 0) {
				continue
			}
			fmt.Fprintf(w, "  %-28s %-6s %12.4f %23s %12.4f\n", m.Name, m.Unit, median(p), "", median(c))
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d end-to-end metrics regressed", regressed)
	}
	return nil
}
