package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/store"
	"repro/internal/systems"
	"repro/internal/workload"
)

// step is one version of a workflow in a development session.
type step struct {
	kind string
	wf   *core.Workflow
}

// sessionWorkload describes one of the four session workloads: a sequence
// of workflow versions replayed through core.Session on one comparator
// system, every replay on a fresh store directory.
type sessionWorkload struct {
	name   string
	system systems.Kind
	// hot and cold are the store budgets in bytes; cold > 0 adds the spill
	// tier. Zero hot means unlimited.
	hot, cold int64
	// refSystem, on unlimited budgets, is the configuration whose outputs
	// must equal this workload's, replayed once after the measured phase:
	// the other comparator system, or the same system without the budgets.
	refSystem systems.Kind
	build     func(e *env, tr *tracer) []step
}

// sessionWorkers is the intra-iteration parallelism of every session
// workload (the box has two cores).
const sessionWorkers = 2

func scenarioSteps(sc *workload.Scenario) []step {
	steps := make([]step, len(sc.Steps))
	for i, s := range sc.Steps {
		steps[i] = step{kind: string(s.Kind), wf: s.Workflow}
	}
	return steps
}

// genCensus generates the census dataset the three census session
// workloads share (the same data, so their outputs and walls compare).
func genCensus(e *env, tr *tracer) workload.CensusData {
	id := tr.start("workload.gen_census", "workload", -1, -1)
	defer tr.end(id)
	return workload.GenerateCensus(e.sizes.censusTrain, e.sizes.censusTest, e.seed)
}

func buildCensusScenario(e *env, tr *tracer) []step {
	return scenarioSteps(workload.CensusScenario(genCensus(e, tr)))
}

func buildIEScenario(e *env, tr *tracer) []step {
	id := tr.start("workload.gen_news", "workload", -1, -1)
	data := workload.GenerateNews(e.sizes.ieTrain, e.sizes.ieTest, e.seed)
	tr.end(id)
	return scenarioSteps(workload.IEScenario(data))
}

// walkShapeSeed fixes the shape of census_walk_tiered's walk (see
// walkShape): the run's seed draws the data and the labeling, not how much
// work the session is.
const walkShapeSeed = 2018

func buildCensusWalk(e *env, tr *tracer) []step {
	data := genCensus(e, tr)
	walk := editWalk(walkShapeSeed, e.seed, e.sizes.walkSteps, sessionMix)
	steps := make([]step, len(walk))
	for i, ws := range walk {
		steps[i] = step{kind: ws.Kind, wf: censusParams(data, ws.Variant).Build()}
	}
	return steps
}

func sessionWorkloads(sz sizes) []*sessionWorkload {
	return []*sessionWorkload{
		{name: "census_session", system: systems.Helix, refSystem: systems.HelixUnopt, build: buildCensusScenario},
		{name: "census_unopt", system: systems.HelixUnopt, refSystem: systems.Helix, build: buildCensusScenario},
		{name: "ie_session", system: systems.Helix, refSystem: systems.HelixUnopt, build: buildIEScenario},
		{name: "census_walk_tiered", system: systems.Helix, hot: sz.walkHot, cold: sz.walkCold,
			refSystem: systems.Helix, build: buildCensusWalk},
	}
}

// freshOptions resolves a comparator preset onto a new, empty store
// directory with the session workloads' worker count and the given budgets.
func (e *env) freshOptions(tag string, system systems.Kind, hot, cold int64) (core.Options, string, error) {
	dir, err := e.freshDir(tag)
	if err != nil {
		return core.Options{}, "", err
	}
	o, err := systems.Preset(system, dir)
	if err != nil {
		return core.Options{}, "", err
	}
	o.Workers = sessionWorkers
	if o.StoreDir != "" {
		o.BudgetBytes = hot
		if cold > 0 {
			o.SpillDir = o.StoreDir + "-spill"
			o.SpillBudgetBytes = cold
		}
	}
	return o, dir, nil
}

// iterRecord is what the benchmark keeps of one iteration: the wall it
// measured around the call, the program's own report (outputs dropped once
// hashed) and the digest of the outputs.
type iterRecord struct {
	kind string
	wall time.Duration
	rep  *core.Report
	hash string
}

// replayRecord is one replay of a session.
type replayRecord struct {
	iters    []iterRecord
	peakLive int64
	// allocBytes and mallocs are runtime.MemStats deltas over the replay
	// (traced runs only).
	allocBytes, mallocs uint64
}

func (r *replayRecord) wall() time.Duration {
	var t time.Duration
	for _, it := range r.iters {
		t += it.wall
	}
	return t
}

func (r *replayRecord) hashes() []string {
	out := make([]string, len(r.iters))
	for i, it := range r.iters {
		out[i] = it.hash
	}
	return out
}

// counts returns the replay's summed plan-state counts.
func (r *replayRecord) counts() (computed, loaded, pruned int) {
	for _, it := range r.iters {
		c, l, p := it.rep.Counts()
		computed, loaded, pruned = computed+c, loaded+l, pruned+p
	}
	return
}

// hashOutputs digests a run's output values the way serve.outputHash does:
// names sorted, each value's encoded bytes folded in. The eval operator's
// metrics are one of the outputs, so equal hashes mean equal eval metrics
// and equal predictions.
func hashOutputs(outputs map[string]any) (string, error) {
	names := make([]string, 0, len(outputs))
	for name := range outputs {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		raw, err := store.Encode(outputs[name])
		if err != nil {
			return "", fmt.Errorf("encode output %s: %w", name, err)
		}
		fmt.Fprintf(h, "%s:%d:", name, len(raw))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// keep hashes an iteration's outputs, drops them (they would otherwise pin
// every replay's predictions in memory) and appends the record.
func (r *replayRecord) keep(kind string, wall time.Duration, rep *core.Report) error {
	hash, err := hashOutputs(rep.Outputs)
	if err != nil {
		return err
	}
	rep.Outputs = nil
	r.iters = append(r.iters, iterRecord{kind: kind, wall: wall, rep: rep, hash: hash})
	return nil
}

// runReplay replays the steps through core.Session — the program's real
// path — timing each Session.Run from outside.
func runReplay(o core.Options, steps []step, memStats bool) (*replayRecord, error) {
	var before runtime.MemStats
	if memStats {
		runtime.ReadMemStats(&before)
	}
	sess, err := core.Open(o)
	if err != nil {
		return nil, err
	}
	rec := &replayRecord{}
	for i, st := range steps {
		t0 := time.Now()
		rep, err := sess.Run(st.wf)
		wall := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("iteration %d: %w", i+1, err)
		}
		if err := rec.keep(st.kind, wall, rep); err != nil {
			return nil, err
		}
	}
	rec.peakLive = sess.LiveBytes().Peak()
	if err := sess.Close(); err != nil {
		return nil, err
	}
	if memStats {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		rec.allocBytes = after.TotalAlloc - before.TotalAlloc
		rec.mallocs = after.Mallocs - before.Mallocs
	}
	return rec, nil
}

// run executes the workload: set-up (repeated, for a steady setup_s), the
// measured replays for e.seconds, the reference replay, and the metrics.
func (w *sessionWorkload) run(e *env) (*outcome, error) {
	o := newOutcome()
	var tr *tracer
	if e.trace {
		tr = newTracer()
	}
	fresh := func(tag string) (core.Options, string, error) {
		return e.freshOptions(w.name+"-"+tag, w.system, w.hot, w.cold)
	}

	// Set-up: generate the inputs, open a store, replay once unmeasured.
	// Every warm-up must reproduce the first one's outputs.
	var steps []step
	var ref []string
	var setups []float64
	for k := 0; k < e.sizes.setups; k++ {
		t0 := time.Now()
		steps = w.build(e, tr)
		opts, dir, err := fresh("warm")
		if err != nil {
			return nil, err
		}
		warm, err := runReplay(opts, steps, false)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		os.RemoveAll(dir)
		settle()
		if ref == nil {
			ref = warm.hashes()
		} else {
			w.check(o, "warm-up", warm, ref)
		}
	}

	// Measured phase. A traced run alternates the real path with the
	// mirrored, span-instrumented one and keeps the last mirrored store for
	// the store and codec probes.
	var real, mirrored []*replayRecord
	var rss []float64
	var probeDir string
	start := time.Now()
	for round := 0; round < e.sizes.minRounds || time.Since(start).Seconds() < e.seconds; round++ {
		opts, dir, err := fresh("run")
		if err != nil {
			return nil, err
		}
		settle()
		rec, err := runReplay(opts, steps, e.trace)
		if err != nil {
			return nil, err
		}
		rss = append(rss, peakRSSMB())
		os.RemoveAll(dir)
		w.check(o, fmt.Sprintf("replay %d", round), rec, ref)
		real = append(real, rec)
		if !e.trace {
			continue
		}
		if opts, dir, err = fresh("trace"); err != nil {
			return nil, err
		}
		mir, err := mirrorReplay(tr, round, opts, steps)
		if err != nil {
			return nil, fmt.Errorf("traced replay %d: %w", round, err)
		}
		w.check(o, fmt.Sprintf("traced replay %d", round), mir, ref)
		w.checkMirror(o, round, rec, mir)
		mirrored = append(mirrored, mir)
		if probeDir != "" {
			os.RemoveAll(probeDir)
		}
		probeDir = dir
	}

	// Reference replay: another configuration must compute the same bytes.
	opts, dir, err := e.freshOptions(w.name+"-ref", w.refSystem, 0, 0)
	if err != nil {
		return nil, err
	}
	refRec, err := runReplay(opts, steps, false)
	if err != nil {
		return nil, fmt.Errorf("reference replay: %w", err)
	}
	os.RemoveAll(dir)
	w.check(o, "reference replay on "+string(w.refSystem), refRec, ref)

	if !e.trace {
		return o, w.endToEnd(o, real, setups, rss)
	}
	w.perLayer(e, o, tr, real, mirrored, refRec, probeDir)
	os.RemoveAll(probeDir)
	return o, finishTrace(e, o, tr, w.name, "iteration")
}

// check counts the replay's operations and fails every iteration whose
// output digest differs from the reference.
func (w *sessionWorkload) check(o *outcome, what string, rec *replayRecord, ref []string) {
	o.attempted += len(rec.iters)
	for i, it := range rec.iters {
		if i >= len(ref) || it.hash != ref[i] {
			o.fail(1, "%s %s: iteration %d output digest differs from the first warm-up", w.name, what, i+1)
		}
	}
}

// checkMirror holds the traced mirror of Session.RunCtx to the real path:
// the same node count every iteration, and the same plan-state counts over
// the replay. Which of load and compute the planner picks for a cheap node
// depends on measured costs, so the states are compared as replay totals
// with a tolerance of two nodes per iteration, above the jitter two real
// replays show between themselves and far below what a forgotten option
// (reuse off, a missing budget) changes.
func (w *sessionWorkload) checkMirror(o *outcome, round int, rec, mir *replayRecord) {
	if len(rec.iters) != len(mir.iters) {
		o.fail(1, "%s traced replay %d ran %d iterations, the session %d", w.name, round, len(mir.iters), len(rec.iters))
		return
	}
	for i := range rec.iters {
		if a, b := rec.iters[i].rep.Graph.Len(), mir.iters[i].rep.Graph.Len(); a != b {
			o.fail(1, "%s traced replay %d iteration %d has %d nodes, the session %d", w.name, round, i+1, b, a)
		}
	}
	rc, rl, rp := rec.counts()
	mc, ml, mp := mir.counts()
	tol := 2 * len(rec.iters)
	if abs(rc-mc) > tol || abs(rl-ml) > tol || abs(rp-mp) > tol {
		o.fail(1, "%s traced replay %d planned %d/%d/%d computed/loaded/pruned nodes, the session %d/%d/%d",
			w.name, round, mc, ml, mp, rc, rl, rp)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// wallsByKind pools iteration walls (ms) by edit kind over the replays.
func wallsByKind(recs []*replayRecord) map[string][]float64 {
	byKind := make(map[string][]float64)
	for _, r := range recs {
		for _, it := range r.iters {
			byKind[it.kind] = append(byKind[it.kind], ms(it.wall))
		}
	}
	return byKind
}

// endToEnd reports what the data scientist waits for: a replay is a repeat
// of one round, walked by one client.
func (w *sessionWorkload) endToEnd(o *outcome, recs []*replayRecord, setups, rss []float64) error {
	reps := make([][]opSample, len(recs))
	for i, r := range recs {
		for _, it := range r.iters {
			reps[i] = append(reps[i], opSample{kind: it.kind, latency: ms(it.wall), reported: ms(it.rep.Wall)})
		}
	}
	return reportOps(o, script{roundOps: len(reps[0]), clients: 1}, reps, setups, rss)
}

// opSample is one operation (an iteration, a repetition, a submit) as its
// client saw it: its edit kind (empty when the workload has none), its
// latency, and the wall the program itself reported for it, both in ms.
type opSample struct {
	kind              string
	latency, reported float64
}

// script is the shape of what a workload repeats: a session replay, ten
// plan-and-execute repetitions, the tenants' walks against a fresh daemon.
// Every repeat of a run holds the same operations in the same order, so each
// position of the script is sampled once per repeat, and the samples of one
// position differ only by what the box did. Rounds are runs of roundOps
// consecutive operations of one client; clients is how many walk at once,
// each through an equal share of the rounds.
type script struct {
	roundOps, clients int
}

// quietProfile returns, for each position of the script, the first decile
// over the repeats of the value at that position, and all the samples,
// position by position.
func quietProfile(reps [][]opSample, at func(opSample) float64) (profile, samples []float64) {
	column := make([]float64, len(reps))
	for i := range reps[0] {
		for r := range reps {
			column[r] = at(reps[r][i])
		}
		profile = append(profile, quiet(column))
		samples = append(samples, column...)
	}
	return profile, samples
}

// reportOps fills the end-to-end metrics, which mean the same on every
// workload in terms of operations, rounds and repeats. Every timing is first
// reduced, position by position, to its first decile over the repeats (see
// quiet) — the script as it runs when the box leaves it alone — and only
// then summed, averaged or ranked. An operation is short enough to get a quiet slot
// in a run even when no whole round does, and a median over operations of
// different kinds pooled across repeats sits at the edge of a mode and
// flips with the noise.
func reportOps(o *outcome, sc script, reps [][]opSample, setups, rss []float64) error {
	n := len(reps[0])
	for i := range reps {
		if len(reps[i]) != n {
			return fmt.Errorf("repeat %d ran %d operations, the first %d", i, len(reps[i]), n)
		}
	}
	if n%(sc.roundOps*sc.clients) != 0 {
		return fmt.Errorf("%d operations do not make rounds of %d for %d clients", n, sc.roundOps, sc.clients)
	}
	lat, latSamples := quietProfile(reps, func(p opSample) float64 { return p.latency })
	rep, repSamples := quietProfile(reps, func(p opSample) float64 { return p.reported })
	// ofKind keeps the positions of one edit kind, or every position when
	// the workload has no operation of that kind.
	ofKind := func(kind string) (profile, samples []float64) {
		for i, p := range reps[0] {
			if p.kind == kind {
				profile = append(profile, lat[i])
				samples = append(samples, latSamples[i*len(reps):(i+1)*len(reps)]...)
			}
		}
		if len(profile) == 0 {
			return lat, latSamples
		}
		return profile, samples
	}
	prep, prepSamples := ofKind(kindPrep)
	ml, mlSamples := ofKind(kindML)
	// A round's wall is the sum of its operations' walls, in the quiet
	// script and in each repeat.
	var rounds, roundSamples []float64
	for at := 0; at < n; at += sc.roundOps {
		rounds = append(rounds, sum(lat[at:at+sc.roundOps])/1000)
		for r := range reps {
			var wall float64
			for _, p := range reps[r][at : at+sc.roundOps] {
				wall += p.latency
			}
			roundSamples = append(roundSamples, wall/1000)
		}
	}
	// The clients are closed loops without think time: each is inside an
	// operation all the time, so the script takes a client the sum of its
	// operations' latencies, 1/clients of the sum over all of them.
	rates := make([]float64, len(reps))
	for r := range reps {
		var busy float64
		for _, p := range reps[r] {
			busy += p.latency
		}
		rates[r] = float64(n*sc.clients) / (busy / 1000)
	}
	o.setQuiet("setup_s", quiet(setups), setups)
	o.setQuiet("session_wall_s", median(rounds), roundSamples)
	o.setQuiet("iter_prep_ms", sum(prep)/float64(len(prep)), prepSamples)
	o.setQuiet("iter_ml_ms", sum(ml)/float64(len(ml)), mlSamples)
	o.setQuiet("run_wall_ms", median(rep), repSamples)
	o.setQuiet("submit_p50_ms", median(lat), latSamples)
	o.setQuiet("throughput_rps", float64(n*sc.clients)/(sum(lat)/1000), rates)
	o.setMedian("peak_rss_mb", rss)
	return nil
}

// nodeBusy sums a replay's per-node times (ms) by what the node did.
type nodeBusy struct {
	opPrep, opML, opEval, load, mat float64
	matNodes                        int
	matBytes                        int64
}

func busyOf(r *replayRecord) nodeBusy {
	var b nodeBusy
	for _, it := range r.iters {
		for id, nr := range it.rep.Nodes {
			switch it.rep.Plan.States[id] {
			case opt.Compute:
				switch core.Category(it.rep.Graph.Node(dag.NodeID(id)).Attrs[core.AttrCategory]) {
				case core.CatPrep:
					b.opPrep += ms(nr.Duration)
				case core.CatML:
					b.opML += ms(nr.Duration)
				case core.CatEval:
					b.opEval += ms(nr.Duration)
				}
			case opt.Load:
				b.load += ms(nr.Duration)
			}
			b.mat += ms(nr.MatDuration)
			if nr.Materialized {
				b.matNodes++
				b.matBytes += nr.Size
			}
		}
	}
	return b
}

// perLayer reports the layer metrics of a traced run: report fields from
// the real replays, spans from the mirrored ones, and the store and codec
// probes over the values the last mirrored replay materialized.
func (w *sessionWorkload) perLayer(e *env, o *outcome, tr *tracer, real, mirrored []*replayRecord, refRec *replayRecord, probeDir string) {
	iters := float64(len(real[0].iters))
	var overhead, planErr, execWall, realWalls, mirWalls []float64
	var opPrep, opML, opEval, loadBusy, matBusy, busyShare []float64
	var computed, loaded, pruned, matNodes, matMB, peakLive, allocMB, mallocs []float64
	counters := make(map[string][]float64)
	for _, r := range real {
		var wall float64
		for _, it := range r.iters {
			overhead = append(overhead, ms(it.wall-it.rep.Wall))
			wall += ms(it.rep.Wall)
			var measured int64
			for id, nr := range it.rep.Nodes {
				if it.rep.Plan.States[id] != opt.Prune {
					measured += nr.Duration.Nanoseconds()
				}
			}
			if measured > 0 {
				d := it.rep.PlanCost - measured
				if d < 0 {
					d = -d
				}
				planErr = append(planErr, float64(d)/float64(measured))
			}
		}
		b := busyOf(r)
		c, l, p := r.counts()
		execWall = append(execWall, wall)
		realWalls = append(realWalls, r.wall().Seconds())
		opPrep, opML, opEval = append(opPrep, b.opPrep), append(opML, b.opML), append(opEval, b.opEval)
		loadBusy, matBusy = append(loadBusy, b.load), append(matBusy, b.mat)
		busyShare = append(busyShare, (b.opPrep+b.opML+b.opEval+b.load)/(wall*sessionWorkers))
		computed, loaded, pruned = append(computed, float64(c)), append(loaded, float64(l)), append(pruned, float64(p))
		matNodes, matMB = append(matNodes, float64(b.matNodes)), append(matMB, mb(b.matBytes))
		peakLive = append(peakLive, float64(r.peakLive))
		allocMB = append(allocMB, mb(int64(r.allocBytes))/iters)
		mallocs = append(mallocs, float64(r.mallocs)/iters)
		addCounters(counters, r)
	}
	for _, r := range mirrored {
		mirWalls = append(mirWalls, r.wall().Seconds())
	}
	byKind := wallsByKind(real)

	o.setMedian("core.compile_ms", tr.durations("core.compile", time.Millisecond))
	o.setMedian("core.overhead_ms", overhead)
	o.setMedian("core.op_prep_ms", opPrep)
	o.setMedian("core.op_ml_ms", opML)
	o.setMedian("core.op_eval_ms", opEval)
	o.setMedian("core.iter_first_ms", byKind[kindInitial])
	o.setMedian("core.iter_eval_ms", byKind[kindEval])
	o.setMedian("core.iter_revert_ms", byKind[kindRevert])
	o.setMedian("core.alloc_mb_per_iter", allocMB)
	o.setMedian("core.mallocs_per_iter", mallocs)
	o.setMedian("sig.annotate_us", tr.durations("sig.annotate", time.Microsecond))
	o.setMedian("sig.diff_us", tr.durations("sig.diff", time.Microsecond))
	o.setMedian("opt.plan_ms", tr.durations("opt.plan", time.Millisecond))
	o.setMedian("opt.computed_nodes", computed)
	o.setMedian("opt.loaded_nodes", loaded)
	o.setMedian("opt.pruned_nodes", pruned)
	o.setMedian("opt.mat_nodes", matNodes)
	o.setMedian("opt.mat_mb", matMB)
	o.setMedian("opt.plan_cost_err", planErr)
	o.setMedian("exec.cost_model_ms", tr.durations("exec.cost_model", time.Millisecond))
	o.setMedian("exec.wall_ms", execWall)
	o.setMedian("exec.load_busy_ms", loadBusy)
	o.setMedian("exec.mat_busy_ms", matBusy)
	o.setMedian("exec.busy_share", busyShare)
	o.setMedian("exec.peak_live_bytes", peakLive)
	for name, xs := range counters {
		o.setMedian(name, xs)
	}
	last := real[len(real)-1].iters
	o.set("store.used_mb", mb(last[len(last)-1].rep.StoreUsed))
	o.set("store.spill_used_mb", mb(last[len(last)-1].rep.SpillUsed))
	// Nodes the budgets made the session compute again: the same walk on
	// unlimited budgets is the reference replay.
	if w.hot > 0 {
		rc, _, _ := refRec.counts()
		o.set("store.evict_recompute_nodes", median(computed)-float64(rc))
	} else {
		o.set("store.evict_recompute_nodes", 0)
	}
	o.setMedian("workload.gen_census_ms", tr.durations("workload.gen_census", time.Millisecond))
	o.setMedian("workload.gen_news_ms", tr.durations("workload.gen_news", time.Millisecond))
	o.set("trace.overhead_pct", 100*(median(mirWalls)/median(realWalls)-1))

	probeStoreAndCodec(e, o, probeDir)
	inapplicable(e, o, "dag.", "maxflow.", "serve.", "exec.dispatch_us_per_node")
}

// addCounters appends one replay's summed exec.Counters to the per-name
// sample lists.
func addCounters(dst map[string][]float64, r *replayRecord) {
	var total exec.Counters
	for _, it := range r.iters {
		total.Add(it.rep.Counters)
	}
	for name, v := range counterMetrics(total) {
		dst[name] = append(dst[name], v)
	}
}

func mb(bytes int64) float64 { return float64(bytes) / (1 << 20) }

// freshDir creates an empty scratch directory under the run's work root.
func (e *env) freshDir(tag string) (string, error) {
	e.dirSeq++
	dir := filepath.Join(e.workDir, fmt.Sprintf("%s-%d", tag, e.dirSeq))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
