package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bench"
	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/maxflow"
	"repro/internal/opt"
)

// wideRoundReps is how many repetitions make one round of wide_dag (the
// unit session_wall_s sums over).
const wideRoundReps = 10

// wideShapeSeed fixes the cost vectors wide_dag's chains are given; the
// run's seed only decides which chain gets which vector.
const wideShapeSeed = 2018

// wideCostModel is the cost model wide_dag plans against, for the node
// numbering of bench.ContentionDAG (root 0, join 1, then chain by chain).
// Every node has a compute cost, and half the chain nodes also have a
// materialized result with a load cost of the same order, so the min-cut has
// a real choice to make along every chain. The per-chain cost vectors are
// drawn once from wideShapeSeed and the seed permutes them over the chains:
// the chains are interchangeable, so two seeds give different inputs and
// isomorphic planning problems, and the planner's work does not depend on
// the seed.
func wideCostModel(chains, depth int, seed int64) *opt.CostModel {
	shape := rand.New(rand.NewSource(wideShapeSeed))
	cm := opt.NewCostModel(2 + chains*depth)
	cm.Compute[0], cm.Compute[1] = 1_000, 1_000
	type cost struct {
		compute, load int64
		loadable      bool
	}
	vectors := make([][]cost, chains)
	for c := range vectors {
		vectors[c] = make([]cost, depth)
		for l := range vectors[c] {
			vectors[c][l] = cost{
				compute:  1_000 + shape.Int63n(1_000_000),
				load:     1_000 + shape.Int63n(1_000_000),
				loadable: shape.Intn(2) == 0,
			}
		}
	}
	for c, from := range rand.New(rand.NewSource(seed)).Perm(chains) {
		for l, v := range vectors[from] {
			id := 2 + c*depth + l
			cm.Compute[id] = v.compute
			if v.loadable {
				cm.Loadable[id], cm.Load[id] = true, v.load
			}
		}
	}
	return cm
}

// wideDAG is the planner-and-dispatch workload's fixed input.
type wideDAG struct {
	sd       *bench.SchedDAG
	cm       *opt.CostModel
	compute  *opt.Plan // the all-compute plan every repetition executes
	engine   *exec.Engine
	wantJoin int
	wantCost int64
}

func newWideDAG(e *env) (*wideDAG, error) {
	w := &wideDAG{
		sd:     bench.ContentionDAG(e.sizes.wideChains, e.sizes.wideDepth),
		engine: &exec.Engine{Workers: sessionWorkers, ReleaseIntermediates: true},
	}
	n := w.sd.G.Len()
	w.cm = wideCostModel(e.sizes.wideChains, e.sizes.wideDepth, e.seed)
	w.compute = w.sd.Plan()
	// Every task adds its node ID to its inputs: root is 0, join's own ID
	// is 1, so join sees the sum of all IDs.
	w.wantJoin = n * (n - 1) / 2
	first, err := opt.Optimal(w.sd.G, w.cm)
	if err != nil {
		return nil, err
	}
	if cost, err := opt.PlanCost(w.sd.G, w.cm, first.States); err != nil || cost != first.Cost {
		return nil, fmt.Errorf("wide_dag plan does not price to its own cost: %d vs %d (%v)", cost, first.Cost, err)
	}
	w.wantCost = first.Cost
	return w, nil
}

// rep is one operation: plan against the cost model, then execute the
// all-compute plan. It returns the plan and execute walls and the result.
func (w *wideDAG) rep(o *outcome, tr *tracer, parent, round int) (planWall, execWall time.Duration, res *exec.Result, err error) {
	t0 := time.Now()
	id := tr.start("opt.plan", "opt", parent, round)
	p, err := opt.Optimal(w.sd.G, w.cm)
	tr.end(id)
	t1 := time.Now()
	if err != nil {
		return 0, 0, nil, err
	}
	id = tr.start("exec.execute", "exec", parent, round)
	res, err = w.engine.Execute(w.sd.G, w.sd.Tasks, w.compute)
	tr.end(id)
	t2 := time.Now()
	if err != nil {
		return 0, 0, nil, err
	}
	o.attempted++
	if got, ok := res.Value(w.sd.G, "join"); !ok || got != w.wantJoin {
		o.fail(1, "wide_dag join value is %v, want %d", got, w.wantJoin)
	}
	if p.Cost != w.wantCost {
		o.fail(1, "wide_dag plan cost is %d, the first plan's was %d", p.Cost, w.wantCost)
	}
	return t1.Sub(t0), t2.Sub(t1), res, nil
}

// runWideDAG measures wide_dag: operators are no-ops, so opt.Optimal
// (max-flow over 2n projects) and the dataflow scheduler are the whole wall.
// A traced run traces every other round, so the untraced rounds beside them
// give the tracing overhead.
func runWideDAG(e *env) (*outcome, error) {
	o := newOutcome()
	var w *wideDAG
	var setups []float64
	for k := 0; k < e.sizes.setups; k++ {
		t0 := time.Now()
		var err error
		if w, err = newWideDAG(e); err != nil {
			return nil, err
		}
		if _, _, _, err := w.rep(o, nil, -1, -1); err != nil { // warm-up repetition
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		settle()
	}
	n := w.sd.G.Len()

	var tr *tracer
	if e.trace {
		tr = newTracer()
	}
	var reps [][]opSample
	var rss []float64
	var first, plain, tracedMS, planMS, execMS, dispatchUS, busyShare []float64
	counters := make(map[string][]float64)
	start := time.Now()
	for round := 0; round < e.sizes.minRounds || time.Since(start).Seconds() < e.seconds; round++ {
		rt := tr
		if round%2 == 1 {
			rt = nil
		}
		var rep []opSample
		settle()
		for i := 0; i < wideRoundReps; i++ {
			iter := rt.start("iteration", "bench", -1, round)
			planWall, execWall, res, err := w.rep(o, rt, iter, round)
			rt.end(iter)
			if err != nil {
				return nil, err
			}
			total := planWall + execWall
			if rt != nil {
				tracedMS = append(tracedMS, ms(total))
				continue
			}
			// No reporting layer here: the wall reported is the measured one.
			rep = append(rep, opSample{latency: ms(total), reported: ms(total)})
			if i == 0 {
				first = append(first, ms(total))
			}
			plain = append(plain, ms(total))
			planMS, execMS = append(planMS, ms(planWall)), append(execMS, ms(execWall))
			if !e.trace {
				continue
			}
			dispatchUS = append(dispatchUS, us(execWall)*sessionWorkers/float64(n))
			var busy time.Duration
			for _, nr := range res.Nodes {
				busy += nr.Duration
			}
			busyShare = append(busyShare, float64(busy)/float64(execWall*sessionWorkers))
			for name, v := range counterMetrics(res.Counters) {
				counters[name] = append(counters[name], v)
			}
		}
		if rt == nil {
			reps = append(reps, rep)
			rss = append(rss, peakRSSMB())
		}
	}

	if !e.trace {
		return o, reportOps(o, script{roundOps: wideRoundReps, clients: 1}, reps, setups, rss)
	}

	// Off the repetition's path: the dag and maxflow calls the planner and
	// the scheduler make inside themselves, timed alone on the same inputs.
	for i := 0; i < e.sizes.probeRounds; i++ {
		id := tr.start("dag.topo", "dag", -1, -1)
		_, err := w.sd.G.Topo()
		tr.end(id)
		if err != nil {
			return nil, err
		}
		id = tr.start("dag.critical_path", "dag", -1, -1)
		_, err = w.sd.G.CriticalPath(w.cm.Compute)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		ps := projectSelection(w.sd.G, w.cm)
		id = tr.start("maxflow.solve", "maxflow", -1, -1)
		_, _, err = ps.Solve()
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	o.setMedian("dag.topo_ms", tr.durations("dag.topo", time.Millisecond))
	o.setMedian("dag.critical_path_ms", tr.durations("dag.critical_path", time.Millisecond))
	o.setMedian("maxflow.solve_ms", tr.durations("maxflow.solve", time.Millisecond))
	o.setMedian("core.iter_first_ms", first)
	o.setMedian("opt.plan_ms", planMS)
	o.setMedian("exec.wall_ms", execMS)
	o.setMedian("exec.dispatch_us_per_node", dispatchUS)
	o.setMedian("exec.busy_share", busyShare)
	o.set("opt.computed_nodes", float64(n))
	for name, xs := range counters {
		o.setMedian(name, xs)
	}
	o.set("trace.overhead_pct", 100*(median(tracedMS)/median(plain)-1))
	inapplicable(e, o, "core.", "sig.", "opt.", "exec.", "store.", "codec.", "serve.", "workload.")
	return o, finishTrace(e, o, tr, "wide_dag", "iteration")
}

// finishTrace writes the run's trace file and prints the layer self-time
// table, failing the run if the self times do not add up to their root
// spans within 5 %.
func finishTrace(e *env, o *outcome, tr *tracer, workload, root string) error {
	path, err := tr.write(e.outDir, workload, e.seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(e.log, "  trace written to %s\n", path)
	if errPct := tr.printSelfTable(e.log, root); errPct > 5 {
		o.fail(0, "layer self times are %.1f %% away from the %s spans", errPct, root)
	}
	return nil
}

// projectSelection builds the project-selection instance opt.Optimal
// builds for (g, cm), so ProjectSelection.Solve can be timed alone.
func projectSelection(g *dag.Graph, cm *opt.CostModel) *maxflow.ProjectSelection {
	n := g.Len()
	ps := maxflow.NewProjectSelection(2 * n)
	for i := 0; i < n; i++ {
		l := opt.NoLoad
		if cm.Loadable[i] {
			l = cm.Load[i]
		}
		ps.SetProfit(i, l-cm.Compute[i])
		ps.SetProfit(n+i, -l)
		ps.Require(i, n+i)
		for _, p := range g.Parents(dag.NodeID(i)) {
			ps.Require(i, n+int(p))
		}
		if g.Node(dag.NodeID(i)).Output {
			ps.Force(n + i)
		}
	}
	return ps
}
