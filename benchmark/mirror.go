package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/sig"
	"repro/internal/store"
)

// mirrorReplay is the traced pass of a session workload. It drives every
// iteration through the same public calls core.Session.RunCtx makes —
// core.Compile, Engine.BuildCostModel, opt.Optimal, Engine.ExecuteCtx,
// sig.Diff, History.Save — on an engine built from the same core.Options
// the way core.Open builds it, with a span around each call. The program is
// not edited to be traced; sessionWorkload.checkMirror holds this copy of
// its glue to the real path.
func mirrorReplay(tr *tracer, replay int, o core.Options, steps []step) (*replayRecord, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	root := tr.start("replay", "bench", -1, replay)
	defer tr.end(root)

	history := exec.NewHistory()
	var live store.Gauge
	engine := &exec.Engine{
		Policy:               o.Policy,
		Workers:              o.Workers,
		History:              history,
		Sched:                o.Sched,
		Order:                o.Order,
		Dispatch:             o.Dispatch,
		Reweight:             o.Reweight,
		ReleaseIntermediates: !o.KeepIntermediates,
		LiveBytes:            &live,
		Faults:               o.Faults,
		Codec:                o.Codec,
		Tenant:               o.Tenant,
	}
	historyPath := ""
	if o.StoreDir != "" {
		id := tr.start("store.open", "store", root, replay)
		st, err := store.Open(o.StoreDir, o.BudgetBytes)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		engine.Store = st
		if o.SpillDir != "" {
			if engine.Spill, err = store.OpenSpill(o.SpillDir, o.SpillBudgetBytes); err != nil {
				return nil, err
			}
		}
		historyPath = filepath.Join(o.StoreDir, historyFile)
		if err := history.Load(historyPath); err != nil {
			return nil, err
		}
	}

	rec := &replayRecord{}
	var prev *core.Compiled
	for i, st := range steps {
		t0 := time.Now()
		iter := tr.start("iteration", "core", root, replay)
		tr.attr(iter, "iteration", float64(i+1))

		id := tr.start("core.compile", "core", iter, replay)
		compiled, err := core.Compile(st.wf)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		g := compiled.Graph

		id = tr.start("exec.cost_model", "exec", iter, replay)
		cm, err := engine.BuildCostModel(g, compiled.Tasks)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		if !o.Reuse {
			for n := range cm.Loadable {
				cm.Loadable[n] = false
			}
		}
		for _, cat := range o.NeverReuse {
			for n := 0; n < g.Len(); n++ {
				if compiled.Category(dag.NodeID(n)) == cat {
					cm.Loadable[n] = false
				}
			}
		}

		id = tr.start("opt.plan", "opt", iter, replay)
		plan, err := opt.Optimal(g, cm)
		tr.end(id)
		if err != nil {
			return nil, err
		}

		id = tr.start("exec.execute", "exec", iter, replay)
		res, err := engine.ExecuteCtx(context.Background(), g, compiled.Tasks, plan)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("iteration %d: %w", i+1, err)
		}
		var busy, matBusy time.Duration
		var nodes int
		for n, nr := range res.Nodes {
			if plan.States[n] != opt.Prune {
				nodes++
				busy += nr.Duration
			}
			matBusy += nr.MatDuration
		}
		tr.attr(id, "nodes", float64(nodes))
		tr.attr(id, "node_busy_ms", ms(busy))
		tr.attr(id, "mat_busy_ms", ms(matBusy))

		var changes []sig.Change
		if prev != nil {
			id = tr.start("sig.diff", "sig", iter, replay)
			changes = sig.Diff(prev.Graph, g)
			tr.end(id)
		}
		prev = compiled

		outputs := make(map[string]any)
		for _, out := range g.Outputs() {
			if v, ok := res.Values[out]; ok {
				outputs[g.Node(out).Name] = v
			}
		}
		rep := &core.Report{
			Iteration: i + 1, System: o.SystemName, Workflow: st.wf.Name(),
			Wall: res.Wall, PlanCost: plan.Cost, Graph: g, Plan: plan,
			Nodes: res.Nodes, Changes: changes, Outputs: outputs, Counters: res.Counters,
		}
		if engine.Store != nil {
			rep.StoreUsed = engine.Store.Used()
			if engine.Spill != nil {
				rep.SpillUsed = engine.Spill.Used()
			}
		}
		if historyPath != "" {
			id = tr.start("exec.history_save", "exec", iter, replay)
			_ = history.Save(historyPath) // as in Session.RunCtx: a failed save only costs warm start
			tr.end(id)
		}
		tr.end(iter)
		wall := time.Since(t0)
		if err := rec.keep(st.kind, wall, rep); err != nil {
			return nil, err
		}

		// Off the iteration's path: the signature pass Compile already ran
		// inside itself, timed alone on the same graph.
		opSigs := make([]sig.Signature, len(compiled.Ops))
		for n, op := range compiled.Ops {
			opSigs[n] = sig.Operator(op.Type(), op.Params(), op.UDFVersion())
		}
		id = tr.start("sig.annotate", "sig", root, replay)
		_, err = sig.Annotate(g, opSigs)
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	rec.peakLive = live.Peak()
	return rec, nil
}
