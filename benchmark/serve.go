package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/serve"
	"repro/internal/sig"
	"repro/internal/workload"
)

// serveTenants is the number of closed-loop tenants: one goroutine and one
// connection each, never more than the box has cores.
const serveTenants = 2

// daemon is an in-process helix-serve behind a real HTTP listener.
type daemon struct {
	svc *serve.Service
	ts  *httptest.Server
	dir string
}

func startDaemon(e *env) (*daemon, error) {
	dir, err := e.freshDir("serve_tenants")
	if err != nil {
		return nil, err
	}
	svc, err := serve.New(serve.Config{
		Dir:              dir,
		HotBudgetBytes:   e.sizes.serveHot,
		SpillBudgetBytes: e.sizes.serveCold,
		Workers:          1,
		MaxConcurrent:    serveTenants,
		DefaultRows:      e.sizes.serveRows,
		DefaultSeed:      e.seed,
	})
	if err != nil {
		return nil, err
	}
	return &daemon{svc: svc, ts: httptest.NewServer(svc.Handler()), dir: dir}, nil
}

func (d *daemon) stop() error {
	d.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.svc.Shutdown(ctx)
	os.RemoveAll(d.dir)
	return err
}

// submission is one completed submit as the tenant saw it.
type submission struct {
	kind    string
	latency time.Duration
	body    serve.SubmitResponse
}

// tenant is one closed-loop client: its own connection, its own seeded
// walks, the next submit only after the previous reply.
type tenant struct {
	name   string
	client *http.Client
	url    string
}

func newTenant(id int, url string) *tenant {
	return &tenant{name: fmt.Sprintf("tenant-%d", id), url: url,
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
}

// submit posts one variant; any transport error or non-200 is an error.
func (t *tenant) submit(kind string, v serve.Variant) (*submission, error) {
	payload, err := json.Marshal(serve.SubmitRequest{Tenant: t.name, App: "census", Variant: v})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	resp, err := t.client.Post(t.url+"/v1/submit", "application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	latency := time.Since(t0)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	s := &submission{kind: kind, latency: latency}
	return s, json.Unmarshal(raw, &s.body)
}

// get times one GET round trip and returns the body.
func (t *tenant) get(path string) ([]byte, time.Duration, error) {
	t0 := time.Now()
	resp, err := t.client.Get(t.url + path)
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return raw, d, err
}

// tenantWalk is the walk a tenant takes in a given round: every round is a
// new session from the shared start version, its shape drawn from the tenant
// and the round, its labeling from the run's seed (shared by the tenants, so
// that equal shapes are equal workflows). Tenants start from the same
// version and draw from the same small knob space, so their prefixes overlap
// without being equal.
func tenantWalk(seed int64, tenant, round, steps int) []walkStep {
	return editWalk(int64(tenant)+1_000_003*int64(round+1), seed, steps, tenantMix)
}

// tenantMix is a tenant's walk: 20 % prep toggles, 20 % ML knobs, 25 % eval
// metric, 35 % reverts. With the versions other walks already left in the
// shared store, about two thirds of the submits are then served without
// running a data-prep or learning operator, so the median submit sits
// inside that mode (the daemon's own path: HTTP, JSON, admission, compile,
// plan, loads) and the 95th percentile inside the computing one. At the
// session mix the two modes are of equal weight, and the median falls in
// the gap between them and does not repeat.
var tenantMix = editMix{prep: 20, ml: 20, eval: 25}

// hashBook checks that equal variants always hash equally, whoever submits
// them and whenever.
type hashBook struct {
	mu   sync.Mutex
	seen map[serve.Variant]string
}

func (b *hashBook) agrees(v serve.Variant, hash string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if prev, ok := b.seen[v]; ok {
		return prev == hash
	}
	b.seen[v] = hash
	return true
}

// tenantRound is one tenant's walk, submit by submit, and whether it was
// traced.
type tenantRound struct {
	subs   []submission
	traced bool
}

// statusMax keeps the high-water marks of GET /v1/status over a run.
type statusMax struct {
	hot, cold int64
	queued    int
}

// runRounds runs both tenants concurrently. Each tenant walks the given
// number of rounds, starting with round number firstRound. With a prober (traced runs) every other round is
// traced — every submit gets a span and every serveProbeEvery-th submit is
// followed by the off-path layer probes — so that the untraced rounds beside
// them give the tracing overhead, and each tenant reads /v1/status once per
// round.
func runRounds(e *env, o *outcome, d *daemon, book *hashBook, pr *serveProber, firstRound, rounds int) ([][]tenantRound, statusMax, error) {
	out := make([][]tenantRound, serveTenants)
	errs := make([]error, serveTenants)
	var status statusMax
	var mu sync.Mutex // guards o and status
	var wg sync.WaitGroup
	for id := 0; id < serveTenants; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			t := newTenant(id, d.ts.URL)
			defer t.client.CloseIdleConnections()
			var prev *core.Compiled // the tenant's previous probed version
			for done := 0; done < rounds; done++ {
				round := firstRound + done
				walk := tenantWalk(e.seed, id, round, e.sizes.serveRound)
				var tr *tracer
				if pr != nil && (round+pr.parity)%2 == 0 {
					tr = pr.tr
				}
				rec := tenantRound{traced: tr != nil}
				parent := tr.start("round", "bench", -1, round*serveTenants+id)
				for i, ws := range walk {
					sp := tr.start("serve.submit", "serve", parent, round*serveTenants+id)
					s, err := t.submit(ws.Kind, ws.Variant)
					tr.end(sp)
					mu.Lock()
					o.attempted++
					if err != nil {
						o.fail(1, "%s round %d submit %d: %v", t.name, round, i, err)
					} else if !book.agrees(ws.Variant, s.body.OutputHash) {
						o.fail(1, "%s round %d submit %d: output digest differs from an earlier run of the same variant", t.name, round, i)
					}
					mu.Unlock()
					if err != nil {
						errs[id] = err
						return
					}
					tr.attr(sp, "server_wall_ms", s.body.WallMS)
					tr.attr(sp, "computed", float64(s.body.Computed))
					tr.attr(sp, "loaded", float64(s.body.Loaded))
					rec.subs = append(rec.subs, *s)
					if tr != nil && i%e.sizes.serveProbeEvery == 0 {
						if prev, err = pr.probe(prev, ws.Variant); err != nil {
							errs[id] = err
							return
						}
					}
				}
				tr.end(parent)
				out[id] = append(out[id], rec)
				if pr != nil {
					raw, _, err := t.get("/v1/status")
					var st serve.StatusResponse
					if err == nil {
						err = json.Unmarshal(raw, &st)
					}
					if err != nil {
						errs[id] = err
						return
					}
					mu.Lock()
					status.hot, status.cold = max(status.hot, st.HotUsedBytes), max(status.cold, st.ColdUsedBytes)
					status.queued = max(status.queued, st.Queued)
					mu.Unlock()
				}
			}
		}(id)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, status, err
		}
	}
	return out, status, nil
}

// runServeTenants is the daemon workload: two tenants submit edit walks to
// one in-process helix-serve over HTTP against a budgeted shared store. A
// repeat starts a daemon on an empty store, lets every tenant walk one round
// unmeasured (the first submit pays dataset generation, the round computes
// the start version every later walk loads) — that much is the set-up — and
// then measures serveRounds rounds per tenant. The walks are the same in
// every repeat, so the repeats differ only by what the box did and by how
// the two tenants happened to interleave.
func runServeTenants(e *env) (*outcome, error) {
	o := newOutcome()
	var pr *serveProber
	if e.trace {
		pr = newServeProber(e)
	}
	book := &hashBook{seen: make(map[serve.Variant]string)}

	var d *daemon
	var reps [][]opSample
	var setups, rss []float64
	var subs []submission
	var perRound []tenantRound
	var status statusMax
	start := time.Now()
	for k := 0; k < e.sizes.minRounds || time.Since(start).Seconds() < e.seconds; k++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(e); err != nil {
			return nil, err
		}
		if _, _, err := runRounds(e, o, d, book, nil, -1, 1); err != nil {
			d.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		settle()

		pr.attach(d, k)
		walked, st, err := runRounds(e, o, d, book, pr, 0, e.sizes.serveRounds)
		if err != nil {
			d.stop()
			return nil, err
		}
		rss = append(rss, peakRSSMB())
		status.hot, status.cold, status.queued = max(status.hot, st.hot), max(status.cold, st.cold), max(status.queued, st.queued)
		var rep []opSample
		for _, perTenant := range walked {
			for _, r := range perTenant {
				perRound = append(perRound, r)
				subs = append(subs, r.subs...)
				for _, sub := range r.subs {
					rep = append(rep, opSample{kind: sub.kind, latency: ms(sub.latency), reported: sub.body.WallMS})
				}
			}
		}
		reps = append(reps, rep)
	}
	defer d.stop() // the last repeat's daemon serves the layer probes below
	if !e.trace {
		return o, reportOps(o, script{roundOps: e.sizes.serveRound, clients: serveTenants}, reps, setups, rss)
	}

	// Layer metrics.
	var nonExec, firstMS, latencies, reported, evalMS, revertMS []float64
	var totals exec.Counters
	var computed, loaded, pruned int
	for _, r := range perRound {
		firstMS = append(firstMS, ms(r.subs[0].latency))
	}
	for _, sub := range subs {
		nonExec = append(nonExec, ms(sub.latency)-sub.body.WallMS)
		latencies, reported = append(latencies, ms(sub.latency)), append(reported, sub.body.WallMS)
		totals.Add(sub.body.Counters)
		computed, loaded, pruned = computed+sub.body.Computed, loaded+sub.body.Loaded, pruned+sub.body.Pruned
		switch sub.kind {
		case kindEval:
			evalMS = append(evalMS, ms(sub.latency))
		case kindRevert:
			revertMS = append(revertMS, ms(sub.latency))
		}
	}
	t := newTenant(0, d.ts.URL)
	defer t.client.CloseIdleConnections()
	var healthz []float64
	for i := 0; i < 200; i++ {
		_, dur, err := t.get("/healthz")
		if err != nil {
			return nil, err
		}
		healthz = append(healthz, us(dur))
	}
	o.set("serve.submit_p95_ms", percentile(latencies, 0.95))
	o.set("serve.submit_p99_ms", percentile(latencies, 0.99))
	o.setMedian("serve.non_exec_ms", nonExec)
	o.setMedian("serve.healthz_us", healthz)
	perRepeat := 1 / float64(len(reps)) // counts are per repeat, not per run: a run holds as many repeats as fit its time
	o.set("serve.cross_session_hits", float64(totals.CrossSessionHits)*perRepeat)
	o.set("serve.loaded_share", float64(loaded)/float64(loaded+computed))
	o.set("serve.hot_used_mb", mb(status.hot))
	o.set("serve.cold_used_mb", mb(status.cold))
	o.set("serve.queued_max", float64(status.queued))
	tr := pr.tr
	o.setMedian("core.compile_ms", tr.durations("core.compile", time.Millisecond))
	o.setMedian("core.overhead_ms", nonExec)
	o.setMedian("core.iter_first_ms", firstMS)
	o.setMedian("core.iter_eval_ms", evalMS)
	o.setMedian("core.iter_revert_ms", revertMS)
	o.setMedian("sig.annotate_us", tr.durations("sig.annotate", time.Microsecond))
	o.setMedian("sig.diff_us", tr.durations("sig.diff", time.Microsecond))
	o.setMedian("opt.plan_ms", tr.durations("opt.plan", time.Millisecond))
	o.setMedian("exec.cost_model_ms", tr.durations("exec.cost_model", time.Millisecond))
	o.setMedian("exec.wall_ms", reported)
	n := float64(len(subs))
	o.set("opt.computed_nodes", float64(computed)/n)
	o.set("opt.loaded_nodes", float64(loaded)/n)
	o.set("opt.pruned_nodes", float64(pruned)/n)
	for name, v := range counterMetrics(totals) {
		o.set(name, v*perRepeat)
	}
	o.set("store.used_mb", mb(d.svc.Tiers().Hot().Used()))
	if cold := d.svc.Tiers().Cold(); cold != nil {
		o.set("store.spill_used_mb", mb(cold.Used()))
	}
	o.set("workload.gen_census_ms", ms(pr.genDur))
	// The probes run between a tenant's submits, so they add to no submit's
	// latency directly; what tracing costs here is their contention with the
	// other tenant, seen as the traced rounds' median submit against the
	// untraced rounds' beside them.
	var tracedMS, plainMS []float64
	for _, r := range perRound {
		for _, sub := range r.subs {
			if r.traced {
				tracedMS = append(tracedMS, ms(sub.latency))
			} else {
				plainMS = append(plainMS, ms(sub.latency))
			}
		}
	}
	o.set("trace.overhead_pct", 100*(median(tracedMS)/median(plainMS)-1))
	inapplicable(e, o, "core.", "opt.", "exec.", "store.", "codec.", "dag.", "maxflow.", "workload.")
	return o, finishTrace(e, o, tr, "serve_tenants", "round")
}

// serveProber times, between a tenant's submits, the layer calls a submit
// makes inside the daemon, on the submitted variant and against the
// daemon's own shared store: compile, signature pass, diff against the
// tenant's previous probed version, cost model, plan. Nothing is executed.
// Safe for both tenants at once: the engine is only read.
type serveProber struct {
	tr     *tracer
	data   workload.CensusData
	genDur time.Duration
	engine *exec.Engine
	parity int
}

func newServeProber(e *env) *serveProber {
	p := &serveProber{tr: newTracer()}
	t0 := time.Now()
	p.data = workload.GenerateCensus(e.sizes.serveRows, e.sizes.serveRows/4, e.seed)
	p.genDur = time.Since(t0)
	return p
}

// attach points the probes at the daemon of the run's k-th repeat and makes
// the repeat trace the rounds its neighbours leave untraced, so that every
// round of the script is traced in half the repeats. A nil prober (an
// untraced run) has nothing to attach.
func (p *serveProber) attach(d *daemon, k int) {
	if p == nil {
		return
	}
	p.parity = k % 2
	p.engine = &exec.Engine{Workers: 1, History: exec.NewHistory()}
	p.engine.UseTiers(d.svc.Tiers())
}

func (p *serveProber) probe(prev *core.Compiled, v serve.Variant) (*core.Compiled, error) {
	root := p.tr.start("probe", "bench", -1, -1)
	defer p.tr.end(root)
	wf := censusParams(p.data, v).Build()
	id := p.tr.start("core.compile", "core", root, -1)
	compiled, err := core.Compile(wf)
	p.tr.end(id)
	if err != nil {
		return nil, err
	}
	opSigs := make([]sig.Signature, len(compiled.Ops))
	for n, op := range compiled.Ops {
		opSigs[n] = sig.Operator(op.Type(), op.Params(), op.UDFVersion())
	}
	id = p.tr.start("sig.annotate", "sig", root, -1)
	_, err = sig.Annotate(compiled.Graph, opSigs)
	p.tr.end(id)
	if err != nil {
		return nil, err
	}
	if prev != nil {
		id = p.tr.start("sig.diff", "sig", root, -1)
		sig.Diff(prev.Graph, compiled.Graph)
		p.tr.end(id)
	}
	id = p.tr.start("exec.cost_model", "exec", root, -1)
	cm, err := p.engine.BuildCostModel(compiled.Graph, compiled.Tasks)
	p.tr.end(id)
	if err != nil {
		return nil, err
	}
	id = p.tr.start("opt.plan", "opt", root, -1)
	_, err = opt.Optimal(compiled.Graph, cm)
	p.tr.end(id)
	return compiled, err
}
