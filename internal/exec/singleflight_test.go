package exec

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/opt"
	"repro/internal/store"
)

// sfChain builds a->b->c whose tasks count invocations in the shared
// counters slice — the probe every single-flight test asserts on: under
// dedup, each unique key's operator runs exactly once across ALL engines.
func sfChain(counters []*atomic.Int64) (*dag.Graph, []Task) {
	g := dag.New()
	a := g.MustAddNode("a", "scan")
	b := g.MustAddNode("b", "extract")
	c := g.MustAddNode("c", "learner")
	g.MustAddEdge(a, b)
	g.MustAddEdge(b, c)
	g.Node(c).Output = true
	tasks := []Task{
		{Key: "sf-ka", Run: func(context.Context, []any) (any, error) {
			counters[0].Add(1)
			return "a", nil
		}},
		{Key: "sf-kb", Run: func(_ context.Context, in []any) (any, error) {
			counters[1].Add(1)
			return in[0].(string) + "b", nil
		}},
		{Key: "sf-kc", Run: func(_ context.Context, in []any) (any, error) {
			counters[2].Add(1)
			return in[0].(string) + "c", nil
		}},
	}
	return g, tasks
}

func sfEngine(t *testing.T, tv *store.Tiered) *Engine {
	t.Helper()
	e := &Engine{
		Workers:      2,
		Store:        tv.Hot(),
		Policy:       opt.MaterializeAll{},
		SingleFlight: true,
	}
	e.UseTiers(tv)
	return e
}

// TestConcurrentEnginesSingleFlight runs N engines over one shared store
// executing the identical all-compute plan concurrently and asserts the
// exactly-once contract: each unique signature's operator runs once across
// the fleet, every other compute-planned node is served by the registry,
// and all runs end with identical output values. Run with -race in CI.
func TestConcurrentEnginesSingleFlight(t *testing.T) {
	t.Run("dataflow", func(t *testing.T) {
		hot, err := store.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		tv := store.NewTiered(hot, nil)
		counters := []*atomic.Int64{{}, {}, {}}
		g, tasks := sfChain(counters)
		plan := allCompute(3)

		const n = 4
		results := make([]*Result, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				e := sfEngine(t, tv)
				results[i], errs[i] = e.Execute(g, tasks, plan)
			}(i)
		}
		wg.Wait()

		var total, hits, waits int64
		for i := 0; i < n; i++ {
			if errs[i] != nil {
				t.Fatalf("run %d: %v", i, errs[i])
			}
			v, ok := results[i].Value(g, "c")
			if !ok || v.(string) != "abc" {
				t.Fatalf("run %d output = %v, %v; want abc", i, v, ok)
			}
			hits += results[i].InflightDedupHits
			waits += results[i].InflightWaits
		}
		for node, c := range counters {
			got := c.Load()
			total += got
			if got != 1 {
				t.Errorf("node %d operator ran %d times, want exactly 1", node, got)
			}
		}
		// The verification identity: summed over runs, computed-planned
		// nodes minus dedup hits equals the unique signature count.
		unique := int64(len(counters))
		if computed := int64(n) * unique; computed-hits != unique {
			t.Errorf("computed %d - hits %d = %d, want unique count %d",
				computed, hits, computed-hits, unique)
		}
		if hits != int64(n-1)*unique {
			t.Errorf("inflight dedup hits = %d, want %d", hits, int64(n-1)*unique)
		}
		if waits > hits {
			t.Errorf("inflight waits %d exceed hits %d: some waiter fell back to compute", waits, hits)
		}
		t.Logf("total ops %d, hits %d, waits %d", total, hits, waits)
	})
}

// TestSingleFlightWaiterTimeoutFallsBack parks a waiter behind a leader
// that never finishes inside the bound and asserts the waiter computes
// locally — progress beats dedup.
func TestSingleFlightWaiterTimeoutFallsBack(t *testing.T) {
	defer func(d time.Duration) { inflightWait = d }(inflightWait)
	inflightWait = 5 * time.Millisecond
	hot, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tv := store.NewTiered(hot, nil)

	release := make(chan struct{})
	g := dag.New()
	id := g.MustAddNode("slow", "scan")
	g.Node(id).Output = true
	blocking := []Task{{Key: "sf-slow", Run: func(context.Context, []any) (any, error) {
		<-release
		return "leader", nil
	}}}
	fast := []Task{{Key: "sf-slow", Run: func(context.Context, []any) (any, error) {
		return "waiter", nil
	}}}
	plan := allCompute(1)

	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		e := sfEngine(t, tv)
		if _, err := e.Execute(g, blocking, plan); err != nil {
			t.Errorf("leader run: %v", err)
		}
	}()
	waitInflight(t, tv, 1)

	w := sfEngine(t, tv)
	res, err := w.Execute(g, fast, plan)
	if err != nil {
		t.Fatalf("waiter run: %v", err)
	}
	if v, _ := res.Value(g, "slow"); v.(string) != "waiter" {
		t.Fatalf("waiter value = %v, want its own local compute", v)
	}
	if res.InflightWaits != 1 || res.InflightDedupHits != 0 {
		t.Fatalf("waits=%d hits=%d, want 1 wait and 0 hits", res.InflightWaits, res.InflightDedupHits)
	}
	close(release)
	<-leaderDone
}

// declineAll is a materialization policy that stores nothing.
type declineAll struct{}

func (declineAll) Decide(opt.MatContext) opt.MatDecision { return opt.MatDecision{} }

// TestSingleFlightLateRun runs a node to completion, then runs it again,
// still planned as a compute, over the same store after its flight has
// closed. The late run takes the earlier run's value only from the store:
// served with one dedup hit and no operator run when the policy
// materialized it, computed locally with no hit when the policy declined
// to store it.
func TestSingleFlightLateRun(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy opt.MatPolicy
		hits   int64 // the late run's InflightDedupHits
		runs   int64 // the late run's operator runs
	}{
		{"stored", opt.MaterializeAll{}, 1, 0},
		{"declined", declineAll{}, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hot, err := store.Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			tv := store.NewTiered(hot, nil)
			g := dag.New()
			id := g.MustAddNode("late", "scan")
			g.Node(id).Output = true
			var runs atomic.Int64
			tasks := []Task{{Key: "sf-late", Run: func(context.Context, []any) (any, error) {
				runs.Add(1)
				return "value", nil
			}}}
			plan := allCompute(1)
			run := func() *Result {
				t.Helper()
				e := sfEngine(t, tv)
				e.Policy = tc.policy
				res, err := e.Execute(g, tasks, plan)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}

			first := run()
			if n := tv.InflightComputes(); n != 0 {
				t.Fatalf("%d flights still open after the first run", n)
			}
			if stored := tv.Has("sf-late"); stored != (tc.hits == 1) {
				t.Fatalf("store holds the key = %v after the first run", stored)
			}
			runs.Store(0)
			late := run()
			if late.InflightDedupHits != tc.hits || runs.Load() != tc.runs {
				t.Fatalf("late run: dedup hits = %d, operator runs = %d; want %d and %d",
					late.InflightDedupHits, runs.Load(), tc.hits, tc.runs)
			}
			if late.Nodes[id].InflightHit != (tc.hits == 1) {
				t.Fatalf("late run InflightHit = %v, want %v", late.Nodes[id].InflightHit, tc.hits == 1)
			}
			fv, _ := first.Value(g, "late")
			lv, _ := late.Value(g, "late")
			if fv != "value" || lv != fv {
				t.Fatalf("first run value %v, late run value %v; want both value", fv, lv)
			}
		})
	}
}

// TestSingleFlightWaiterTakesLeaderValue parks a waiter behind a leader
// over a cold-only tier (every materialized value spills) and asserts the
// waiter is served the leader's value as the flight resolves: one dedup
// hit, no operator run, and no cold read of the bytes the leader just
// published.
func TestSingleFlightWaiterTakesLeaderValue(t *testing.T) {
	hot, err := store.Open(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := store.OpenSpill(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	tv := store.NewTiered(hot, cold)

	release := make(chan struct{})
	g := dag.New()
	id := g.MustAddNode("shared", "scan")
	g.Node(id).Output = true
	leaderVal := strings.Repeat("leader", 64)
	held := []Task{{Key: "sf-shared", Run: func(context.Context, []any) (any, error) {
		<-release
		return leaderVal, nil
	}}}
	var waiterRuns atomic.Int64
	own := []Task{{Key: "sf-shared", Run: func(context.Context, []any) (any, error) {
		waiterRuns.Add(1)
		return "waiter", nil
	}}}
	plan := allCompute(1)

	leaderRes := make(chan *Result, 1)
	go func() {
		res, err := sfEngine(t, tv).Execute(g, held, plan)
		if err != nil {
			t.Errorf("leader run: %v", err)
		}
		leaderRes <- res
	}()
	waitInflight(t, tv, 1)

	waiterRes := make(chan *Result, 1)
	go func() {
		res, err := sfEngine(t, tv).Execute(g, own, plan)
		if err != nil {
			t.Errorf("waiter run: %v", err)
		}
		waiterRes <- res
	}()
	for deadline := time.Now().Add(5 * time.Second); tv.InflightWaiters("sf-shared") == 0; {
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("waiter never parked on the leader's flight")
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)

	lres, wres := <-leaderRes, <-waiterRes
	if lres == nil || wres == nil {
		t.FailNow()
	}
	if wres.InflightDedupHits != 1 || waiterRuns.Load() != 0 {
		t.Fatalf("waiter dedup hits = %d, operator runs = %d; want 1 and 0", wres.InflightDedupHits, waiterRuns.Load())
	}
	if wres.BufferedColdReads != 0 {
		t.Fatalf("waiter made %d cold reads, want 0: the leader's value is taken, not read back", wres.BufferedColdReads)
	}
	lv, _ := lres.Value(g, "shared")
	wv, _ := wres.Value(g, "shared")
	if lv.(string) != leaderVal || wv.(string) != leaderVal {
		t.Fatalf("leader value %.12q…, waiter value %.12q…; want both the leader's", lv, wv)
	}
}

// TestSingleFlightLeaderFailureReleasesWaiter kills the computing leader
// once a waiter is parked and asserts the failed flight releases the
// waiter, which computes locally and succeeds — the failed run errors, the
// surviving run's output is the value a solo run would produce.
func TestSingleFlightLeaderFailureReleasesWaiter(t *testing.T) {
	t.Run("dataflow", func(t *testing.T) {
		hot, err := store.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		tv := store.NewTiered(hot, nil)

		g := dag.New()
		id := g.MustAddNode("fragile", "scan")
		g.Node(id).Output = true
		// The doomed leader spins until a waiter parks, then dies — the
		// deterministic seeded-fault version of a crash mid-node.
		doomed := []Task{{Key: "sf-fragile", Run: func(ctx context.Context, _ []any) (any, error) {
			deadline := time.Now().Add(5 * time.Second)
			for tv.InflightWaiters("sf-fragile") == 0 {
				if time.Now().After(deadline) {
					return nil, errors.New("no waiter ever parked")
				}
				time.Sleep(100 * time.Microsecond)
			}
			return nil, errors.New("leader killed mid-node")
		}}}
		survivor := []Task{{Key: "sf-fragile", Run: func(context.Context, []any) (any, error) {
			return "recovered", nil
		}}}
		plan := allCompute(1)

		leaderErr := make(chan error, 1)
		go func() {
			e := sfEngine(t, tv)
			_, err := e.Execute(g, doomed, plan)
			leaderErr <- err
		}()
		waitInflight(t, tv, 1)

		w := sfEngine(t, tv)
		res, err := w.Execute(g, survivor, plan)
		if err != nil {
			t.Fatalf("surviving run: %v", err)
		}
		if v, _ := res.Value(g, "fragile"); v.(string) != "recovered" {
			t.Fatalf("survivor value = %v, want recovered", v)
		}
		if res.InflightWaits != 1 {
			t.Fatalf("survivor waits = %d, want 1 (parked then released)", res.InflightWaits)
		}
		if err := <-leaderErr; err == nil {
			t.Fatal("doomed leader run succeeded, want error")
		}
		if n := tv.InflightComputes(); n != 0 {
			t.Fatalf("%d flights still registered after both runs ended", n)
		}
	})
}

// TestSingleFlightDisabledByDefault: the zero-value engine must never touch
// the registry — every run computes everything, exactly the pre-dedup
// semantics reuse-disabled comparator systems contract on.
func TestSingleFlightDisabledByDefault(t *testing.T) {
	hot, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tv := store.NewTiered(hot, nil)
	counters := []*atomic.Int64{{}, {}, {}}
	g, tasks := sfChain(counters)
	plan := allCompute(3)

	const n = 3
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := &Engine{Workers: 2, Store: hot}
			e.UseTiers(tv)
			if _, err := e.Execute(g, tasks, plan); err != nil {
				t.Errorf("run: %v", err)
			}
		}()
	}
	wg.Wait()
	for node, c := range counters {
		if got := c.Load(); got != n {
			t.Errorf("node %d ran %d times, want %d (no dedup without SingleFlight)", node, got, n)
		}
	}
}

// waitInflight polls until the registry holds n flights.
func waitInflight(t *testing.T, tv *store.Tiered, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for tv.InflightComputes() != n {
		if time.Now().After(deadline) {
			t.Fatalf("registry never reached %d in-flight computations", n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}
