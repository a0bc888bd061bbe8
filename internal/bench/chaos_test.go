package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/store"
)

// TestChaosEquivalence runs the spill-equivalence harness over 32 more
// seeded random DAGs (seeds 700-731), a range TestRandomizedSpillEquivalence
// does not cover.
func TestChaosEquivalence(t *testing.T) {
	spillEquivalence(t, 700, 32)
}

// loadEverythingPlan prepopulates the given tiered store with the truth
// values and returns a plan that loads every node the optimizer can —
// with load priced at 1 against compute at 1000, that is every node.
func loadEverythingPlan(t *testing.T, sd *SchedDAG, truth *exec.Result, tiers *store.Tiered) *opt.Plan {
	t.Helper()
	n := sd.G.Len()
	cm := opt.NewCostModel(n)
	for i := 0; i < n; i++ {
		raw, err := store.Encode(truth.Values[dag.NodeID(i)])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tiers.PutBytes(sd.Tasks[i].Key, raw); err != nil {
			t.Fatal(err)
		}
		cm.Compute[i] = 1000
		cm.Loadable[i] = true
		cm.Load[i] = 1
	}
	plan, err := opt.Optimal(sd.G, cm)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestSeededCorruptionRecompute is the acceptance corruption drill: cold
// frames for planned-load keys are deliberately bit-flipped and truncated,
// the run's loads hit store.ErrCorrupt, and the engine must recompute the
// damaged sub-DAGs from lineage and still produce byte-identical outputs —
// with the damage visible in the CorruptFrames and Recomputes counters.
func TestSeededCorruptionRecompute(t *testing.T) {
	sd := RandomDAG(4242)
	prime := &exec.Engine{Workers: 4}
	truth, err := prime.Execute(sd.G, sd.Tasks, sd.Plan())
	if err != nil {
		t.Fatal(err)
	}
	const tinyHot = 64 // everything beyond a couple of ints lives cold
	hot, err := store.Open(t.TempDir(), tinyHot)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := store.OpenSpill(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	plan := loadEverythingPlan(t, sd, truth, store.NewTiered(hot, cold))

	// Corrupt two cold frames belonging to planned loads: one bit-flip
	// (checksum mismatch), one truncation (short frame).
	kinds := []store.FaultKind{store.FaultBitFlip, store.FaultTruncate}
	corrupted := 0
	for i := 0; i < sd.G.Len() && corrupted < len(kinds); i++ {
		if plan.States[i] != opt.Load || !cold.Has(sd.Tasks[i].Key) {
			continue
		}
		if err := cold.InjectFault(sd.Tasks[i].Key, kinds[corrupted]); err != nil {
			t.Fatal(err)
		}
		corrupted++
	}
	if corrupted == 0 {
		t.Fatal("no cold planned-load key to corrupt; shrink the hot tier")
	}

	e := &exec.Engine{
		Workers: 4,
		Store:   hot,
		Spill:   cold,
		Policy:  opt.MaterializeAll{},
	}
	res, err := e.Execute(sd.G, sd.Tasks, plan)
	if err != nil {
		t.Fatalf("run with corrupt frames failed: %v", err)
	}
	if res.CorruptFrames < int64(corrupted) {
		t.Errorf("CorruptFrames = %d, want >= %d", res.CorruptFrames, corrupted)
	}
	if res.Recomputes == 0 {
		t.Error("Recomputes = 0: corrupt loads were not recovered by recompute")
	}
	for _, id := range sd.G.Outputs() {
		if !bytes.Equal(encodeValue(t, res.Values[id]), encodeValue(t, truth.Values[id])) {
			t.Errorf("output node %d differs from truth after corruption recovery", id)
		}
	}
}

// TestPersistentColdEIORecomputes drives a cold tier whose every read fails
// with a persistent injected EIO through a run that plans to load every
// node. A failed cold read is a miss: each planned load must fall back to a
// recompute from lineage, and the run must still produce the clean run's
// output bytes.
func TestPersistentColdEIORecomputes(t *testing.T) {
	sd := RandomDAG(1717)
	prime := &exec.Engine{Workers: 4}
	truth, err := prime.Execute(sd.G, sd.Tasks, sd.Plan())
	if err != nil {
		t.Fatal(err)
	}
	// A 1-byte hot budget rejects every value, so prepopulation lands all
	// keys cold; the plan loads every node, so every load must traverse the
	// EIO-injected cold tier.
	hot, err := store.Open(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := store.OpenSpill(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tiers := store.NewTiered(hot, cold)
	states := make([]opt.State, sd.G.Len())
	for i := 0; i < sd.G.Len(); i++ {
		raw, err := store.Encode(truth.Values[dag.NodeID(i)])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tiers.PutBytes(sd.Tasks[i].Key, raw); err != nil {
			t.Fatal(err)
		}
		states[i] = opt.Load
	}
	plan := &opt.Plan{States: states}
	eioKeys := 0
	for i := 0; i < sd.G.Len(); i++ {
		if cold.Has(sd.Tasks[i].Key) {
			if err := cold.InjectFault(sd.Tasks[i].Key, store.FaultEIO); err != nil {
				t.Fatal(err)
			}
			eioKeys++
		}
	}
	if eioKeys == 0 {
		t.Fatal("no cold planned-load key to fail; shrink the hot tier")
	}
	e := &exec.Engine{Workers: 4, Store: hot, Spill: cold}
	res, err := e.Execute(sd.G, sd.Tasks, plan)
	if err != nil {
		t.Fatalf("run with EIO cold tier failed: %v", err)
	}
	// Every failed planned load recomputes at least its own node.
	if res.Recomputes < int64(eioKeys) {
		t.Errorf("Recomputes = %d, want >= %d (one per EIO'd planned load)", res.Recomputes, eioKeys)
	}
	for _, id := range sd.G.Outputs() {
		if !bytes.Equal(encodeValue(t, res.Values[id]), encodeValue(t, truth.Values[id])) {
			t.Errorf("output node %d differs from the clean run under cold EIO", id)
		}
	}
}

// TestFatalFaultCancelsRun checks first-error cancellation: a failing
// node must abort the run — interrupting in-flight ctx-honoring operators
// — and the joined error must surface the operator's error, not the
// collateral context cancellations.
func TestFatalFaultCancelsRun(t *testing.T) {
	t.Run("worksteal", func(t *testing.T) {
		// A root fanning out to slow sleepers plus one failing node: the
		// sleepers are mid-sleep when the error lands.
		sd := WideDAG(8, 50*time.Millisecond)
		tasks := append([]exec.Task(nil), sd.Tasks...)
		boom := errors.New("operator failed")
		tasks[2].Run = func(context.Context, []any) (any, error) { return nil, boom }
		e := &exec.Engine{Workers: 4}
		start := time.Now()
		_, err := e.Execute(sd.G, tasks, sd.Plan())
		if err == nil {
			t.Fatal("run with a failing operator succeeded")
		}
		if !errors.Is(err, boom) {
			t.Fatalf("error %v does not wrap the operator error", err)
		}
		if errors.Is(err, context.Canceled) {
			t.Errorf("error %v carries the collateral cancellations", err)
		}
		// The run must die on the first error, well before the 50ms
		// sleepers would have finished naturally.
		if wall := time.Since(start); wall > 40*time.Millisecond {
			t.Errorf("cancellation took %v; in-flight sleepers were not interrupted", wall)
		}
	})
}

// TestChaosSingleFlightLeaderFailure extends the chaos harness to the
// single-flight plane: two engines race the same random DAG over one shared
// store with dedup on, and the first engine's copy of a mid-DAG node is
// doomed — it parks until another run's waiter arrives on its key, then
// dies, the seeded version of a leader crashing mid-node. The failed flight
// must release the surviving run's waiter to recompute the node locally,
// and that run must finish byte-identical to a clean solo run; the doomed
// run must fail; the registry must drain completely.
func TestChaosSingleFlightLeaderFailure(t *testing.T) {
	for i := 0; i < 4; i++ {
		seed := int64(950 + i)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sd := RandomDAG(seed)
			n := sd.G.Len()
			plan := sd.Plan()
			prime := &exec.Engine{Workers: 4}
			truth, err := prime.Execute(sd.G, sd.Tasks, plan)
			if err != nil {
				t.Fatalf("prime run: %v", err)
			}

			hot, err := store.Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			tv := store.NewTiered(hot, nil)
			newEngine := func() *exec.Engine {
				e := &exec.Engine{Workers: 4, Store: hot, Policy: opt.MaterializeAll{}, SingleFlight: true}
				e.UseTiers(tv)
				return e
			}

			// The doomed run's copy of node n/2 signals once it is computing,
			// then spins until a waiter from the other run parks on its key
			// and dies holding leadership.
			doomedID := n / 2
			doomedKey := sd.Tasks[doomedID].Key
			started := make(chan struct{})
			doomedTasks := make([]exec.Task, n)
			copy(doomedTasks, sd.Tasks)
			doomedTasks[doomedID].Run = func(ctx context.Context, _ []any) (any, error) {
				close(started)
				deadline := time.Now().Add(5 * time.Second)
				for tv.InflightWaiters(doomedKey) == 0 {
					if time.Now().After(deadline) {
						return nil, errors.New("no waiter ever parked on the doomed key")
					}
					time.Sleep(100 * time.Microsecond)
				}
				return nil, errors.New("leader killed mid-node")
			}

			doomedErr := make(chan error, 1)
			go func() {
				_, err := newEngine().Execute(sd.G, doomedTasks, plan)
				doomedErr <- err
			}()
			// Start the survivor only once the doomed run owns the key's
			// flight, so the waiter/leader roles are deterministic.
			<-started
			res, err := newEngine().Execute(sd.G, sd.Tasks, plan)
			if err != nil {
				t.Fatalf("surviving run: %v", err)
			}
			if err := <-doomedErr; err == nil {
				t.Fatal("doomed run succeeded, want mid-node failure")
			}

			if res.InflightWaits == 0 {
				t.Error("survivor never parked on the doomed run's flights")
			}
			for id, v := range truth.Values {
				if !bytes.Equal(encodeValue(t, res.Values[id]), encodeValue(t, v)) {
					t.Errorf("node %d differs from the clean run after the leader failed", id)
				}
			}
			if left := tv.InflightComputes(); left != 0 {
				t.Errorf("%d flights still registered after both runs ended", left)
			}
		})
	}
}
