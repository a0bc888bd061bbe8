package bench

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/store"
)

// schedConfig is one engine configuration under equivalence test.
type schedConfig struct {
	name    string
	release bool
}

// equivConfigs are the engine configurations that must agree with the
// sequential reference: with and without refcounted release of consumed
// intermediates.
func equivConfigs() []schedConfig {
	return []schedConfig{{"engine", false}, {"engine-release", true}}
}

// stateCounts tallies the executed node states.
func stateCounts(res *exec.Result) (computed, loaded, pruned int) {
	for _, nr := range res.Nodes {
		switch nr.State {
		case opt.Compute:
			computed++
		case opt.Load:
			loaded++
		case opt.Prune:
			pruned++
		}
	}
	return
}

// encodeValue renders one node value into comparable bytes.
func encodeValue(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := store.Encode(v)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return raw
}

// sharedSigDAG builds a diamond whose two middle nodes are identical
// subcomputations under content addressing: same key, same value. The
// executor must encode and persist that signature exactly once per run.
func sharedSigDAG(tag string) *SchedDAG {
	g := dag.New()
	root := g.MustAddNode("root", "scan")
	a := g.MustAddNode("twin-a", "op")
	b := g.MustAddNode("twin-b", "op")
	join := g.MustAddNode("join", "agg")
	g.MustAddEdge(root, a)
	g.MustAddEdge(root, b)
	g.MustAddEdge(a, join)
	g.MustAddEdge(b, join)
	g.Node(join).Output = true
	twin := func(_ context.Context, in []any) (any, error) { return in[0].(int) + 100, nil }
	return &SchedDAG{Name: "shared-sig", G: g, Tasks: []exec.Task{
		{Key: "ssk-root-" + tag, Run: func(context.Context, []any) (any, error) { return 1, nil }},
		{Key: "ssk-twin-" + tag, Run: twin},
		{Key: "ssk-twin-" + tag, Run: twin},
		{Key: "ssk-join-" + tag, Run: func(_ context.Context, in []any) (any, error) { return in[0].(int) * in[1].(int), nil }},
	}}
}

// TestSharedSignatureEncodedOnceAcrossExecutors closes the shared-key
// double-write hole: with two nodes sharing one result signature, the
// materialization writer's in-run dedupe must encode the shared signature
// exactly once — asserted via the instrumented store encode counter and
// the Result's BinaryEncodes — and charge its budget once.
func TestSharedSignatureEncodedOnceAcrossExecutors(t *testing.T) {
	t.Run("dataflow-worksteal-binary", func(t *testing.T) {
		// Repeat: the twins' race needs attempts to interleave, and the
		// counter must hold every time.
		for rep := 0; rep < 10; rep++ {
			sd := sharedSigDAG(fmt.Sprint(rep))
			st, err := store.Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			e := &exec.Engine{Workers: 4, Store: st, Policy: opt.MaterializeAll{}}
			before := store.EncodeCalls()
			res, err := e.Execute(sd.G, sd.Tasks, sd.Plan())
			if err != nil {
				t.Fatal(err)
			}
			// 3 distinct keys across 4 nodes: root, the shared twin
			// signature (once), join.
			if got := store.EncodeCalls() - before; got != 3 {
				t.Fatalf("rep %d: %d encodes, want 3 (shared signature encoded once)", rep, got)
			}
			if res.BinaryEncodes != 3 {
				t.Fatalf("rep %d: Result counts %d encodes, want 3", rep, res.BinaryEncodes)
			}
			entries := st.Entries()
			if len(entries) != 3 {
				t.Fatalf("rep %d: %d store entries, want 3", rep, len(entries))
			}
			var total int64
			for _, en := range entries {
				total += en.Size
			}
			if st.Used() != total {
				t.Fatalf("rep %d: store used %d != entry sum %d (budget double-reserved)", rep, st.Used(), total)
			}
		}
	})
}

// TestRandomizedSpillEquivalence forces the tiered store into the
// randomized harness: the same seeded graphs and mixed plans as the
// scheduler-equivalence test, but every configuration (with and without
// release) runs against a hot tier so small that most materializations
// spill and most loads hit cold — maximal cold-tier traffic under
// concurrency. Each configuration must still agree with the
// sequential reference over an unbudgeted single tier on byte-identical
// values and state counts, and the union of its two tiers must hold
// exactly the reference store's contents.
func TestRandomizedSpillEquivalence(t *testing.T) {
	const graphs = 16
	const tinyHot = 64 // bytes: a couple of encoded ints, then everything spills
	// Per-seed plans vary in how much they materialize or load, so spill
	// and cold-read traffic is asserted in aggregate across the whole
	// harness (subtests run sequentially).
	var totalSpills, totalColdReads int64
	for seed := int64(100); seed < 100+graphs; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sd := RandomDAG(seed)
			n := sd.G.Len()
			prime := &exec.Engine{Workers: 4}
			truth, err := prime.Execute(sd.G, sd.Tasks, sd.Plan())
			if err != nil {
				t.Fatalf("prime run: %v", err)
			}
			rng := rand.New(rand.NewSource(seed ^ 0x5eed))
			keep := make([]bool, n)
			cm := opt.NewCostModel(n)
			for i := 0; i < n; i++ {
				keep[i] = rng.Float64() < 0.5
				cm.Compute[i] = int64(rng.Intn(1000) + 1)
				if keep[i] {
					cm.Loadable[i] = true
					cm.Load[i] = int64(rng.Intn(1000) + 1)
				}
			}
			plan, err := opt.Optimal(sd.G, cm)
			if err != nil {
				t.Fatalf("plan: %v", err)
			}

			// prepopulate seeds the loadable keys through the tiered
			// admission path, so configs start from identical tier layouts.
			prepopulate := func(tiers *store.Tiered) {
				for i := 0; i < n; i++ {
					if !keep[i] {
						continue
					}
					raw, err := store.Encode(truth.Values[dag.NodeID(i)])
					if err != nil {
						t.Fatal(err)
					}
					if _, err := tiers.PutBytes(sd.Tasks[i].Key, raw); err != nil {
						t.Fatal(err)
					}
				}
			}

			// Sequential reference over an unbudgeted single tier.
			refStore, err := store.Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			prepopulate(store.NewTiered(refStore, nil))
			ref := sequentialRun(sd.G, sd.Tasks, plan, refStore)
			refC, refL, refP := stateCounts(ref)

			for _, c := range equivConfigs() {
				hot, err := store.Open(t.TempDir(), tinyHot)
				if err != nil {
					t.Fatal(err)
				}
				cold, err := store.OpenSpill(t.TempDir(), 0)
				if err != nil {
					t.Fatal(err)
				}
				prepopulate(store.NewTiered(hot, cold))
				e := &exec.Engine{
					Workers:              4,
					ReleaseIntermediates: c.release,
					Store:                hot,
					Spill:                cold,
					Policy:               opt.MaterializeAll{},
				}
				res, err := e.Execute(sd.G, sd.Tasks, plan)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				gotC, gotL, gotP := stateCounts(res)
				if gotC != refC || gotL != refL || gotP != refP {
					t.Errorf("%s: counts computed/loaded/pruned = %d/%d/%d, reference %d/%d/%d",
						c.name, gotC, gotL, gotP, refC, refL, refP)
				}
				totalSpills += res.Spills
				totalColdReads += res.BufferedColdReads
				if hot.Used() > tinyHot {
					t.Errorf("%s: hot tier used %d over its %d budget", c.name, hot.Used(), tinyHot)
				}
				if hot.Used()+cold.Used() > tinyHot && cold.Used() == 0 {
					t.Errorf("%s: contents exceed the hot budget yet the cold tier is empty", c.name)
				}
				for i := 0; i < n; i++ {
					id := dag.NodeID(i)
					refV, refOK := ref.Values[id]
					gotV, gotOK := res.Values[id]
					if c.release {
						if sd.G.Node(id).Output && !gotOK {
							t.Errorf("%s: output node %d released", c.name, i)
							continue
						}
						if gotOK && refOK && !bytes.Equal(encodeValue(t, gotV), encodeValue(t, refV)) {
							t.Errorf("%s: node %d value differs from reference", c.name, i)
						}
						continue
					}
					if gotOK != refOK {
						t.Errorf("%s: node %d present=%v, reference %v", c.name, i, gotOK, refOK)
						continue
					}
					if gotOK && !bytes.Equal(encodeValue(t, gotV), encodeValue(t, refV)) {
						t.Errorf("%s: node %d value differs from reference", c.name, i)
					}
				}
				union := make(map[string]int64)
				for _, en := range hot.Entries() {
					union[en.Key] = en.Size
				}
				for _, en := range cold.Entries() {
					if _, dup := union[en.Key]; dup {
						t.Errorf("%s: key %s in both tiers", c.name, en.Key)
					}
					union[en.Key] = en.Size
				}
				refEntries := refStore.Entries()
				if len(union) != len(refEntries) {
					t.Errorf("%s: tier union has %d keys, reference %d", c.name, len(union), len(refEntries))
					continue
				}
				for _, en := range refEntries {
					if size, ok := union[en.Key]; !ok || size != en.Size {
						t.Errorf("%s: key %s union size %d (present %v), reference %d",
							c.name, en.Key, size, ok, en.Size)
					}
				}
			}
		})
	}
	if totalSpills == 0 {
		t.Error("no run in the whole harness spilled despite the tiny hot tier")
	}
	if totalColdReads == 0 {
		t.Error("no run in the whole harness read a value from the cold tier")
	}
}

// TestRandomizedCodecEquivalence puts the cold-read path under the harness:
// the same seeded graphs and mixed plans as the spill harness, spill-forced
// through a tiny hot tier so most materializations land in the cold tier
// and most loads cross the cold read and the codec's decode path. Every
// run must agree with the sequential reference over an unbudgeted single
// tier on state counts and byte-identical values — the read path is a pure
// transport change.
func TestRandomizedCodecEquivalence(t *testing.T) {
	const graphs = 8
	const tinyHot = 64
	var totalSpills, totalColdReads int64
	for seed := int64(300); seed < 300+graphs; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sd := RandomDAG(seed)
			n := sd.G.Len()
			prime := &exec.Engine{Workers: 4}
			truth, err := prime.Execute(sd.G, sd.Tasks, sd.Plan())
			if err != nil {
				t.Fatalf("prime run: %v", err)
			}
			rng := rand.New(rand.NewSource(seed ^ 0x5eed))
			keep := make([]bool, n)
			cm := opt.NewCostModel(n)
			for i := 0; i < n; i++ {
				keep[i] = rng.Float64() < 0.5
				cm.Compute[i] = int64(rng.Intn(1000) + 1)
				if keep[i] {
					cm.Loadable[i] = true
					cm.Load[i] = int64(rng.Intn(1000) + 1)
				}
			}
			plan, err := opt.Optimal(sd.G, cm)
			if err != nil {
				t.Fatalf("plan: %v", err)
			}

			prepopulate := func(tiers *store.Tiered) {
				for i := 0; i < n; i++ {
					if !keep[i] {
						continue
					}
					raw, err := store.Encode(truth.Values[dag.NodeID(i)])
					if err != nil {
						t.Fatal(err)
					}
					if _, err := tiers.PutBytes(sd.Tasks[i].Key, raw); err != nil {
						t.Fatal(err)
					}
				}
			}

			refStore, err := store.Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			prepopulate(store.NewTiered(refStore, nil))
			ref := sequentialRun(sd.G, sd.Tasks, plan, refStore)
			refC, refL, refP := stateCounts(ref)

			hot, err := store.Open(t.TempDir(), tinyHot)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := store.OpenSpill(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			prepopulate(store.NewTiered(hot, cold))
			e := &exec.Engine{
				Workers: 4,
				Store:   hot,
				Spill:   cold,
				Policy:  opt.MaterializeAll{},
			}
			res, err := e.Execute(sd.G, sd.Tasks, plan)
			if err != nil {
				t.Fatal(err)
			}
			totalSpills += res.Spills
			totalColdReads += res.BufferedColdReads
			gotC, gotL, gotP := stateCounts(res)
			if gotC != refC || gotL != refL || gotP != refP {
				t.Errorf("counts computed/loaded/pruned = %d/%d/%d, reference %d/%d/%d",
					gotC, gotL, gotP, refC, refL, refP)
			}
			for i := 0; i < n; i++ {
				id := dag.NodeID(i)
				refV, refOK := ref.Values[id]
				gotV, gotOK := res.Values[id]
				if gotOK != refOK {
					t.Errorf("node %d present=%v, reference %v", i, gotOK, refOK)
					continue
				}
				if gotOK && !bytes.Equal(encodeValue(t, gotV), encodeValue(t, refV)) {
					t.Errorf("node %d value differs from reference", i)
				}
			}
		})
	}
	if totalSpills == 0 {
		t.Error("no run in the whole harness spilled despite the tiny hot tier")
	}
	if totalColdReads == 0 {
		t.Error("no run served a cold read")
	}
}

// TestRandomizedEvictionEquivalence puts the cold tier's eviction under the
// harness: across seeded random graphs with mixed plans, a clean run and a
// run with injected transient faults each execute against a cold tier
// sized to just hold the prepopulated loadable keys — so every fresh
// materialization during the run must evict — and must still agree with
// the sequential reference over an unbudgeted single tier on state
// counts and byte-identical values. Eviction is pure cache policy: it may
// change what survives the run (not asserted here), never what the run
// computes.
func TestRandomizedEvictionEquivalence(t *testing.T) {
	const graphs = 6
	const tinyHot = 64 // bytes: force nearly everything through cold admission
	const coldSlack = 64
	var totalEvictions, totalRetries int64
	for seed := int64(200); seed < 200+graphs; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sd := RandomDAG(seed)
			n := sd.G.Len()
			prime := &exec.Engine{Workers: 4}
			truth, err := prime.Execute(sd.G, sd.Tasks, sd.Plan())
			if err != nil {
				t.Fatalf("prime run: %v", err)
			}
			rng := rand.New(rand.NewSource(seed ^ 0x5eed))
			keep := make([]bool, n)
			cm := opt.NewCostModel(n)
			for i := 0; i < n; i++ {
				keep[i] = rng.Float64() < 0.5
				cm.Compute[i] = int64(rng.Intn(1000) + 1)
				if keep[i] {
					cm.Loadable[i] = true
					cm.Load[i] = int64(rng.Intn(1000) + 1)
				}
			}
			plan, err := opt.Optimal(sd.G, cm)
			if err != nil {
				t.Fatalf("plan: %v", err)
			}

			prepopulate := func(tiers *store.Tiered) {
				for i := 0; i < n; i++ {
					if !keep[i] {
						continue
					}
					raw, err := store.Encode(truth.Values[dag.NodeID(i)])
					if err != nil {
						t.Fatal(err)
					}
					if _, err := tiers.PutBytes(sd.Tasks[i].Key, raw); err != nil {
						t.Fatal(err)
					}
				}
			}

			// Size the cold budget from a dry prepopulation (framed sizes
			// differ from raw), plus slack small enough that the run's own
			// materializations are guaranteed to hit eviction pressure.
			dry, err := store.OpenSpill(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			dryHot, err := store.Open(t.TempDir(), tinyHot)
			if err != nil {
				t.Fatal(err)
			}
			prepopulate(store.NewTiered(dryHot, dry))
			coldBudget := dry.Used() + coldSlack

			refStore, err := store.Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			prepopulate(store.NewTiered(refStore, nil))
			ref := sequentialRun(sd.G, sd.Tasks, plan, refStore)
			refC, refL, refP := stateCounts(ref)

			for _, faults := range []bool{false, true} {
				name := fmt.Sprintf("f%v", faults)
				hot, err := store.Open(t.TempDir(), tinyHot)
				if err != nil {
					t.Fatal(err)
				}
				cold, err := store.OpenSpill(t.TempDir(), coldBudget)
				if err != nil {
					t.Fatal(err)
				}
				prepopulate(store.NewTiered(hot, cold))
				run := sd
				e := &exec.Engine{
					Workers: 4,
					Store:   hot,
					Spill:   cold,
					Policy:  opt.MaterializeAll{},
				}
				if faults {
					fp := DefaultFaultPlan(seed)
					run, _ = WithFaults(sd, fp)
					e.Faults = fp.Policy()
				}
				res, err := e.Execute(run.G, run.Tasks, plan)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				totalEvictions += res.ColdEvictions
				totalRetries += res.Retries
				gotC, gotL, gotP := stateCounts(res)
				if gotC != refC || gotL != refL || gotP != refP {
					t.Errorf("%s: counts computed/loaded/pruned = %d/%d/%d, reference %d/%d/%d",
						name, gotC, gotL, gotP, refC, refL, refP)
				}
				if cold.Used() > coldBudget {
					t.Errorf("%s: cold tier used %d over its %d budget", name, cold.Used(), coldBudget)
				}
				for i := 0; i < n; i++ {
					id := dag.NodeID(i)
					refV, refOK := ref.Values[id]
					gotV, gotOK := res.Values[id]
					if gotOK != refOK {
						t.Errorf("%s: node %d present=%v, reference %v", name, i, gotOK, refOK)
						continue
					}
					if gotOK && !bytes.Equal(encodeValue(t, gotV), encodeValue(t, refV)) {
						t.Errorf("%s: node %d value differs from reference", name, i)
					}
				}
			}
		})
	}
	if totalEvictions == 0 {
		t.Error("no run in the whole harness evicted despite the tight cold budget")
	}
	if totalRetries == 0 {
		t.Error("no faulted run retried despite injected transient faults")
	}
}

// TestRandomizedSchedulerEquivalence is the property harness of the
// engine: across ≥50 seeded random graphs with mixed load/compute/prune
// plans, every configuration (with and without ReleaseIntermediates) must
// agree with the sequential reference on byte-identical values, per-node
// states and computed/loaded/pruned counts, materialization outcomes, and
// final store contents. Each run executes against its own identically
// pre-populated store, so runs cannot influence each other.
func TestRandomizedSchedulerEquivalence(t *testing.T) {
	const graphs = 52
	for seed := int64(0); seed < graphs; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sd := RandomDAG(seed)
			n := sd.G.Len()

			// Ground-truth values from a storeless all-compute run.
			prime := &exec.Engine{Workers: 4}
			truth, err := prime.Execute(sd.G, sd.Tasks, sd.Plan())
			if err != nil {
				t.Fatalf("prime run: %v", err)
			}

			// A seeded random cost model marks about half the nodes
			// loadable; Optimal turns it into a mixed-state plan.
			rng := rand.New(rand.NewSource(seed ^ 0x5eed))
			keep := make([]bool, n)
			cm := opt.NewCostModel(n)
			for i := 0; i < n; i++ {
				keep[i] = rng.Float64() < 0.5
				cm.Compute[i] = int64(rng.Intn(1000) + 1)
				if keep[i] {
					cm.Loadable[i] = true
					cm.Load[i] = int64(rng.Intn(1000) + 1)
				}
			}
			plan, err := opt.Optimal(sd.G, cm)
			if err != nil {
				t.Fatalf("plan: %v", err)
			}

			prepopulated := func() *store.Store {
				st, err := store.Open(t.TempDir(), 0)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					if keep[i] {
						if err := st.Put(sd.Tasks[i].Key, truth.Values[dag.NodeID(i)]); err != nil {
							t.Fatal(err)
						}
					}
				}
				return st
			}
			run := func(c schedConfig) (*exec.Result, *store.Store) {
				st := prepopulated()
				e := &exec.Engine{
					Workers:              4,
					ReleaseIntermediates: c.release,
					Store:                st,
					Policy:               opt.MaterializeAll{},
				}
				res, err := e.Execute(sd.G, sd.Tasks, plan)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				return res, st
			}

			refStore := prepopulated()
			ref := sequentialRun(sd.G, sd.Tasks, plan, refStore)
			refC, refL, refP := stateCounts(ref)
			for _, c := range equivConfigs() {
				res, st := run(c)
				gotC, gotL, gotP := stateCounts(res)
				if gotC != refC || gotL != refL || gotP != refP {
					t.Errorf("%s: counts computed/loaded/pruned = %d/%d/%d, reference %d/%d/%d",
						c.name, gotC, gotL, gotP, refC, refL, refP)
				}
				for i := 0; i < n; i++ {
					id := dag.NodeID(i)
					if res.Nodes[i].State != ref.Nodes[i].State {
						t.Errorf("%s: node %d state %v, reference %v", c.name, i, res.Nodes[i].State, ref.Nodes[i].State)
					}
					if res.Nodes[i].Materialized != ref.Nodes[i].Materialized {
						t.Errorf("%s: node %d materialized %v, reference %v", c.name, i, res.Nodes[i].Materialized, ref.Nodes[i].Materialized)
					}
					refV, refOK := ref.Values[id]
					gotV, gotOK := res.Values[id]
					switch {
					case c.release:
						// Outputs must survive byte-identically; anything
						// else still present must match the reference.
						if sd.G.Node(id).Output {
							if !gotOK {
								t.Errorf("%s: output node %d released", c.name, i)
								continue
							}
						}
						if gotOK && refOK && !bytes.Equal(encodeValue(t, gotV), encodeValue(t, refV)) {
							t.Errorf("%s: node %d value differs from reference", c.name, i)
						}
					default:
						if gotOK != refOK {
							t.Errorf("%s: node %d present=%v, reference %v", c.name, i, gotOK, refOK)
							continue
						}
						if gotOK && !bytes.Equal(encodeValue(t, gotV), encodeValue(t, refV)) {
							t.Errorf("%s: node %d value differs from reference", c.name, i)
						}
					}
				}
				refEntries, gotEntries := refStore.Entries(), st.Entries()
				if len(refEntries) != len(gotEntries) {
					t.Errorf("%s: %d store entries, reference %d", c.name, len(gotEntries), len(refEntries))
					continue
				}
				for j := range refEntries {
					if refEntries[j].Key != gotEntries[j].Key || refEntries[j].Size != gotEntries[j].Size {
						t.Errorf("%s: store entry %d = %s/%d, reference %s/%d", c.name, j,
							gotEntries[j].Key, gotEntries[j].Size, refEntries[j].Key, refEntries[j].Size)
					}
				}
			}
		})
	}
}
