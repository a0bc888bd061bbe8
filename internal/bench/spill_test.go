package bench

import (
	"testing"

	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/store"
)

// TestSpillDAGDeterministic: the spill shape's values are a pure function
// of the graph — an 8-worker engine run matches the sequential reference.
func TestSpillDAGDeterministic(t *testing.T) {
	sd := DefaultSpillDAG()
	a, err := RunSched(sd, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := SchedValuesEqual(a, sequentialRun(sd.G, sd.Tasks, sd.Plan(), nil)); err != nil {
		t.Fatal(err)
	}
}

// TestSpillUnderHotBudgetPressure is the tiered-store acceptance test:
// with the hot budget sized to reject at least a quarter of the spill
// shape's materialized bytes, execution with a spill tier must produce
// byte-identical values to the unbudgeted reference, actually spill, keep
// the hot tier inside its budget at every observation point, and keep the
// union of both tiers equal to the reference store's contents.
func TestSpillUnderHotBudgetPressure(t *testing.T) {
	sd := DefaultSpillDAG()

	// Unbudgeted reference: every value fits one hot tier.
	refStore, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	refEng := &exec.Engine{Workers: 8, Store: refStore, Policy: opt.MaterializeAll{}}
	ref, err := refEng.Execute(sd.G, sd.Tasks, sd.Plan())
	if err != nil {
		t.Fatal(err)
	}
	total := refStore.Used()
	if total == 0 {
		t.Fatal("reference run materialized nothing")
	}

	// Hot budget at half the materialized bytes rejects ≥25% of them; the
	// unbudgeted cold tier must absorb every rejection.
	hotBudget := total / 2
	hot, err := store.Open(t.TempDir(), hotBudget)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := store.OpenSpill(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	e := &exec.Engine{Workers: 8, Store: hot, Spill: cold, Policy: opt.MaterializeAll{}}
	res, err := e.Execute(sd.G, sd.Tasks, sd.Plan())
	if err != nil {
		t.Fatal(err)
	}
	if err := SchedValuesEqual(res, ref); err != nil {
		t.Fatalf("spill run values diverge from unbudgeted reference: %v", err)
	}
	if res.Spills == 0 {
		t.Fatal("Result.Spills = 0 under a hot budget rejecting half the bytes")
	}
	if hot.Used() > hotBudget {
		t.Fatalf("hot tier used %d over its %d budget", hot.Used(), hotBudget)
	}
	if cold.Used() < total/4 {
		t.Fatalf("cold tier holds %d bytes, want ≥ the rejected quarter of %d", cold.Used(), total)
	}
	assertTierUnionMatches(t, refStore, hot, cold)

	// Second iteration: load every materialized key. Cold hits must decode
	// byte-identically from the cold tier, and neither tier may change.
	loadPlan := &opt.Plan{States: make([]opt.State, sd.G.Len())}
	for i := range loadPlan.States {
		loadPlan.States[i] = opt.Load
	}
	res2, err := e.Execute(sd.G, sd.Tasks, loadPlan)
	if err != nil {
		t.Fatal(err)
	}
	if err := SchedValuesEqual(res2, ref); err != nil {
		t.Fatalf("all-load values diverge from reference: %v", err)
	}
	if res2.BufferedColdReads == 0 {
		t.Fatal("Result.BufferedColdReads = 0 after loading spilled keys")
	}
	if hot.Used() > hotBudget {
		t.Fatalf("hot tier used %d over its %d budget after cold loads", hot.Used(), hotBudget)
	}
	assertTierUnionMatches(t, refStore, hot, cold)

	// Cumulative engine counters agree with the per-run deltas.
	c := e.TierCounters()
	if c.Spills != res.Spills+res2.Spills || c.ColdReads != res.BufferedColdReads+res2.BufferedColdReads {
		t.Fatalf("cumulative counters %+v disagree with run deltas %d/%d spills, %d/%d cold reads",
			c, res.Spills, res2.Spills, res.BufferedColdReads, res2.BufferedColdReads)
	}
}

// assertTierUnionMatches checks that the union of the hot and cold tiers
// holds exactly the reference store's keys at exactly its sizes, with no
// key duplicated across tiers.
func assertTierUnionMatches(t *testing.T, ref, hot, cold *store.Store) {
	t.Helper()
	union := make(map[string]int64)
	for _, e := range hot.Entries() {
		union[e.Key] = e.Size
	}
	for _, e := range cold.Entries() {
		if _, dup := union[e.Key]; dup {
			t.Errorf("key %s present in both tiers", e.Key)
		}
		union[e.Key] = e.Size
	}
	refEntries := ref.Entries()
	if len(union) != len(refEntries) {
		t.Fatalf("tier union has %d keys, reference %d", len(union), len(refEntries))
	}
	for _, e := range refEntries {
		if size, ok := union[e.Key]; !ok || size != e.Size {
			t.Errorf("key %s: union size %d (present %v), reference %d", e.Key, size, ok, e.Size)
		}
	}
}

// TestSpillCostModelPricesTiers: after a budget-pressured run, the engine's
// cost model marks spilled keys loadable at the cold tier's (slower) price,
// so the optimizer can genuinely prefer recomputation for cold values.
func TestSpillCostModelPricesTiers(t *testing.T) {
	sd := DefaultSpillDAG()
	hotBudget := int64(3 * 33 << 10) // room for ~3 of the 24 payloads
	hot, err := store.Open(t.TempDir(), hotBudget)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := store.OpenSpill(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	e := &exec.Engine{Workers: 4, Store: hot, Spill: cold, Policy: opt.MaterializeAll{}, History: exec.NewHistory()}
	if _, err := e.Execute(sd.G, sd.Tasks, sd.Plan()); err != nil {
		t.Fatal(err)
	}
	cm, err := e.BuildCostModel(sd.G, sd.Tasks)
	if err != nil {
		t.Fatal(err)
	}
	var hotCost, coldCost []int64
	for i := 0; i < sd.G.Len(); i++ {
		key := sd.Tasks[i].Key
		if !cm.Loadable[i] {
			t.Errorf("node %d (%s) not loadable despite tiered materialization", i, key)
			continue
		}
		if hot.Has(key) {
			hotCost = append(hotCost, cm.Load[i])
		} else if cold.Has(key) {
			coldCost = append(coldCost, cm.Load[i])
		}
	}
	if len(hotCost) == 0 || len(coldCost) == 0 {
		t.Fatalf("want keys in both tiers, got %d hot / %d cold", len(hotCost), len(coldCost))
	}
	// Every never-loaded payload is the same size, so seeded estimates are
	// uniform per tier and the cold estimate must be strictly slower. Use
	// the maximum hot cost vs minimum cold cost to stay robust against the
	// couple of small nodes (root/join).
	maxHot, minCold := int64(0), int64(1<<62)
	for _, c := range hotCost {
		if c > maxHot {
			maxHot = c
		}
	}
	for _, c := range coldCost {
		if c < minCold {
			minCold = c
		}
	}
	if minCold <= maxHot {
		t.Fatalf("cold load costs (min %d) not priced above hot (max %d)", minCold, maxHot)
	}
}

// TestSpillEvictionLosesOnlyColdest: when the cold tier itself is too
// small, admissions delete its least-recently-spilled values — and the
// next cost model simply marks them unloadable instead of failing.
func TestSpillEvictionLosesOnlyColdest(t *testing.T) {
	sd := DefaultSpillDAG()
	hot, err := store.Open(t.TempDir(), 3*33<<10)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := store.OpenSpill(t.TempDir(), 5*33<<10) // too small for ~21 spills
	if err != nil {
		t.Fatal(err)
	}
	e := &exec.Engine{Workers: 4, Store: hot, Spill: cold, Policy: opt.MaterializeAll{}, History: exec.NewHistory()}
	res, err := e.Execute(sd.G, sd.Tasks, sd.Plan())
	if err != nil {
		t.Fatal(err)
	}
	if res.ColdEvictions == 0 {
		t.Fatal("undersized cold tier performed no evictions")
	}
	if cold.Used() > cold.Budget() {
		t.Fatalf("cold used %d over budget %d", cold.Used(), cold.Budget())
	}
	cm, err := e.BuildCostModel(sd.G, sd.Tasks)
	if err != nil {
		t.Fatal(err)
	}
	loadable := 0
	for i := 0; i < sd.G.Len(); i++ {
		if cm.Loadable[i] {
			loadable++
			id := dag.NodeID(i)
			if !hot.Has(sd.Tasks[id].Key) && !cold.Has(sd.Tasks[id].Key) {
				t.Errorf("node %d loadable but present in no tier", i)
			}
		}
	}
	if loadable == 0 || loadable == sd.G.Len() {
		t.Fatalf("loadable = %d of %d, want a strict subset after cold evictions", loadable, sd.G.Len())
	}
}
