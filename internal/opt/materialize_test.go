package opt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dag"
)

func matCtx(load, compute, ancestors, size, budget int64) MatContext {
	return MatContext{
		LoadCost:            load,
		ComputeCost:         compute,
		AncestorComputeCost: ancestors,
		Size:                size,
		BudgetRemaining:     budget,
	}
}

func TestOnlineHeuristicMaterializesExpensiveChain(t *testing.T) {
	// r = 2*10 - (50 + 100) = -130 < 0: materialize.
	d := OnlineHeuristic{}.Decide(matCtx(10, 50, 100, 1000, 1_000_000))
	if !d.Materialize {
		t.Error("expected materialize")
	}
	if d.Reward != -130 {
		t.Errorf("reward = %d, want -130", d.Reward)
	}
}

func TestOnlineHeuristicSkipsCheapNode(t *testing.T) {
	// r = 2*100 - (5 + 10) = 185 > 0: loading costs more than recomputing.
	d := OnlineHeuristic{}.Decide(matCtx(100, 5, 10, 1000, 1_000_000))
	if d.Materialize {
		t.Error("expected skip")
	}
}

func TestOnlineHeuristicRespectsBudget(t *testing.T) {
	d := OnlineHeuristic{}.Decide(matCtx(10, 50, 100, 2000, 1000))
	if d.Materialize {
		t.Error("materialized over budget")
	}
	// Exactly at budget is allowed.
	d = OnlineHeuristic{}.Decide(matCtx(10, 50, 100, 1000, 1000))
	if !d.Materialize {
		t.Error("size == budget should materialize")
	}
}

func TestMaterializeAllRespectsBudgetOnly(t *testing.T) {
	// Even a worthless node is materialized if it fits.
	d := MaterializeAll{}.Decide(matCtx(1000, 1, 0, 10, 100))
	if !d.Materialize {
		t.Error("materialize-all skipped a fitting node")
	}
	d = MaterializeAll{}.Decide(matCtx(1, 1000, 1000, 200, 100))
	if d.Materialize {
		t.Error("materialize-all exceeded budget")
	}
}

func TestKnapsackOfflineBasic(t *testing.T) {
	items := []MatItem{
		{Node: 0, Benefit: 100, Cost: 10, Size: 60}, // net 90
		{Node: 1, Benefit: 80, Cost: 10, Size: 50},  // net 70
		{Node: 2, Benefit: 50, Cost: 10, Size: 50},  // net 40
	}
	// Budget 100: item0+item2 doesn't fit (110); best is 0 alone (90)? No:
	// 1+2 fit (100) with net 110 > 90.
	chosen, val, err := KnapsackOffline(items, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if val != 110 {
		t.Errorf("value = %d, want 110 (chosen %v)", val, chosen)
	}
	if chosen[0] || !chosen[1] || !chosen[2] {
		t.Errorf("chosen = %v, want [false true true]", chosen)
	}
}

func TestKnapsackOfflineSkipsNegativeNet(t *testing.T) {
	items := []MatItem{{Node: 0, Benefit: 5, Cost: 10, Size: 1}}
	chosen, val, err := KnapsackOffline(items, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if chosen[0] || val != 0 {
		t.Errorf("negative-net item chosen (val=%d)", val)
	}
}

func TestKnapsackOfflineValidation(t *testing.T) {
	if _, _, err := KnapsackOffline(nil, 100, 0); err == nil {
		t.Error("zero granularity accepted")
	}
	if _, _, err := KnapsackOffline(nil, -1, 1); err == nil {
		t.Error("negative budget accepted")
	}
}

func TestKnapsackOfflineGranularityRounding(t *testing.T) {
	// Size 1001 with gran 1000 occupies 2 units; budget 1999 (1 unit) can't
	// hold it.
	items := []MatItem{{Node: 0, Benefit: 100, Cost: 1, Size: 1001}}
	chosen, _, err := KnapsackOffline(items, 1999, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if chosen[0] {
		t.Error("item should not fit after rounding up")
	}
}

// bruteKnapsack enumerates subsets.
func bruteKnapsack(items []MatItem, budget int64, gran int64) int64 {
	n := len(items)
	var best int64
	for mask := 0; mask < 1<<n; mask++ {
		var sz, val int64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				sz += ((items[i].Size + gran - 1) / gran) * gran
				val += items[i].Benefit - items[i].Cost
			}
		}
		if sz <= (budget/gran)*gran && val > best {
			best = val
		}
	}
	return best
}

// Property: DP matches exhaustive search on random instances.
func TestQuickKnapsackOptimal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		items := make([]MatItem, n)
		for i := range items {
			items[i] = MatItem{
				Node:    dag.NodeID(i),
				Benefit: int64(r.Intn(100)),
				Cost:    int64(r.Intn(30)),
				Size:    int64(1 + r.Intn(50)),
			}
		}
		budget := int64(r.Intn(150))
		_, val, err := KnapsackOffline(items, budget, 1)
		if err != nil {
			return false
		}
		return val == bruteKnapsack(items, budget, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAncestorComputeCosts(t *testing.T) {
	g := dag.New()
	a := g.MustAddNode("a", "x")
	b := g.MustAddNode("b", "x")
	c := g.MustAddNode("c", "x")
	d := g.MustAddNode("d", "x")
	g.MustAddEdge(a, b)
	g.MustAddEdge(a, c)
	g.MustAddEdge(b, d)
	g.MustAddEdge(c, d)
	costs := []int64{5, 7, 11, 13}
	anc, err := AncestorComputeCosts(g, costs)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 5, 5, 23} // d: a+b+c = 5+7+11
	for i := range want {
		if anc[i] != want[i] {
			t.Errorf("anc[%d] = %d, want %d", i, anc[i], want[i])
		}
	}
	if _, err := AncestorComputeCosts(g, costs[:2]); err == nil {
		t.Error("mis-sized costs accepted")
	}
}

func TestAncestorClosures(t *testing.T) {
	g := dag.New()
	a := g.MustAddNode("a", "op")
	b := g.MustAddNode("b", "op")
	c := g.MustAddNode("c", "op")
	d := g.MustAddNode("d", "op")
	g.MustAddEdge(a, b)
	g.MustAddEdge(a, c)
	g.MustAddEdge(b, d)
	g.MustAddEdge(c, d)
	closures := AncestorClosures(g)
	if len(closures[a]) != 0 {
		t.Errorf("root has ancestors: %v", closures[a])
	}
	if len(closures[b]) != 1 || closures[b][0] != a {
		t.Errorf("closures[b] = %v, want [a]", closures[b])
	}
	want := []dag.NodeID{a, b, c}
	if len(closures[d]) != len(want) {
		t.Fatalf("closures[d] = %v, want %v", closures[d], want)
	}
	for i, id := range want {
		if closures[d][i] != id {
			t.Errorf("closures[d] = %v, want %v (sorted)", closures[d], want)
			break
		}
	}
}

// TestCostSensitiveDecisionsUseAncestorTerm: the online heuristic's
// r_i = 2*l_i − (c_i + Σ ancestors) must flip from "don't" to "do"
// materialize as the ancestor chain grows.
func TestCostSensitiveDecisionsUseAncestorTerm(t *testing.T) {
	ctx := MatContext{ComputeCost: 10, LoadCost: 100, Size: 1, BudgetRemaining: 1 << 20}
	if d := (OnlineHeuristic{}).Decide(ctx); d.Materialize {
		t.Fatalf("cheap chain materialized: r=%d", d.Reward)
	}
	ctx.AncestorComputeCost = 1000 // rebuild chain now dominates 2*l_i
	if d := (OnlineHeuristic{}).Decide(ctx); !d.Materialize {
		t.Fatalf("expensive chain not materialized: r=%d", d.Reward)
	}
}
