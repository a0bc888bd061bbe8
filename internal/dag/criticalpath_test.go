package dag

import (
	"reflect"
	"testing"
)

// TestCriticalPathDiamond: on a -> {b,c} -> d the weight of each branch is
// its own cost plus d's, and the root carries the heavier branch.
func TestCriticalPathDiamond(t *testing.T) {
	g, a, b, c, d := diamond(t)
	w, err := g.CriticalPath([]int64{1, 10, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if w[d] != 5 {
		t.Errorf("sink weight = %d, want its own cost 5", w[d])
	}
	if w[b] != 15 || w[c] != 7 {
		t.Errorf("branch weights = %d, %d, want 15, 7", w[b], w[c])
	}
	if w[a] != 16 {
		t.Errorf("root weight = %d, want 1 + max(15, 7)", w[a])
	}
}

// TestCriticalPathStraggler: a shallow expensive node outweighs a deep
// cheap chain when costs say so, and loses when costs are uniform — the
// property the cost-aware scheduler depends on.
func TestCriticalPathStraggler(t *testing.T) {
	g := New()
	root := g.MustAddNode("root", "scan")
	slow := g.MustAddNode("slow", "learner")
	g.MustAddEdge(root, slow)
	prev := root
	chain := make([]NodeID, 0, 4)
	for _, name := range []string{"c0", "c1", "c2", "c3"} {
		id := g.MustAddNode(name, "op")
		g.MustAddEdge(prev, id)
		chain = append(chain, id)
		prev = id
	}

	// Uniform costs: the deep chain dominates the shallow straggler.
	uniform := []int64{1, 1, 1, 1, 1, 1}
	w, err := g.CriticalPath(uniform)
	if err != nil {
		t.Fatal(err)
	}
	if w[slow] != 1 || w[chain[0]] != 4 {
		t.Errorf("uniform weights: slow=%d chain-head=%d, want 1, 4", w[slow], w[chain[0]])
	}

	// Measured costs: the straggler's 100ns outweighs the 4-deep chain.
	measured := []int64{1, 100, 1, 1, 1, 1}
	w, err = g.CriticalPath(measured)
	if err != nil {
		t.Fatal(err)
	}
	if w[slow] <= w[chain[0]] {
		t.Errorf("measured weights: slow=%d not above chain-head=%d", w[slow], w[chain[0]])
	}
	if w[root] != 1+100 {
		t.Errorf("root weight = %d, want 101", w[root])
	}
}

// TestCriticalPathChain: weights along a chain are the suffix sums of the
// costs.
func TestCriticalPathChain(t *testing.T) {
	g := New()
	a := g.MustAddNode("a", "op")
	b := g.MustAddNode("b", "op")
	c := g.MustAddNode("c", "op")
	g.MustAddEdge(a, b)
	g.MustAddEdge(b, c)
	w, err := g.CriticalPath([]int64{2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{9, 7, 4}; !reflect.DeepEqual(w, want) {
		t.Errorf("chain weights = %v, want %v", w, want)
	}
}

// TestCriticalPathDisconnectedOutputs: two disconnected components weight
// independently — a heavy component never inflates the other's nodes.
func TestCriticalPathDisconnectedOutputs(t *testing.T) {
	g := New()
	a := g.MustAddNode("a", "op")
	b := g.MustAddNode("b", "op")
	g.MustAddEdge(a, b)
	g.Node(b).Output = true
	x := g.MustAddNode("x", "op")
	y := g.MustAddNode("y", "op")
	g.MustAddEdge(x, y)
	g.Node(y).Output = true
	w, err := g.CriticalPath([]int64{1, 1, 50, 50})
	if err != nil {
		t.Fatal(err)
	}
	if w[a] != 2 || w[b] != 1 {
		t.Errorf("light component weights = %d, %d, want 2, 1", w[a], w[b])
	}
	if w[x] != 100 || w[y] != 50 {
		t.Errorf("heavy component weights = %d, %d, want 100, 50", w[x], w[y])
	}
}

// TestCriticalPathErrors: mis-sized cost vectors and cyclic graphs are
// rejected.
func TestCriticalPathErrors(t *testing.T) {
	g, _, _, _, _ := diamond(t)
	if _, err := g.CriticalPath([]int64{1, 2}); err == nil {
		t.Error("mis-sized cost vector accepted")
	}
	cyc := New()
	a := cyc.MustAddNode("a", "op")
	b := cyc.MustAddNode("b", "op")
	cyc.MustAddEdge(a, b)
	cyc.parents[a] = append(cyc.parents[a], b) // force a cycle
	cyc.childs[b] = append(cyc.childs[b], a)
	if _, err := cyc.CriticalPath([]int64{1, 1}); err == nil {
		t.Error("cyclic graph accepted")
	}
}

// TestStructuralCosts: unit scaled by out-degree, positive-unit enforced.
func TestStructuralCosts(t *testing.T) {
	g := New()
	root := g.MustAddNode("root", "scan")
	a := g.MustAddNode("a", "op")
	b := g.MustAddNode("b", "op")
	g.MustAddEdge(root, a)
	g.MustAddEdge(root, b)
	g.MustAddEdge(a, b)
	costs, err := g.StructuralCosts(10)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{30, 20, 10} // out-degrees 2, 1, 0
	for i, w := range want {
		if costs[i] != w {
			t.Errorf("cost[%d] = %d, want %d", i, costs[i], w)
		}
	}
	if _, err := g.StructuralCosts(0); err == nil {
		t.Error("non-positive unit accepted")
	}
}

// TestCriticalPathOrderedMatchesCriticalPath: the order-reusing variant is
// exactly CriticalPath when handed a valid topological order, and rejects
// a mis-sized order.
func TestCriticalPathOrderedMatchesCriticalPath(t *testing.T) {
	g, _, _, _, _ := diamond(t)
	cost := []int64{3, 5, 7, 2}
	want, err := g.CriticalPath(cost)
	if err != nil {
		t.Fatal(err)
	}
	order, err := g.Topo()
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.CriticalPathOrdered(cost, order)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("weight[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if _, err := g.CriticalPathOrdered(cost, order[:1]); err == nil {
		t.Error("mis-sized order accepted")
	}
}
