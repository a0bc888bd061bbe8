package dag

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// diamond builds the classic a -> {b,c} -> d shape used across tests.
func diamond(t *testing.T) (*Graph, NodeID, NodeID, NodeID, NodeID) {
	t.Helper()
	g := New()
	a := g.MustAddNode("a", "scan")
	b := g.MustAddNode("b", "extract")
	c := g.MustAddNode("c", "extract")
	d := g.MustAddNode("d", "learner")
	g.MustAddEdge(a, b)
	g.MustAddEdge(a, c)
	g.MustAddEdge(b, d)
	g.MustAddEdge(c, d)
	return g, a, b, c, d
}

func TestAddNodeDuplicate(t *testing.T) {
	g := New()
	if _, err := g.AddNode("x", "op"); err != nil {
		t.Fatalf("first add: %v", err)
	}
	if _, err := g.AddNode("x", "op"); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := New()
	a := g.MustAddNode("a", "op")
	b := g.MustAddNode("b", "op")
	if err := g.AddEdge(a, a); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(a, b); err != nil {
		t.Errorf("valid edge rejected: %v", err)
	}
	if err := g.AddEdge(a, b); err == nil {
		t.Error("duplicate edge accepted")
	}
	if err := g.AddEdge(a, NodeID(99)); err == nil {
		t.Error("edge to unknown node accepted")
	}
}

func TestLookup(t *testing.T) {
	g, a, _, _, _ := diamond(t)
	if got := g.Lookup("a"); got != a {
		t.Errorf("Lookup(a) = %d, want %d", got, a)
	}
	if got := g.Lookup("nope"); got != InvalidNode {
		t.Errorf("Lookup(nope) = %d, want InvalidNode", got)
	}
}

func TestTopoOrder(t *testing.T) {
	g, _, _, _, _ := diamond(t)
	order, err := g.Topo()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[NodeID]int)
	for i, v := range order {
		pos[v] = i
	}
	for v := 0; v < g.Len(); v++ {
		for _, p := range g.Parents(NodeID(v)) {
			if pos[p] >= pos[NodeID(v)] {
				t.Errorf("parent %d not before child %d", p, v)
			}
		}
	}
}

func TestTopoCycle(t *testing.T) {
	g := New()
	a := g.MustAddNode("a", "op")
	b := g.MustAddNode("b", "op")
	g.MustAddEdge(a, b)
	g.MustAddEdge(b, a)
	if _, err := g.Topo(); err == nil {
		t.Fatal("cycle not detected")
	}
}

// TestTopoSmallestIDFirst: among ready nodes Topo always emits the smallest
// ID, matching a reference Kahn's algorithm that scans the whole frontier
// for its minimum on every step.
func TestTopoSmallestIDFirst(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		g := randomDAG(r, 2+r.Intn(60), 0.15)
		got, err := g.Topo()
		if err != nil {
			t.Fatal(err)
		}
		indeg := g.Indegrees(nil)
		var frontier, want []NodeID
		for v := range indeg {
			if indeg[v] == 0 {
				frontier = append(frontier, NodeID(v))
			}
		}
		for len(frontier) > 0 {
			m := 0
			for i := range frontier {
				if frontier[i] < frontier[m] {
					m = i
				}
			}
			u := frontier[m]
			frontier = append(frontier[:m], frontier[m+1:]...)
			want = append(want, u)
			for _, c := range g.Children(u) {
				if indeg[c]--; indeg[c] == 0 {
					frontier = append(frontier, c)
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d nodes ordered, reference %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: position %d = %d, reference %d", trial, i, got[i], want[i])
			}
		}
	}
}

// TestTopoAllocsIndependentOfSize: Topo's allocation count does not grow
// with the number of nodes — the frontier pushes and pops no boxed IDs.
func TestTopoAllocsIndependentOfSize(t *testing.T) {
	allocs := func(g *Graph) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := g.Topo(); err != nil {
				t.Fatal(err)
			}
		})
	}
	r := rand.New(rand.NewSource(5))
	small := allocs(randomDAG(r, 20, 0.2))
	large := allocs(randomDAG(r, 2000, 0.005))
	if large > small {
		t.Fatalf("Topo allocates %.0f times on 2000 nodes, %.0f on 20", large, small)
	}
	if large > 3 {
		t.Fatalf("Topo allocates %.0f times, want at most its 3 slices", large)
	}
}

func TestAncestorsDescendants(t *testing.T) {
	g, a, b, c, d := diamond(t)
	anc := g.Ancestors(d)
	if len(anc) != 3 || !anc[a] || !anc[b] || !anc[c] {
		t.Errorf("Ancestors(d) = %v", anc)
	}
	if len(g.Ancestors(a)) != 0 {
		t.Errorf("Ancestors(a) should be empty")
	}
	desc := g.Descendants(a)
	if len(desc) != 3 || !desc[b] || !desc[c] || !desc[d] {
		t.Errorf("Descendants(a) = %v", desc)
	}
	if len(g.Descendants(d)) != 0 {
		t.Errorf("Descendants(d) should be empty")
	}
}

func TestSlice(t *testing.T) {
	g, a, b, _, d := diamond(t)
	// Add a dead branch hanging off a.
	dead := g.MustAddNode("dead", "extract")
	g.MustAddEdge(a, dead)
	g.Node(d).Output = true
	live := g.Slice()
	if !live[a] || !live[b] || !live[d] {
		t.Errorf("slice missing live nodes: %v", live)
	}
	if live[dead] {
		t.Error("dead node retained by slice")
	}
}

func TestSliceNoOutputs(t *testing.T) {
	g, _, _, _, _ := diamond(t)
	if live := g.Slice(); len(live) != 0 {
		t.Errorf("slice with no outputs = %v, want empty", live)
	}
}

func TestRootsOutputs(t *testing.T) {
	g, a, _, _, d := diamond(t)
	g.Node(d).Output = true
	roots := g.Roots()
	if len(roots) != 1 || roots[0] != a {
		t.Errorf("Roots = %v", roots)
	}
	outs := g.Outputs()
	if len(outs) != 1 || outs[0] != d {
		t.Errorf("Outputs = %v", outs)
	}
}

func TestClone(t *testing.T) {
	g, _, _, _, d := diamond(t)
	g.Node(d).Output = true
	g.Node(d).Attrs["sig"] = "abc"
	c := g.Clone()
	if c.Len() != g.Len() {
		t.Fatalf("clone len %d != %d", c.Len(), g.Len())
	}
	if !c.Node(d).Output || c.Node(d).Attrs["sig"] != "abc" {
		t.Error("clone lost node attributes")
	}
	// Mutating the clone must not affect the original.
	c.Node(d).Attrs["sig"] = "zzz"
	if g.Node(d).Attrs["sig"] != "abc" {
		t.Error("clone shares attrs map with original")
	}
	c.MustAddNode("extra", "op")
	if g.Len() == c.Len() {
		t.Error("clone shares node storage")
	}
}

func TestDOT(t *testing.T) {
	g, _, _, _, d := diamond(t)
	dot := g.DOT("wf", func(id NodeID) string {
		if id == d {
			return "fillcolor=gray"
		}
		return ""
	})
	for _, want := range []string{"digraph", "n0 -> n1", "fillcolor=gray", `label="a"`} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q in:\n%s", want, dot)
		}
	}
}

// randomDAG builds a DAG where edges only go from lower to higher IDs,
// guaranteeing acyclicity.
func randomDAG(rng *rand.Rand, n int, p float64) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		g.MustAddNode(string(rune('A'+i%26))+string(rune('0'+i/26)), "op")
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.MustAddEdge(NodeID(u), NodeID(v))
			}
		}
	}
	return g
}

// Property: Topo on random DAGs always succeeds and respects edges.
func TestQuickTopoRespectsEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, 2+r.Intn(30), 0.3)
		order, err := g.Topo()
		if err != nil {
			return false
		}
		pos := make(map[NodeID]int)
		for i, v := range order {
			pos[v] = i
		}
		for v := 0; v < g.Len(); v++ {
			for _, p := range g.Parents(NodeID(v)) {
				if pos[p] >= pos[NodeID(v)] {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: every node in the slice reaches an output, and every ancestor of
// a sliced node is sliced.
func TestQuickSliceClosedUnderAncestors(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, 2+r.Intn(25), 0.25)
		// Mark a random non-empty subset of nodes as outputs.
		for i := 0; i < g.Len(); i++ {
			if r.Float64() < 0.2 {
				g.Node(NodeID(i)).Output = true
			}
		}
		g.Node(NodeID(g.Len() - 1)).Output = true
		live := g.Slice()
		for v := range live {
			for _, p := range g.Parents(v) {
				if !live[p] {
					return false
				}
			}
		}
		// Everything not live must not be an output.
		for i := 0; i < g.Len(); i++ {
			if !live[NodeID(i)] && g.Node(NodeID(i)).Output {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestIndegrees(t *testing.T) {
	g, a, b, c, d := diamond(t)
	all := g.Indegrees(nil)
	want := map[NodeID]int{a: 0, b: 1, c: 1, d: 2}
	for id, w := range want {
		if all[id] != w {
			t.Errorf("Indegrees(nil)[%d] = %d, want %d", id, all[id], w)
		}
	}
	// Filtering out b models a pruned parent: d's counter drops to 1.
	noB := g.Indegrees(func(p NodeID) bool { return p != b })
	if noB[d] != 1 {
		t.Errorf("Indegrees(keep!=b)[d] = %d, want 1", noB[d])
	}
}

func TestConsumerCounts(t *testing.T) {
	g, a, b, c, d := diamond(t)
	all := g.ConsumerCounts(nil)
	want := map[NodeID]int{a: 2, b: 1, c: 1, d: 0}
	for id, w := range want {
		if all[id] != w {
			t.Errorf("ConsumerCounts(nil)[%d] = %d, want %d", id, all[id], w)
		}
	}
	onlyB := g.ConsumerCounts(func(ch NodeID) bool { return ch == b })
	if onlyB[a] != 1 || onlyB[b] != 0 {
		t.Errorf("ConsumerCounts(keep==b) = %v", onlyB)
	}
}

func TestReadySet(t *testing.T) {
	g, a, b, _, _ := diamond(t)
	indeg := g.Indegrees(nil)
	ready := g.ReadySet(indeg, nil)
	if len(ready) != 1 || ready[0] != a {
		t.Errorf("ReadySet = %v, want [%d]", ready, a)
	}
	// Simulate a finishing: b and c become ready; a filter can exclude them.
	indeg[b]--
	indeg[2]--
	got := g.ReadySet(indeg, func(v NodeID) bool { return v != a && v != b })
	if len(got) != 1 || got[0] != NodeID(2) {
		t.Errorf("filtered ReadySet = %v, want [2]", got)
	}
}
