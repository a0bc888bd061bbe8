// Package dag provides the directed-acyclic-graph representation that the
// HELIX compiler produces from a Workflow and that the optimizers consume.
//
// A Graph is a set of nodes identified by dense integer IDs with directed
// edges from producers to consumers (an edge u->v means v consumes the
// intermediate result produced by u, i.e. u is a parent of v). The package
// offers the graph algorithms the rest of the system is built on:
// topological ordering, ancestor/descendant closures, program slicing
// against a set of output nodes, and DOT export for the visualization tool.
package dag

import (
	"fmt"
	"strings"
)

// NodeID identifies a node within a single Graph. IDs are dense: the first
// node added gets 0, the next 1, and so on.
type NodeID int

// InvalidNode is returned by lookups that fail.
const InvalidNode NodeID = -1

// Node is a vertex in the workflow DAG. The optimizer-relevant attributes
// (costs, output flag) live directly on the node; everything else the
// compiler wants to attach travels in Attrs.
type Node struct {
	ID   NodeID
	Name string
	// Op is a short operator type label ("scan", "extract", "learner", ...)
	// used by visualization and by the category-based statistics.
	Op string
	// Output marks nodes whose results the user requested (is_output()).
	Output bool
	// Attrs carries compiler metadata (signature, operator index, ...).
	Attrs map[string]string
}

// Graph is a mutable DAG. The zero value is not usable; call New.
type Graph struct {
	nodes   []Node
	parents [][]NodeID // parents[v] = producers consumed by v
	childs  [][]NodeID // childs[u]  = consumers of u
	byName  map[string]NodeID
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{byName: make(map[string]NodeID)}
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// AddNode appends a node and returns its ID. Names must be unique; adding a
// duplicate name returns an error so compiler bugs surface immediately.
func (g *Graph) AddNode(name, op string) (NodeID, error) {
	if _, ok := g.byName[name]; ok {
		return InvalidNode, fmt.Errorf("dag: duplicate node name %q", name)
	}
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Name: name, Op: op, Attrs: make(map[string]string)})
	g.parents = append(g.parents, nil)
	g.childs = append(g.childs, nil)
	g.byName[name] = id
	return id, nil
}

// MustAddNode is AddNode for construction paths where a duplicate is a
// programming error.
func (g *Graph) MustAddNode(name, op string) NodeID {
	id, err := g.AddNode(name, op)
	if err != nil {
		panic(err)
	}
	return id
}

// AddEdge records that child consumes parent's result. Self-loops and
// duplicate edges are rejected; cycle creation is rejected lazily by Topo.
func (g *Graph) AddEdge(parent, child NodeID) error {
	if !g.valid(parent) || !g.valid(child) {
		return fmt.Errorf("dag: edge %d->%d references unknown node", parent, child)
	}
	if parent == child {
		return fmt.Errorf("dag: self-loop on node %d (%s)", parent, g.nodes[parent].Name)
	}
	for _, p := range g.parents[child] {
		if p == parent {
			return fmt.Errorf("dag: duplicate edge %s->%s", g.nodes[parent].Name, g.nodes[child].Name)
		}
	}
	g.parents[child] = append(g.parents[child], parent)
	g.childs[parent] = append(g.childs[parent], child)
	return nil
}

// MustAddEdge is AddEdge that panics on error.
func (g *Graph) MustAddEdge(parent, child NodeID) {
	if err := g.AddEdge(parent, child); err != nil {
		panic(err)
	}
}

func (g *Graph) valid(id NodeID) bool { return id >= 0 && int(id) < len(g.nodes) }

// Node returns a pointer to the node with the given ID so callers can set
// attributes in place. It panics on invalid IDs: they can only come from a
// different graph, which is a logic error.
func (g *Graph) Node(id NodeID) *Node {
	if !g.valid(id) {
		panic(fmt.Sprintf("dag: invalid node id %d", id))
	}
	return &g.nodes[id]
}

// Lookup resolves a node name to its ID, or InvalidNode if absent.
func (g *Graph) Lookup(name string) NodeID {
	if id, ok := g.byName[name]; ok {
		return id
	}
	return InvalidNode
}

// Parents returns the producers consumed by v. The slice is owned by the
// graph; callers must not mutate it.
func (g *Graph) Parents(v NodeID) []NodeID { return g.parents[v] }

// Children returns the consumers of u. The slice is owned by the graph.
func (g *Graph) Children(u NodeID) []NodeID { return g.childs[u] }

// Outputs returns the IDs of all nodes marked Output, in ID order.
func (g *Graph) Outputs() []NodeID {
	var out []NodeID
	for i := range g.nodes {
		if g.nodes[i].Output {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// Topo returns a topological order (parents before children) or an error if
// the graph contains a cycle. The order is deterministic: among ready nodes
// the smallest ID is emitted first (Kahn's algorithm with a min-heap
// frontier, O((V+E) log V) — the execution engine runs it per Execute, so
// it must not re-sort the whole frontier per pop the way the original
// sorted-slice version did). It allocates the same three slices whatever
// the graph's size.
func (g *Graph) Topo() ([]NodeID, error) {
	n := len(g.nodes)
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		indeg[v] = len(g.parents[v])
	}
	// Ascending IDs already satisfy the heap invariant; the frontier never
	// holds more than n nodes, so pushes never reallocate.
	frontier := make(minIDHeap, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			frontier = append(frontier, NodeID(v))
		}
	}
	order := make([]NodeID, 0, n)
	for len(frontier) > 0 {
		u := frontier.pop()
		order = append(order, u)
		for _, c := range g.childs[u] {
			indeg[c]--
			if indeg[c] == 0 {
				frontier.push(c)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("dag: cycle detected (%d of %d nodes ordered)", len(order), n)
	}
	return order, nil
}

// minIDHeap is the Topo frontier: a min-heap of node IDs. It is hand-rolled
// rather than container/heap, whose interface API boxes every pushed and
// popped NodeID into an allocation.
type minIDHeap []NodeID

// push adds id, restoring the heap invariant (sift up).
func (h *minIDHeap) push(id NodeID) {
	s := append(*h, id)
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if s[parent] <= s[i] {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

// pop removes and returns the smallest ID, restoring the heap invariant
// (sift down). The heap must be non-empty.
func (h *minIDHeap) pop() NodeID {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s[r] < s[l] {
			m = r
		}
		if s[i] <= s[m] {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
}

// Indegrees returns, for each node, the number of parents for which keep
// returns true (nil keeps all). These are the initial pending-parent
// counters of a dependency-counting scheduler: node v becomes runnable when
// its counter reaches zero.
func (g *Graph) Indegrees(keep func(NodeID) bool) []int {
	out := make([]int, len(g.nodes))
	for v := range g.parents {
		for _, p := range g.parents[v] {
			if keep == nil || keep(p) {
				out[v]++
			}
		}
	}
	return out
}

// ConsumerCounts returns, for each node, the number of children for which
// keep returns true (nil keeps all). These are the initial reference counts
// for releasing a node's value once its last consumer has run.
func (g *Graph) ConsumerCounts(keep func(NodeID) bool) []int {
	out := make([]int, len(g.nodes))
	for u := range g.childs {
		for _, c := range g.childs[u] {
			if keep == nil || keep(c) {
				out[u]++
			}
		}
	}
	return out
}

// ReadySet returns the nodes whose entry in indeg is zero and for which keep
// returns true (nil keeps all), in ascending ID order — the initial ready
// set of a dependency-counting scheduler. indeg must have one entry per
// node, typically from Indegrees.
func (g *Graph) ReadySet(indeg []int, keep func(NodeID) bool) []NodeID {
	var out []NodeID
	for v := 0; v < len(g.nodes) && v < len(indeg); v++ {
		if indeg[v] == 0 && (keep == nil || keep(NodeID(v))) {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// CriticalPath returns, for each node, the weight of the heaviest path that
// starts at the node and follows edges downstream: weight(v) = cost[v] +
// max over children c of weight(c), with weight = cost[v] for sinks. With
// unit costs this degenerates to the downstream path length in nodes, so a
// scheduler using the weights stays critical-path-first even before any
// cost has been measured. cost must have one non-negative entry per node;
// the graph must be acyclic.
func (g *Graph) CriticalPath(cost []int64) ([]int64, error) {
	order, err := g.Topo()
	if err != nil {
		return nil, err
	}
	return g.CriticalPathOrdered(cost, order)
}

// CriticalPathOrdered is CriticalPath for callers that already hold a
// topological order of the graph (the execution engine computes one per
// Execute for its cycle check and must not pay for a second sort).
func (g *Graph) CriticalPathOrdered(cost []int64, order []NodeID) ([]int64, error) {
	if len(cost) != len(g.nodes) {
		return nil, fmt.Errorf("dag: %d costs for %d nodes", len(cost), len(g.nodes))
	}
	if len(order) != len(g.nodes) {
		return nil, fmt.Errorf("dag: order covers %d of %d nodes", len(order), len(g.nodes))
	}
	weight := make([]int64, len(g.nodes))
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		var best int64
		for _, c := range g.childs[v] {
			if weight[c] > best {
				best = weight[c]
			}
		}
		weight[v] = cost[v] + best
	}
	return weight, nil
}

// StructuralCosts returns a cheap per-node cost estimate for graphs (or
// nodes) that have never been measured: cost(v) = unit × (1 + out-degree).
// The intuition is purely structural — a result consumed by more downstream
// operators gates more of the remaining run, so charging it proportionally
// keeps first-iteration critical-path weights and live-byte peaks honest
// instead of flooring never-seen nodes at zero. unit must be positive so a
// cold node is never free.
func (g *Graph) StructuralCosts(unit int64) ([]int64, error) {
	if unit <= 0 {
		return nil, fmt.Errorf("dag: structural cost unit must be positive, got %d", unit)
	}
	out := make([]int64, len(g.nodes))
	for v := range g.nodes {
		out[v] = unit * int64(1+len(g.childs[v]))
	}
	return out, nil
}

// Ancestors returns the set of strict ancestors of v (v excluded).
func (g *Graph) Ancestors(v NodeID) map[NodeID]bool {
	seen := make(map[NodeID]bool)
	var visit func(NodeID)
	visit = func(u NodeID) {
		for _, p := range g.parents[u] {
			if !seen[p] {
				seen[p] = true
				visit(p)
			}
		}
	}
	visit(v)
	return seen
}

// Descendants returns the set of strict descendants of v (v excluded).
func (g *Graph) Descendants(v NodeID) map[NodeID]bool {
	seen := make(map[NodeID]bool)
	var visit func(NodeID)
	visit = func(u NodeID) {
		for _, c := range g.childs[u] {
			if !seen[c] {
				seen[c] = true
				visit(c)
			}
		}
	}
	visit(v)
	return seen
}

// Slice computes the program slice: the set of nodes from which at least one
// output node is reachable (outputs included). Nodes outside the slice are
// extraneous operations — HELIX prunes them without any code change by the
// user (§2.2, "program slicing component").
func (g *Graph) Slice() map[NodeID]bool {
	live := make(map[NodeID]bool)
	var visit func(NodeID)
	visit = func(u NodeID) {
		if live[u] {
			return
		}
		live[u] = true
		for _, p := range g.parents[u] {
			visit(p)
		}
	}
	for _, o := range g.Outputs() {
		visit(o)
	}
	return live
}

// Roots returns all nodes with no parents.
func (g *Graph) Roots() []NodeID {
	var out []NodeID
	for v := range g.nodes {
		if len(g.parents[v]) == 0 {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// Clone returns a deep copy of the graph. Attrs maps are copied.
func (g *Graph) Clone() *Graph {
	c := New()
	for i := range g.nodes {
		n := g.nodes[i]
		id := c.MustAddNode(n.Name, n.Op)
		cn := c.Node(id)
		cn.Output = n.Output
		for k, v := range n.Attrs {
			cn.Attrs[k] = v
		}
	}
	for v := range g.parents {
		for _, p := range g.parents[v] {
			c.MustAddEdge(p, NodeID(v))
		}
	}
	return c
}

// Names returns node names indexed by ID, useful for error messages.
func (g *Graph) Names() []string {
	out := make([]string, len(g.nodes))
	for i := range g.nodes {
		out[i] = g.nodes[i].Name
	}
	return out
}

// DOT renders the graph in Graphviz format. The decorate callback, if
// non-nil, returns extra attributes (e.g. `style=filled, fillcolor=gray`)
// for each node; it is how the viz tool paints load/materialize/prune marks.
func (g *Graph) DOT(title string, decorate func(NodeID) string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n  node [shape=box, fontname=\"Helvetica\"];\n", title)
	for i := range g.nodes {
		extra := ""
		if decorate != nil {
			extra = decorate(NodeID(i))
		}
		if extra != "" {
			extra = ", " + extra
		}
		fmt.Fprintf(&b, "  n%d [label=%q%s];\n", i, g.nodes[i].Name, extra)
	}
	for v := range g.parents {
		for _, p := range g.parents[v] {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", p, v)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
