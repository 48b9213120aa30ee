// Package graph provides the directed-multigraph substrate used by Blink's
// tree generation: capacitated typed edges, minimum-cost arborescences
// (Chu-Liu/Edmonds), maximum flow (Dinic) for optimal-rate bounds, and
// canonical forms for topology-uniqueness binning.
package graph

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// EdgeType distinguishes the interconnect class an edge models.
type EdgeType uint8

const (
	// NVLink is a point-to-point GPU link (one unit per physical link).
	NVLink EdgeType = iota
	// PCIe is a shared host interconnect link.
	PCIe
	// Net is a cross-machine network link (NIC).
	Net
	// NVSwitch is a link into a non-blocking switch fabric.
	NVSwitch
)

// String returns the conventional name of the edge type.
func (t EdgeType) String() string {
	if names := [...]string{"NVLink", "PCIe", "Net", "NVSwitch"}; int(t) < len(names) {
		return names[t]
	}
	return fmt.Sprintf("EdgeType(%d)", uint8(t))
}

// Edge is a directed, capacitated edge. Capacity is expressed in abstract
// bandwidth units (one NVLink port == 1.0); the simulator converts units to
// GB/s per edge type and hardware generation.
type Edge struct {
	ID   int
	From int
	To   int
	Cap  float64
	Type EdgeType
}

// Graph is a directed multigraph over dense vertex indices [0, N).
// Vertices may carry labels (e.g. physical GPU IDs) via Labels.
type Graph struct {
	N      int
	Edges  []Edge
	Labels []int // optional; Labels[v] is the external ID of vertex v

	out [][]int // out[v] = edge IDs leaving v
	in  [][]int // in[v] = edge IDs entering v
}

// New creates an empty graph with n vertices labeled 0..n-1.
func New(n int) *Graph {
	g := &Graph{N: n, Labels: make([]int, n), out: make([][]int, n), in: make([][]int, n)}
	for i := range g.Labels {
		g.Labels[i] = i
	}
	return g
}

// AddEdge appends a directed edge and returns its ID.
func (g *Graph) AddEdge(from, to int, cap float64, t EdgeType) int {
	if from < 0 || from >= g.N || to < 0 || to >= g.N {
		panic(fmt.Sprintf("graph: edge (%d->%d) out of range n=%d", from, to, g.N))
	}
	if from == to {
		panic("graph: self loops are not allowed")
	}
	id := len(g.Edges)
	g.Edges = append(g.Edges, Edge{ID: id, From: from, To: to, Cap: cap, Type: t})
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	return id
}

// AddBiEdge adds a pair of directed edges (one per direction) with the same
// capacity, modeling a bidirectional physical link. It returns both IDs.
func (g *Graph) AddBiEdge(a, b int, cap float64, t EdgeType) (int, int) {
	return g.AddEdge(a, b, cap, t), g.AddEdge(b, a, cap, t)
}

// Out returns the IDs of edges leaving v.
func (g *Graph) Out(v int) []int { return g.out[v] }

// In returns the IDs of edges entering v.
func (g *Graph) In(v int) []int { return g.in[v] }

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	ng := &Graph{N: g.N}
	ng.Edges = append([]Edge(nil), g.Edges...)
	ng.Labels = append([]int(nil), g.Labels...)
	ng.out = make([][]int, g.N)
	ng.in = make([][]int, g.N)
	for v := 0; v < g.N; v++ {
		ng.out[v] = append([]int(nil), g.out[v]...)
		ng.in[v] = append([]int(nil), g.in[v]...)
	}
	return ng
}

// InducedSubgraph returns the subgraph induced by the given vertex set,
// relabeling vertices densely in the order supplied. The Labels of the new
// graph carry the original labels of the selected vertices. It counts the
// kept edges and each vertex's lists before it fills them, so the result
// costs a few allocations however many edges it keeps.
func (g *Graph) InducedSubgraph(verts []int) *Graph {
	n := len(verts)
	ints := make([]int, g.N+2*n)
	idx, outs, ins := ints[:g.N], ints[g.N:g.N+n], ints[g.N+n:]
	for v := range idx {
		idx[v] = -1
	}
	for i, v := range verts {
		if v < 0 || v >= g.N {
			panic(fmt.Sprintf("graph: induced vertex %d out of range", v))
		}
		if idx[v] >= 0 {
			panic(fmt.Sprintf("graph: duplicate vertex %d in induced set", v))
		}
		idx[v] = i
	}
	m := 0
	for _, e := range g.Edges {
		if fi, ti := idx[e.From], idx[e.To]; fi >= 0 && ti >= 0 {
			outs[fi]++
			ins[ti]++
			m++
		}
	}
	ng := &Graph{N: n, Edges: make([]Edge, 0, m), Labels: make([]int, n), out: make([][]int, n), in: make([][]int, n)}
	slab := make([]int, 2*m)
	for i, v := range verts {
		ng.Labels[i] = g.Labels[v]
		ng.out[i], slab = slab[:0:outs[i]], slab[outs[i]:]
		ng.in[i], slab = slab[:0:ins[i]], slab[ins[i]:]
	}
	for _, e := range g.Edges {
		if fi, ti := idx[e.From], idx[e.To]; fi >= 0 && ti >= 0 {
			ng.AddEdge(fi, ti, e.Cap, e.Type)
		}
	}
	return ng
}

// StronglyConnectedFrom reports whether every vertex is reachable from root
// following directed edges (the requirement for an arborescence to exist).
func (g *Graph) StronglyConnectedFrom(root int) bool {
	seen := make([]bool, g.N)
	stack := []int{root}
	seen[root] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, id := range g.out[v] {
			u := g.Edges[id].To
			if !seen[u] {
				seen[u] = true
				count++
				stack = append(stack, u)
			}
		}
	}
	return count == g.N
}

// Connected reports whether the graph is connected when edges are treated as
// undirected.
func (g *Graph) Connected() bool {
	if g.N == 0 {
		return true
	}
	adj := make([][]int, g.N)
	for _, e := range g.Edges {
		adj[e.From] = append(adj[e.From], e.To)
		adj[e.To] = append(adj[e.To], e.From)
	}
	seen := make([]bool, g.N)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range adj[v] {
			if !seen[u] {
				seen[u] = true
				count++
				stack = append(stack, u)
			}
		}
	}
	return count == g.N
}

// TotalCap sums the capacity of all edges.
func (g *Graph) TotalCap() float64 {
	var s float64
	for _, e := range g.Edges {
		s += e.Cap
	}
	return s
}

// String renders a compact description, useful in test failures.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph{n=%d,", g.N)
	for _, e := range g.Edges {
		fmt.Fprintf(&b, " %d->%d(%.2g,%s)", e.From, e.To, e.Cap, e.Type)
	}
	b.WriteString("}")
	return b.String()
}

// Arborescence is a directed spanning tree rooted at Root: every vertex
// other than Root has exactly one incoming edge, and all vertices are
// reachable from Root.
type Arborescence struct {
	Root  int
	Edges []int // edge IDs in the owning graph, one per non-root vertex
}

// Key returns a canonical string identifying the tree's edge set. Trees with
// identical edge sets (regardless of discovery order) share a key.
func (a Arborescence) Key() string {
	var buf [64]int
	ids := append(buf[:0], a.Edges...)
	slices.Sort(ids)
	b := strconv.AppendInt(append(make([]byte, 0, 4+4*len(ids)), 'r'), int64(a.Root), 10)
	b = append(b, ':')
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return string(b)
}

// Parents returns parent[v] = edge ID of v's incoming tree edge (-1 for the
// root), validating the arborescence structure against g.
func (a Arborescence) Parents(g *Graph) ([]int, error) {
	parent := make([]int, g.N)
	for i := range parent {
		parent[i] = -1
	}
	for _, id := range a.Edges {
		if id < 0 || id >= len(g.Edges) {
			return nil, fmt.Errorf("graph: tree references unknown edge %d", id)
		}
		e := g.Edges[id]
		if e.To == a.Root {
			return nil, fmt.Errorf("graph: tree edge %d enters root %d", id, a.Root)
		}
		if parent[e.To] != -1 {
			return nil, fmt.Errorf("graph: vertex %d has two tree parents", e.To)
		}
		parent[e.To] = id
	}
	for v := 0; v < g.N; v++ {
		if v != a.Root && parent[v] == -1 {
			return nil, fmt.Errorf("graph: vertex %d not spanned", v)
		}
	}
	// Every vertex's parent chain reaches the root within N hops: no cycle
	// is disconnected from it.
	for v := range parent {
		for u, hops := v, 0; u != a.Root; u, hops = g.Edges[parent[u]].From, hops+1 {
			if hops == g.N {
				return nil, fmt.Errorf("graph: tree has a cycle disconnected from root %d", a.Root)
			}
		}
	}
	return parent, nil
}

// Validate reports whether the arborescence is a well-formed spanning tree
// of g rooted at Root.
func (a Arborescence) Validate(g *Graph) error {
	_, err := a.Parents(g)
	return err
}

// Depth returns the maximum hop count from the root to any vertex.
func (a Arborescence) Depth(g *Graph) int {
	parent, err := a.Parents(g)
	if err != nil {
		return -1
	}
	depth := 0
	for v := range parent {
		hops := 0
		for u := v; u != a.Root; u = g.Edges[parent[u]].From {
			hops++
		}
		depth = max(depth, hops)
	}
	return depth
}
