package graph

import (
	"errors"
	"math"
	"slices"
)

// ErrNotSpanning indicates no arborescence exists because some vertex is
// unreachable from the requested root.
var ErrNotSpanning = errors.New("graph: no spanning arborescence from root")

// MinCostArborescence computes a minimum-cost spanning arborescence rooted
// at root using the Chu-Liu/Edmonds contraction algorithm. cost maps an edge
// ID to its (non-negative) cost. It returns the IDs of the chosen edges and
// their total cost. It is a one-shot Arborescer; callers that solve the same
// graph repeatedly should hold one of those instead.
func MinCostArborescence(g *Graph, root int, cost func(edgeID int) float64) (Arborescence, float64, error) {
	costs := make([]float64, len(g.Edges))
	for _, e := range g.Edges {
		costs[e.ID] = cost(e.ID)
	}
	edges, total, err := NewArborescer(g).Solve(root, costs)
	if err != nil {
		return Arborescence{}, 0, err
	}
	tree := Arborescence{Root: root, Edges: append([]int(nil), edges...)}
	if err := tree.Validate(g); err != nil {
		return Arborescence{}, 0, err
	}
	return tree, total, nil
}

// Arborescer is a reusable Chu-Liu/Edmonds workspace bound to one graph. It
// keeps its contraction levels and per-vertex scratch across calls, so a
// caller solving the same graph under changing costs (the MWU packing loop)
// allocates nothing once the workspace has grown to the graph's deepest
// contraction. An Arborescer is not safe for concurrent use.
type Arborescer struct {
	g      *Graph
	levels []*arbLevel

	// verts is per-vertex scratch, rebuilt for each level in turn.
	verts   []vert
	entered []bool
	// picks holds the chosen edges of the level being unwound; the next
	// level's picks are built in lowPicks and the two swap.
	picks, lowPicks []int
}

// vert is a vertex's scratch at one level: its cheapest incoming weight,
// its mark in the cycle walk (0 before it, start+1 while the walk from start
// is on it, -1 once done), its cycle (-1 for none) and its vertex in the
// contracted level.
type vert struct {
	minW                float64
	mark, cycleOf, comp int
}

// cEdge is an edge of a contraction level: lower indexes the edges of the
// level below (at level 0, the graph edge ID).
type cEdge struct {
	from, to int
	w        float64
	lower    int
}

type arbLevel struct {
	n, root int
	edges   []cEdge
	minIn   []int // per vertex, index into edges (-1 for root)
	// cycles is the number of cycles found at this level; cycVerts lists
	// their vertices, cycle after cycle, in discovery order.
	cycles   int
	cycVerts []int
}

// NewArborescer returns an empty workspace for g.
func NewArborescer(g *Graph) *Arborescer { return &Arborescer{g: g} }

// resize returns s with length n (reusing its array when large enough),
// every element set to v.
func resize[T any](s []T, n int, v T) []T {
	if cap(s) < n {
		s = make([]T, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = v
	}
	return s
}

// Solve computes a minimum-cost spanning arborescence rooted at root, where
// cost[id] is the cost of the edge with that ID. It returns the chosen edge
// IDs and their total cost. The returned slice belongs to the workspace and
// is overwritten by the next call; unlike MinCostArborescence, Solve does
// not validate the tree.
func (a *Arborescer) Solve(root int, cost []float64) ([]int, float64, error) {
	g := a.g
	if root < 0 || root >= g.N {
		return nil, 0, errors.New("graph: root out of range")
	}
	if g.N == 1 {
		return nil, 0, nil
	}

	// Level 0 edges mirror the graph: built on the first call, reweighed on
	// every later one.
	cur := a.level(0)
	cur.n, cur.root = g.N, root
	if len(cur.edges) != len(g.Edges) {
		cur.edges = cur.edges[:0]
		for _, e := range g.Edges {
			cur.edges = append(cur.edges, cEdge{from: e.From, to: e.To, lower: e.ID})
		}
	}
	for i := range cur.edges {
		cur.edges[i].w = cost[cur.edges[i].lower]
	}

	depth := 0
	for {
		// Select the cheapest incoming edge for every non-root vertex, the
		// first of equal ones; no edge undercuts the root's -Inf. No level
		// has a self-loop: the graph has none, and contraction drops them.
		cur.minIn = resize(cur.minIn, cur.n, -1)
		vs := resize(a.verts, cur.n, vert{minW: math.Inf(1), cycleOf: -1})
		a.verts = vs
		vs[cur.root].minW = math.Inf(-1)
		for i, e := range cur.edges {
			if e.w < vs[e.to].minW {
				vs[e.to].minW, cur.minIn[e.to] = e.w, i
			}
		}
		for v := 0; v < cur.n; v++ {
			if v != cur.root && cur.minIn[v] == -1 {
				return nil, 0, ErrNotSpanning
			}
		}

		// Detect cycles among the selected edges.
		vs[cur.root].mark = -1
		for start := 0; start < cur.n; start++ {
			if vs[start].mark != 0 {
				continue
			}
			// Walk predecessor pointers until a visited vertex.
			v := start
			for vs[v].mark == 0 {
				vs[v].mark = start + 1
				v = cur.edges[cur.minIn[v]].from
				if v == cur.root {
					break
				}
			}
			if v != cur.root && vs[v].mark == start+1 {
				// Found a fresh cycle through v.
				ci := cur.cycles
				cur.cycles++
				cur.cycVerts = append(cur.cycVerts, v)
				vs[v].cycleOf = ci
				for u := cur.edges[cur.minIn[v]].from; u != v; u = cur.edges[cur.minIn[u]].from {
					cur.cycVerts = append(cur.cycVerts, u)
					vs[u].cycleOf = ci
				}
			}
			// Mark the walked path as finished.
			for u := start; u != cur.root && vs[u].mark == start+1; u = cur.edges[cur.minIn[u]].from {
				vs[u].mark = -1
			}
		}

		if cur.cycles == 0 {
			break
		}

		// Contract every cycle into a single vertex: vertices outside cycles
		// keep their order, then cycle ci becomes vertex next+ci.
		next := 0
		for v := range vs {
			if vs[v].cycleOf == -1 {
				vs[v].comp = next
				next++
			}
		}
		for v := range vs {
			if ci := vs[v].cycleOf; ci >= 0 {
				vs[v].comp = next + ci
			}
		}
		next += cur.cycles

		depth++
		nl := a.level(depth)
		nl.n, nl.root = next, vs[cur.root].comp
		edges, k := slices.Grow(nl.edges, len(cur.edges))[:len(cur.edges)], 0
		for i, e := range cur.edges {
			cf, ct := vs[e.from].comp, vs[e.to].comp
			if cf == ct {
				continue
			}
			w := e.w
			if vs[e.to].cycleOf >= 0 {
				w -= vs[e.to].minW
			}
			edges[k] = cEdge{from: cf, to: ct, w: w, lower: i}
			k++
		}
		nl.edges, cur = edges[:k], nl
	}

	// Picks at the innermost (cycle-free) level.
	picks := a.picks[:0]
	for v := 0; v < cur.n; v++ {
		if v != cur.root {
			picks = append(picks, cur.minIn[v])
		}
	}

	// Unwind contractions.
	lowPicks := a.lowPicks
	for li := depth - 1; li >= 0; li-- {
		lower := a.levels[li]
		entered := resize(a.entered, lower.n, false)
		a.entered = entered
		lowPicks = lowPicks[:0]
		for _, p := range picks {
			le := cur.edges[p].lower
			lowPicks = append(lowPicks, le)
			entered[lower.edges[le].to] = true
		}
		for _, u := range lower.cycVerts {
			if !entered[u] {
				lowPicks = append(lowPicks, lower.minIn[u])
			}
		}
		picks, lowPicks = lowPicks, picks
		cur = lower
	}
	a.lowPicks = lowPicks

	// Map level-0 picks to edge IDs in place.
	var total float64
	for i, p := range picks {
		id := cur.edges[p].lower
		picks[i] = id
		total += cost[id]
	}
	a.picks = picks
	return picks, total, nil
}

// level returns the workspace's level d, emptied of the previous call's
// cycles. Its edges are rewritten from the first by the contraction that
// builds it (level 0's are reweighed).
func (a *Arborescer) level(d int) *arbLevel {
	if d == len(a.levels) {
		a.levels = append(a.levels, &arbLevel{})
	}
	l := a.levels[d]
	l.cycles, l.cycVerts = 0, l.cycVerts[:0]
	return l
}

// MaxFlow computes the maximum s-t flow using Dinic's algorithm over the
// graph's edge capacities. It does not modify g.
func MaxFlow(g *Graph, s, t int) float64 {
	if s == t {
		return math.Inf(1)
	}
	type arc struct {
		to  int
		cap float64
		rev int
	}
	adj := make([][]arc, g.N)
	addArc := func(u, v int, c float64) {
		adj[u] = append(adj[u], arc{to: v, cap: c, rev: len(adj[v])})
		adj[v] = append(adj[v], arc{to: u, cap: 0, rev: len(adj[u]) - 1})
	}
	for _, e := range g.Edges {
		addArc(e.From, e.To, e.Cap)
	}

	const eps = 1e-12
	level := make([]int, g.N)
	iter := make([]int, g.N)

	bfs := func() bool {
		for i := range level {
			level[i] = -1
		}
		queue := []int{s}
		level[s] = 0
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, a := range adj[v] {
				if a.cap > eps && level[a.to] < 0 {
					level[a.to] = level[v] + 1
					queue = append(queue, a.to)
				}
			}
		}
		return level[t] >= 0
	}

	var dfs func(v int, f float64) float64
	dfs = func(v int, f float64) float64 {
		if v == t {
			return f
		}
		for ; iter[v] < len(adj[v]); iter[v]++ {
			a := &adj[v][iter[v]]
			if a.cap > eps && level[v] < level[a.to] {
				d := dfs(a.to, math.Min(f, a.cap))
				if d > eps {
					a.cap -= d
					adj[a.to][a.rev].cap += d
					return d
				}
			}
		}
		return 0
	}

	var flow float64
	for bfs() {
		for i := range iter {
			iter[i] = 0
		}
		for {
			f := dfs(s, math.Inf(1))
			if f <= eps {
				break
			}
			flow += f
		}
	}
	return flow
}

// BroadcastRateUpperBound returns the Edmonds/Lovász optimal broadcast rate
// from root: the minimum over all other vertices v of maxflow(root -> v).
// No packing of arborescences can exceed this, and a maximal packing
// achieves it.
func BroadcastRateUpperBound(g *Graph, root int) float64 {
	best := math.Inf(1)
	for v := 0; v < g.N; v++ {
		if v == root {
			continue
		}
		best = min(best, MaxFlow(g, root, v))
	}
	if math.IsInf(best, 1) {
		return 0
	}
	return best
}
