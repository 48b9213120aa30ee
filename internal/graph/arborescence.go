package graph

import (
	"errors"
	"math"
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

	// Per-level scratch, rebuilt for each level in turn.
	state, stamp, cycleOf, comp []int
	entered                     []bool
	// picks holds the chosen edges of the level being unwound; the next
	// level's picks are built in lowPicks and the two swap.
	picks, lowPicks []int
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

	// Level 0 edges mirror the graph.
	cur := a.level(0)
	cur.n, cur.root = g.N, root
	for _, e := range g.Edges {
		cur.edges = append(cur.edges, cEdge{from: e.From, to: e.To, w: cost[e.ID], lower: e.ID})
	}

	depth := 0
	for {
		// Select the cheapest incoming edge for every non-root vertex.
		cur.minIn = resize(cur.minIn, cur.n, -1)
		for i, e := range cur.edges {
			if e.to == cur.root || e.from == e.to {
				continue
			}
			if j := cur.minIn[e.to]; j == -1 || e.w < cur.edges[j].w {
				cur.minIn[e.to] = i
			}
		}
		for v := 0; v < cur.n; v++ {
			if v != cur.root && cur.minIn[v] == -1 {
				return nil, 0, ErrNotSpanning
			}
		}

		// Detect cycles among the selected edges.
		const (
			unvisited = 0
			walking   = 1
			done      = 2
		)
		state := resize(a.state, cur.n, unvisited)
		stamp := resize(a.stamp, cur.n, 0)
		cycleOf := resize(a.cycleOf, cur.n, -1)
		a.state, a.stamp, a.cycleOf = state, stamp, cycleOf
		state[cur.root] = done
		for start := 0; start < cur.n; start++ {
			if state[start] != unvisited {
				continue
			}
			// Walk predecessor pointers until a visited vertex.
			v := start
			for state[v] == unvisited {
				state[v] = walking
				stamp[v] = start
				v = cur.edges[cur.minIn[v]].from
				if v == cur.root {
					break
				}
			}
			if v != cur.root && state[v] == walking && stamp[v] == start {
				// Found a fresh cycle through v.
				ci := cur.cycles
				cur.cycles++
				cur.cycVerts = append(cur.cycVerts, v)
				cycleOf[v] = ci
				for u := cur.edges[cur.minIn[v]].from; u != v; u = cur.edges[cur.minIn[u]].from {
					cur.cycVerts = append(cur.cycVerts, u)
					cycleOf[u] = ci
				}
			}
			// Mark the walked path as finished.
			u := start
			for u != cur.root && state[u] == walking && stamp[u] == start {
				state[u] = done
				u = cur.edges[cur.minIn[u]].from
			}
		}

		if cur.cycles == 0 {
			break
		}

		// Contract every cycle into a single vertex: vertices outside cycles
		// keep their order, then cycle ci becomes vertex next+ci.
		comp := resize(a.comp, cur.n, -1)
		a.comp = comp
		next := 0
		for v := 0; v < cur.n; v++ {
			if cycleOf[v] == -1 {
				comp[v] = next
				next++
			}
		}
		for v := 0; v < cur.n; v++ {
			if ci := cycleOf[v]; ci >= 0 {
				comp[v] = next + ci
			}
		}
		next += cur.cycles

		depth++
		nl := a.level(depth)
		nl.n, nl.root = next, comp[cur.root]
		for i, e := range cur.edges {
			cf, ct := comp[e.from], comp[e.to]
			if cf == ct {
				continue
			}
			w := e.w
			if cycleOf[e.to] >= 0 {
				w -= cur.edges[cur.minIn[e.to]].w
			}
			nl.edges = append(nl.edges, cEdge{from: cf, to: ct, w: w, lower: i})
		}
		cur = nl
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
// edges and cycles.
func (a *Arborescer) level(d int) *arbLevel {
	if d == len(a.levels) {
		a.levels = append(a.levels, &arbLevel{})
	}
	l := a.levels[d]
	l.edges, l.cycles, l.cycVerts = l.edges[:0], 0, l.cycVerts[:0]
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
