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
	return newFlowNet(g).maxFlow(s, t)
}

// flowNet is a graph's residual network in CSR form: vertex v's arcs are
// arcs[start[v]:start[v+1]], in edge order, each edge's forward arc at its
// tail and its reverse arc, of capacity 0, at its head. One network serves
// any number of flows (maxFlow restores its capacities first).
type flowNet struct {
	start              []int
	arcs               []flowArc
	level, iter, queue []int
}

type flowArc struct {
	to, rev   int     // rev: the opposite arc's index in arcs
	cap, cap0 float64 // residual capacity, and before any flow
}

func newFlowNet(g *Graph) *flowNet {
	n, m := g.N, len(g.Edges)
	ints := make([]int, 4*n+1)
	net := &flowNet{start: ints[:n+1], level: ints[n+1 : 2*n+1], iter: ints[2*n+1 : 3*n+1], queue: ints[3*n+1:], arcs: make([]flowArc, 2*m)}
	for _, e := range g.Edges {
		net.start[e.From+1]++
		net.start[e.To+1]++
	}
	for v := 0; v < n; v++ {
		net.start[v+1] += net.start[v]
	}
	next := net.iter // fill cursor per vertex; maxFlow resets iter anyway
	copy(next, net.start[:n])
	for _, e := range g.Edges {
		a, b := next[e.From], next[e.To]
		next[e.From]++
		next[e.To]++
		net.arcs[a], net.arcs[b] = flowArc{to: e.To, rev: b, cap0: e.Cap}, flowArc{to: e.From, rev: a}
	}
	return net
}

// flowEps is the residual capacity below which an arc counts as saturated.
const flowEps = 1e-12

// maxFlow returns the maximum s-t flow (s != t) by Dinic's algorithm, from
// the network's original capacities.
func (net *flowNet) maxFlow(s, t int) float64 {
	for i := range net.arcs {
		net.arcs[i].cap = net.arcs[i].cap0
	}
	var flow float64
	for net.bfs(s, t) {
		copy(net.iter, net.start)
		for {
			f := net.dfs(s, t, math.Inf(1))
			if f <= flowEps {
				break
			}
			flow += f
		}
	}
	return flow
}

// bfs levels the residual network from s and reports whether t is reached.
func (net *flowNet) bfs(s, t int) bool {
	for i := range net.level {
		net.level[i] = -1
	}
	net.level[s], net.queue[0] = 0, s
	for head, tail := 0, 1; head < tail; head++ {
		v := net.queue[head]
		for _, a := range net.arcs[net.start[v]:net.start[v+1]] {
			if a.cap > flowEps && net.level[a.to] < 0 {
				net.level[a.to], net.queue[tail] = net.level[v]+1, a.to
				tail++
			}
		}
	}
	return net.level[t] >= 0
}

// dfs pushes one augmenting path of at most f from v to t along the level
// graph and returns what it pushed.
func (net *flowNet) dfs(v, t int, f float64) float64 {
	if v == t {
		return f
	}
	for ; net.iter[v] < net.start[v+1]; net.iter[v]++ {
		a := &net.arcs[net.iter[v]]
		if a.cap > flowEps && net.level[v] < net.level[a.to] {
			d := net.dfs(a.to, t, math.Min(f, a.cap))
			if d > flowEps {
				a.cap -= d
				net.arcs[a.rev].cap += d
				return d
			}
		}
	}
	return 0
}

// BroadcastRateUpperBound returns the Edmonds/Lovász optimal broadcast rate
// from root: the minimum over all other vertices v of maxflow(root -> v).
// No packing of arborescences can exceed this, and a maximal packing
// achieves it. Its n−1 flows share one residual network.
func BroadcastRateUpperBound(g *Graph, root int) float64 {
	best, net := math.Inf(1), newFlowNet(g)
	for v := 0; v < g.N; v++ {
		if v == root {
			continue
		}
		best = min(best, net.maxFlow(root, v))
	}
	if math.IsInf(best, 1) {
		return 0
	}
	return best
}
