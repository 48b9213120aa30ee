package core

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"blink/internal/graph"
	"blink/internal/simgpu"
)

// A tree AllReduce crosses every edge of each tree twice, up in the reduce
// and down in the broadcast, so a directed packing that uses u→v in one
// tree and v→u in another pays for both on each of those links. This file
// packs for both directions at once: spanning trees of the undirected link
// pairs, each pair's capacity min(c(u→v), c(v→u)) shared by both
// directions. The Nash-Williams/Tutte theorem (1961) bounds the rate, the
// shared Garg–Könemann loop (mwu) with a minimum spanning tree as its
// oracle packs, §3.2's minimisation trims, and each tree hangs from the
// root by BFS.

// undirectedEps is the undirected MWU's approximation parameter, coarser
// than packEpsilon: the minimisation takes the rate the rest of the way.
const undirectedEps = 0.2

// undirectedSearch bounds the undirected packing's minimisation to well
// under a millisecond: MinimizeTrees' own search (64 candidates, 4M nodes,
// grids to eighths) takes 3–5 ms on the full DGX-1V. A search that brings
// no grid within the threshold keeps its best grid rather than fall back to
// MWU's many trees, whose schedules cost more to build than they gain. The
// packer lets one tree take a link pair's whole capacity (weight), as a
// pair of doubled links often must for the packing to reach its bound.
var undirectedSearch = minSearch{cands: 16, nodes: 1 << 14, grid: 4}

// nashWilliamsMaxN bounds the vertices nashWilliams enumerates the
// partitions of (Bell(12) ≈ 4.2M before pruning); larger graphs get no
// undirected packing.
const nashWilliamsMaxN = 12

// Undirected is a graph's undirected packing for AllReduce: spanning trees
// of its link pairs, which have no root, so one packing serves every root.
// The link pairs and their Nash-Williams bound are found on first use, and
// the trees are packed on the first use that needs them; what For returns
// does not depend on which roots asked first.
type Undirected struct {
	pairs, packed sync.Once
	ug            *graph.Graph // the link pairs, nil when there are none to pack
	of, rev       []int        // pair i is edge of[i] and its reverse rev[of[i]]
	nw            float64      // ug's Nash-Williams bound
	p             *Packing     // ug's packing, nil when MWU failed
}

// For returns the undirected packing to race beside directed, g's packing
// from its root, with its trees hung from that root by BFS (shapeOf), every
// link taken in the direction leading away from it. It returns none when
// directed's trees already sustain the Nash-Williams bound as an AllReduce
// (allReduceRate), when g's link pairs form a tree or are too many vertices
// to bound, or when the packing falls short of directed. The packing
// records directed's Edmonds bound, which no rooted packing exceeds, as its
// Bound. Every call must pass the same g.
func (u *Undirected) For(g *graph.Graph, directed *Packing) []*Packing {
	u.pairs.Do(func() {
		rev, err := reverseEdges(g)
		if err != nil || g.N < 2 || g.N > nashWilliamsMaxN {
			return
		}
		ug := &graph.Graph{N: g.N}
		for _, e := range g.Edges {
			if r := rev[e.ID]; e.ID < r && rev[r] == e.ID {
				u.of = append(u.of, e.ID)
				ug.Edges = append(ug.Edges, graph.Edge{ID: len(u.of) - 1, From: e.From, To: e.To, Cap: min(e.Cap, g.Edges[r].Cap), Type: e.Type})
			}
		}
		if len(ug.Edges) >= g.N {
			u.ug, u.rev, u.nw = ug, rev, nashWilliams(ug)
		}
	})
	if u.ug == nil || !(allReduceRate(g, directed, u.rev) < u.nw*(1-1e-9)) {
		return nil
	}
	u.packed.Do(func() {
		if p, err := mwu(u.ug, 0, undirectedEps, prim(u.ug)); err == nil {
			p.Bound = u.nw
			// Heaviest first; minimize takes the first candidates. A tree
			// may take a link pair's whole capacity, not one unit.
			slices.SortStableFunc(p.Trees, func(a, b Tree) int { return cmp.Compare(b.Weight, a.Weight) })
			search := undirectedSearch
			for _, e := range u.ug.Edges {
				search.weight = max(search.weight, int(math.Ceil(e.Cap)))
			}
			u.p = minimize(u.ug, p, search)
		}
	})
	if u.p == nil {
		return nil
	}
	out := &Packing{Root: directed.Root, Rate: u.p.Rate, Bound: directed.Bound}
	var sc scratch
	for _, t := range u.p.Trees {
		edges := make([]int, len(t.Arbo.Edges))
		for j, id := range t.Arbo.Edges {
			edges[j] = u.of[id]
		}
		s, err := shapeOf(g, graph.Arborescence{Root: -1, Edges: edges}, out.Root, g.N, u.rev, &sc)
		if err != nil {
			return nil
		}
		for j, v := range s.bfs[1:] {
			edges[j] = s.parentEdge[v]
		}
		out.Trees = append(out.Trees, Tree{Arbo: graph.Arborescence{Root: out.Root, Edges: edges}, Weight: t.Weight})
	}
	if out.Validate(g) != nil || allReduceRate(g, out, u.rev) <= allReduceRate(g, directed, u.rev) {
		return nil
	}
	return []*Packing{out}
}

// nashWilliams is the most weight of spanning trees ug's edges, taken as
// undirected, pack (Nash-Williams 1961, Tutte 1961): the least, over the
// partitions P of its vertices into two parts or more, of the capacity
// crossing P over |P| − 1. It enumerates the partitions vertex by vertex,
// pruning every one whose crossing capacity over the most parts it could
// still reach is no better than the best so far.
func nashWilliams(ug *graph.Graph) float64 {
	n := ug.N
	w := make([]float64, n*n)
	for _, e := range ug.Edges {
		w[e.From*n+e.To] += e.Cap
		w[e.To*n+e.From] += e.Cap
	}
	part, best := make([]int, n), math.Inf(1)
	var walk func(v, parts int, cross float64)
	walk = func(v, parts int, cross float64) {
		if v == n {
			if parts > 1 {
				best = min(best, cross/float64(parts-1))
			}
			return
		}
		if most := parts + n - v; most > 1 && cross/float64(most-1) >= best {
			return
		}
		for b := 0; b <= parts; b++ {
			add := 0.0
			for u := 0; u < v; u++ {
				if part[u] != b {
					add += w[u*n+v]
				}
			}
			part[v] = b
			walk(v+1, max(parts, b+1), cross+add)
		}
	}
	walk(0, 0, 0)
	return best
}

// prim returns the undirected packer's oracle: a minimum spanning tree of
// ug's edges under the MWU lengths by Prim's algorithm from vertex 0, ties
// to the lower vertex and then the earlier edge, in buffers kept across
// calls.
func prim(ug *graph.Graph) func(length []float64) ([]int, float64, error) {
	key, via, in, tree := make([]float64, ug.N), make([]int, ug.N), make([]bool, ug.N), make([]int, 0, ug.N)
	return func(length []float64) ([]int, float64, error) {
		for v := range key {
			key[v], in[v] = math.Inf(1), false
		}
		tree, total := tree[:0], 0.0
		for v := 0; v >= 0; {
			in[v] = true
			for i, e := range ug.Edges {
				if u := e.From + e.To - v; (e.From == v || e.To == v) && !in[u] && length[i] < key[u] {
					key[u], via[u] = length[i], i
				}
			}
			if v = -1; len(tree) < ug.N-1 {
				for u := range key {
					if !in[u] && (v < 0 || key[u] < key[v]) {
						v = u
					}
				}
				if math.IsInf(key[v], 1) {
					return nil, 0, ErrNoSpanningTree
				}
				tree, total = append(tree, via[v]), total+length[via[v]]
			}
		}
		return tree, total, nil
	}
}

// allReduceRate is the rate p's trees sustain as an AllReduce, in capacity
// units: p's rate over the busiest edge's load over its capacity, where
// each tree crosses every edge of it once each way, so edge e carries the
// weight of the trees that use e or its reverse (allReduceLoad).
func allReduceRate(g *graph.Graph, p *Packing, rev []int) float64 {
	return p.Rate / allReduceLoad(g, p, rev, func(e int) float64 { return g.Edges[e].Cap })
}

// allReduceLoad is the most weight p's trees put on one edge as an
// AllReduce over per(e), the edge's capacity or bandwidth.
func allReduceLoad(g *graph.Graph, p *Packing, rev []int, per func(e int) float64) float64 {
	load := make([]float64, len(g.Edges))
	for _, t := range p.Trees {
		for _, e := range t.Arbo.Edges {
			load[e] += t.Weight
			load[rev[e]] += t.Weight
		}
	}
	worst := 0.0
	for e, l := range load {
		worst = max(worst, l/per(e))
	}
	return worst
}

// LowerBound is the least time, in seconds, the IR's schedule can take on
// f: the physical bound no simulated run may beat, and the bound
// PlanIR.tuned prunes its candidates by. A Broadcast or Reduce moves the
// payload at no more than its root's Edmonds bound in units of the plane's
// per-unit link bandwidth; a hybrid Broadcast, over both planes at once, at
// no more than the two bounds summed. An AllReduce-class schedule sends
// 2(n−1)/n of it from each of its n ranks at their summed out-bandwidth
// and, over trees, moves it no faster than their busiest link carries its
// share both ways (allReduceLoad). Every other kind has no bound here, 0.
func (ir *PlanIR) LowerBound(f *simgpu.Fabric) float64 {
	bytes, g := float64(ir.Bytes), f.Graph
	edmonds := func(f *simgpu.Fabric, bound float64) float64 {
		unit := math.Inf(1)
		for _, e := range f.Graph.Edges {
			unit = min(unit, f.Links[f.EdgeLinks(e.ID)[0]].BW/e.Cap)
		}
		return bound * unit * 1e9
	}
	switch ir.Kind {
	case IRTreeBroadcast, IRTreeReduce, IRTreeReduceScatter:
		bps := edmonds(f, ir.Packings[0].Bound)
		if ir.Strategy == "hybrid" {
			bps += edmonds(simgpu.NewFabric(f.Topo, f.Topo.PCIeGraph(), f.Cfg), ir.Packings[1].Bound)
		}
		return bytes / bps
	case IRRingBroadcast:
		return bytes / edmonds(f, graph.BroadcastRateUpperBound(g, ir.Root))
	case IRTreeAllReduce, IRTreeAllGather, IRRingAllReduce, IRDGX2AllReduce, IRDBTreeAllReduce:
	default:
		return 0
	}
	n, out, seen := ranksOf(f), 0.0, map[int]bool{}
	for _, e := range g.Edges {
		if l := f.EdgeLinks(e.ID)[0]; e.From < n && !seen[l] {
			seen[l], out = true, out+f.Links[l].BW
		}
	}
	_, perRank := LowerBoundMessages(n)
	bound := perRank * float64(n) * bytes / (out * 1e9)
	if rev, err := reverseEdges(g); err == nil && (ir.Kind == IRTreeAllReduce || ir.Kind == IRTreeAllGather) {
		p := ir.Packings[0]
		bound = max(bound, bytes*allReduceLoad(g, p, rev, func(e int) float64 { return f.Links[f.EdgeLinks(e)[0]].BW * 1e9 })/p.Rate)
	}
	return bound
}
