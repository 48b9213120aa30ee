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
		linkPairs(g, rev, func(e graph.Edge, c float64) {
			u.of = append(u.of, e.ID)
			ug.Edges = append(ug.Edges, graph.Edge{ID: len(u.of) - 1, From: e.From, To: e.To, Cap: c, Type: e.Type})
		})
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
		tree := Tree{Arbo: graph.Arborescence{Edges: make([]int, len(t.Arbo.Edges))}, Weight: t.Weight}
		for j, id := range t.Arbo.Edges {
			tree.Arbo.Edges[j] = u.of[id]
		}
		if hang(g, &tree.Arbo, out.Root, u.rev, &sc) != nil {
			return nil
		}
		out.Trees = append(out.Trees, tree)
	}
	if out.Validate(g) != nil || allReduceRate(g, out, u.rev) <= allReduceRate(g, directed, u.rev) {
		return nil
	}
	return []*Packing{out}
}

// linkPairs calls each, in edge order, for every link pair of g: an edge e
// whose reverse r has e as its own reverse, with e.ID < r, and the pair's
// capacity min(c(e), c(r)).
func linkPairs(g *graph.Graph, rev []int, each func(e graph.Edge, c float64)) {
	for _, e := range g.Edges {
		if r := rev[e.ID]; e.ID < r && rev[r] == e.ID {
			each(e, min(e.Cap, g.Edges[r].Cap))
		}
	}
}

// shallow is g's shallow packing for an AllReduce over its first ranks
// vertices: one tree per rank r, of least height from r, its eccentricity
// in the link-pair graph, so a centered chunk crosses few hops. Tree r
// grows from r layer by layer; at layer d each unplaced vertex, in vertex
// order, takes the link pair to a layer d−1 vertex with the least (trees
// already on the pair + 1) / capacity, ties to the earlier pair. Every tree
// weighs the least capacity per tree of a pair it uses, so the packing's
// rate is ranks times that, and hangs from root as Undirected.For's trees
// do. bound is the directed packing's Edmonds bound. It returns nil when
// the pairs are fewer than the vertices (they then form a tree at most) or
// a tree does not span. Its working memory comes from sc.
func shallow(g *graph.Graph, ranks, root int, bound float64, rev []int, sc *scratch) *Packing {
	n, of := g.N, sc.ints.take(len(g.Edges))[:0]
	linkPairs(g, rev, func(e graph.Edge, _ float64) { of = append(of, e.ID) })
	if len(of) < n {
		return nil
	}
	// layer[v] is 1 + v's BFS layer in the tree being grown, 0 unplaced.
	load, layer, w := sc.ints.take(len(of)), sc.ints.take(n), math.Inf(1)
	capOf := func(i int) float64 { return min(g.Edges[of[i]].Cap, g.Edges[rev[of[i]]].Cap) }
	p, edges := &Packing{Root: root, Bound: bound, Trees: make([]Tree, ranks)}, make([]int, ranks*(n-1))
	for r := range p.Trees {
		clear(layer)
		layer[r] = 1
		tree := edges[r*(n-1) : r*(n-1) : (r+1)*(n-1)]
		for d := 1; len(tree) < n-1; d++ {
			placed := len(tree)
			for v := range layer {
				best, cost := -1, math.Inf(1)
				for i, id := range of {
					if e := g.Edges[id]; layer[v] == 0 && (e.From == v || e.To == v) && layer[e.From+e.To-v] == d && float64(load[i]+1)/capOf(i) < cost {
						best, cost = i, float64(load[i]+1)/capOf(i)
					}
				}
				if best >= 0 {
					layer[v], tree = d+1, append(tree, of[best])
					load[best]++
					w = min(w, capOf(best)/float64(load[best])) // a pair's load only grows
				}
			}
			if len(tree) == placed {
				return nil
			}
		}
		p.Trees[r].Arbo.Edges = tree
	}
	for r := range p.Trees {
		if hang(g, &p.Trees[r].Arbo, root, rev, sc) != nil {
			return nil
		}
		p.Trees[r].Weight = w
	}
	p.Rate = float64(ranks) * w
	return p
}

// hang re-orients the link-pair tree a to hang from root by BFS (shapeOf),
// each link taken in the direction leading away from root, in place.
func hang(g *graph.Graph, a *graph.Arborescence, root int, rev []int, sc *scratch) error {
	s, err := shapeOf(g, graph.Arborescence{Root: -1, Edges: a.Edges}, root, g.N, rev, sc)
	for j := 1; err == nil && j < len(s.bfs); j++ {
		a.Edges[j-1] = s.parentEdge[s.bfs[j]]
	}
	a.Root = root
	return err
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
// per-unit link bandwidth; a Broadcast whose row is the hybrid, over both
// planes at once, at no more than the two bounds summed (checkRow holds
// that row to an IR carrying the PCIe packing, while the strategy label is
// only a label). An AllReduce-class schedule sends 2(n−1)/n of it from each
// of its n ranks at their summed out-bandwidth and, over trees, moves it no
// faster than their busiest link carries its share both ways
// (allReduceLoad). Every other kind has no bound here, 0.
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
	case IRTreeBroadcast, IRTreeReduce:
		bps := edmonds(f, ir.Packings[0].Bound)
		if ir.Row.Shape == ShapeHybrid {
			bps += edmonds(simgpu.NewFabric(f.Topo, f.Topo.PCIeGraph(), f.Cfg), ir.Packings[1].Bound)
		}
		return bytes / bps
	case IRRingBroadcast:
		return bytes / edmonds(f, graph.BroadcastRateUpperBound(g, ir.Root))
	case IRTreeAllReduce, IRRingAllReduce, IRDGX2AllReduce, IRDBTreeAllReduce:
	default:
		return 0
	}
	n, out, seen := ranksOf(f), 0.0, make([]bool, len(f.Links))
	for _, e := range g.Edges {
		if l := f.EdgeLinks(e.ID)[0]; e.From < n && !seen[l] {
			seen[l], out = true, out+f.Links[l].BW
		}
	}
	_, perRank := LowerBoundMessages(n)
	bound := perRank * float64(n) * bytes / (out * 1e9)
	if rev, err := reverseEdges(g); err == nil && ir.Kind == IRTreeAllReduce {
		p := ir.Packings[0]
		bound = max(bound, bytes*allReduceLoad(g, p, rev, func(e int) float64 { return f.Links[f.EdgeLinks(e)[0]].BW * 1e9 })/p.Rate)
	}
	return bound
}
