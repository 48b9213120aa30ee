package core

import (
	"fmt"
	"math"
	"sort"

	"blink/internal/graph"
)

// ApproxPack computes a feasible spanning-tree packing greedily, trading
// rate optimality for compile latency. Instead of the MWU enumeration
// (thousands of arborescence solves) followed by the ILP minimization, it
// peels whole bottleneck-capacity trees out of the residual graph — an
// LP-rounding-flavored greedy that terminates after at most one arborescence
// solve per saturated edge. Every returned packing is capacity-feasible and
// validated; the rate is typically within a few percent of optimal on
// DGX-class fabrics but carries no guarantee. The same peel grows new trees
// over the residual capacity an incremental repair leaves (RepairPacking).
//
// ApproxPack is deterministic: identical graphs yield byte-identical
// packings.
func ApproxPack(g *graph.Graph, root int) (*Packing, error) {
	if err := checkRoot(g, root); err != nil {
		return nil, err
	}
	if g.N == 1 {
		return &Packing{Root: root, Rate: math.Inf(1)}, nil
	}
	if !g.StronglyConnectedFrom(root) {
		return nil, ErrNoSpanningTree
	}
	for _, e := range g.Edges {
		if e.Cap <= 0 {
			return nil, fmt.Errorf("core: edge %d has non-positive capacity %v", e.ID, e.Cap)
		}
	}

	resid := make([]float64, len(g.Edges))
	for i, e := range g.Edges {
		resid[i] = e.Cap
	}
	p := &Packing{Root: root, Bound: graph.BroadcastRateUpperBound(g, root)}
	p.Trees = peel(g, root, resid)
	for _, t := range p.Trees {
		p.Rate += t.Weight
	}
	sort.Slice(p.Trees, func(i, j int) bool {
		if p.Trees[i].Weight != p.Trees[j].Weight {
			return p.Trees[i].Weight > p.Trees[j].Weight
		}
		return p.Trees[i].Arbo.Key() < p.Trees[j].Arbo.Key()
	})
	if err := p.Validate(g); err != nil {
		return nil, err
	}
	return p, nil
}

// peel is the greedy bottleneck peel under ApproxPack and RepairPacking: it
// repeatedly takes a min-cost arborescence over the edges with residual
// capacity left (resid, indexed by g's edge IDs, which it consumes) and
// weights it at its bottleneck residual, returning the trees in peel order.
func peel(g *graph.Graph, root int, resid []float64) []Tree {
	const tiny = 1e-9
	var out []Tree
	// Each iteration saturates at least one edge (the bottleneck), so the
	// loop runs at most len(g.Edges) times; the cap is a safety net.
	for iter := 0; iter <= len(g.Edges); iter++ {
		// Restrict to edges with residual capacity, remembering original IDs.
		avail := graph.New(g.N)
		var origID []int
		for _, e := range g.Edges {
			if resid[e.ID] > tiny {
				avail.AddEdge(e.From, e.To, resid[e.ID], e.Type)
				origID = append(origID, e.ID)
			}
		}
		if !avail.StronglyConnectedFrom(root) {
			break
		}
		// Prefer high-residual edges so scarce capacity is saved for trees
		// that have no alternative.
		cost := make([]float64, len(avail.Edges))
		for i, e := range avail.Edges {
			cost[i] = 1 / e.Cap
		}
		viewTree, _, err := graph.MinCostArborescence(avail, root, func(id int) float64 { return cost[id] })
		if err != nil {
			break
		}
		tree := graph.Arborescence{Root: root, Edges: make([]int, 0, len(viewTree.Edges))}
		w := math.Inf(1)
		for _, id := range viewTree.Edges {
			oid := origID[id]
			tree.Edges = append(tree.Edges, oid)
			if resid[oid] < w {
				w = resid[oid]
			}
		}
		if w <= tiny {
			break
		}
		for _, id := range tree.Edges {
			resid[id] -= w
		}
		out = append(out, Tree{Arbo: tree, Weight: w})
	}
	return out
}
