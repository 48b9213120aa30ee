package core

import (
	"math"

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
	if p, err := packable(g, root); p != nil || err != nil {
		return p, err
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
	sortTrees(p.Trees)
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
	arb, cost := graph.NewArborescer(g), make([]float64, len(g.Edges))
	// Each iteration saturates at least one edge (the bottleneck), so the
	// loop runs at most len(g.Edges) times; the cap is a safety net.
	for iter := 0; iter <= len(g.Edges); iter++ {
		// Prefer high-residual edges so scarce capacity is saved for trees
		// that have no alternative; an edge with none left is never taken.
		for i, r := range resid {
			cost[i] = math.Inf(1)
			if r > tiny {
				cost[i] = 1 / r
			}
		}
		edges, _, err := arb.Solve(root, cost)
		if err != nil {
			break
		}
		tree := graph.Arborescence{Root: root, Edges: append([]int(nil), edges...)}
		w := math.Inf(1)
		for _, id := range tree.Edges {
			w = min(w, resid[id])
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
