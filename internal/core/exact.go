package core

import (
	"fmt"
	"math"
	"math/rand"

	"blink/internal/graph"
)

// ExactPack computes an integral arborescence packing achieving the exact
// Edmonds optimum for integer-capacity graphs, by peeling one unit-weight
// tree at a time while preserving feasibility: Edmonds' branching theorem
// guarantees that whenever the residual min-cut from the root is at least
// r, there exists a spanning arborescence whose removal leaves min-cut at
// least r-1. The peel searches deterministic cost perturbations until it
// finds such a tree. It is exponential-free and far faster than MWU+ILP at
// the same rate (0.36 ms against 63 ms on the full DGX-1V, equal rates on
// all 60 of the paper's allocations — ROADMAP Probe B), and serves as the
// validation baseline for MinimizeTrees.
func ExactPack(g *graph.Graph, root int) (*Packing, error) {
	if err := checkRoot(g, root); err != nil {
		return nil, err
	}
	if g.N == 1 {
		return &Packing{Root: root, Rate: math.Inf(1)}, nil
	}
	for _, e := range g.Edges {
		if e.Cap != math.Trunc(e.Cap) {
			return nil, fmt.Errorf("core: ExactPack requires integer capacities (edge %d has %v)", e.ID, e.Cap)
		}
	}
	bound := graph.BroadcastRateUpperBound(g, root)
	target := int(math.Floor(bound + 1e-9))
	p := &Packing{Root: root, Bound: bound}
	if target == 0 {
		return p, nil
	}

	resid := g.Clone()
	for remaining := target; remaining > 0; remaining-- {
		tree, ok := peelOne(resid, root, remaining-1)
		if !ok {
			return nil, fmt.Errorf("core: peel failed at %d remaining (graph %v)", remaining, resid)
		}
		p.Trees = append(p.Trees, Tree{Arbo: tree, Weight: 1})
		p.Rate++
		for _, id := range tree.Edges {
			resid.Edges[id].Cap--
		}
	}
	// Restore IDs reference the original graph; validate against it.
	if err := p.Validate(g); err != nil {
		return nil, err
	}
	return p, nil
}

// peelOne finds a spanning arborescence in resid (edges with cap >= 1)
// whose removal keeps the root min-cut at least keep. It tries a sequence
// of deterministic cost perturbations.
func peelOne(resid *graph.Graph, root, keep int) (graph.Arborescence, bool) {
	// View restricted to edges with remaining capacity, remembering the
	// original edge IDs.
	avail := graph.New(resid.N)
	var origID []int
	for _, e := range resid.Edges {
		if e.Cap >= 1 {
			avail.AddEdge(e.From, e.To, e.Cap, e.Type)
			origID = append(origID, e.ID)
		}
	}
	const attempts = 64
	for seed := 0; seed < attempts; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		cost := make([]float64, len(avail.Edges))
		for i, e := range avail.Edges {
			// Prefer high-residual edges (protect scarce ones), with a
			// seed-dependent jitter to explore alternatives.
			cost[i] = 1/(e.Cap+1) + rng.Float64()*0.5
		}
		viewTree, _, err := graph.MinCostArborescence(avail, root, func(id int) float64 { return cost[id] })
		if err != nil {
			return graph.Arborescence{}, false
		}
		tree := graph.Arborescence{Root: root, Edges: make([]int, 0, len(viewTree.Edges))}
		for _, id := range viewTree.Edges {
			tree.Edges = append(tree.Edges, origID[id])
		}
		if keep == 0 {
			return tree, true
		}
		// Feasibility: removing the tree must keep min-cut >= keep.
		trial := resid.Clone()
		for _, id := range tree.Edges {
			trial.Edges[id].Cap--
		}
		if graph.BroadcastRateUpperBound(trial, root) >= float64(keep)-1e-9 {
			return tree, true
		}
	}
	return graph.Arborescence{}, false
}
