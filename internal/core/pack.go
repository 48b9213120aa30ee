// Package core implements Blink's primary contribution: generating optimal
// collective communication schedules for an arbitrary GPU interconnect
// topology by packing directed spanning trees (arborescences).
//
// The pipeline mirrors the paper's toolchain (Figure 9):
//
//	Topology -> PackTrees (MWU, §3.2) -> MinimizeTrees (ILP, §3.2.1)
//	         -> BuildPlan (CodeGen, §4.1) with chunking, stream reuse
//	            (§4.2.2), MIAD chunk-size tuning (§4.2.1), hybrid PCIe +
//	            NVLink splits (§3.4) and the three-phase multi-server
//	            protocol (§3.5).
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"blink/internal/graph"
)

// Tree is a weighted arborescence in a packing: Weight is the fraction of
// the per-unit-time flow (in capacity units) this tree carries.
type Tree struct {
	Arbo   graph.Arborescence
	Weight float64
}

// Packing is a set of weighted spanning trees rooted at Root whose summed
// per-edge weights respect the graph's capacities.
type Packing struct {
	Root  int
	Trees []Tree
	// Rate is the total weight: the broadcast rate in capacity units.
	Rate float64
	// Bound is the Edmonds/Lovász optimal rate for this graph and root.
	Bound float64
}

// The MWU procedure's constants.
const (
	// packEpsilon is the MWU approximation parameter: the packing rate is at
	// least (1-packEpsilon)^2 of optimal.
	packEpsilon = 0.05
	// packMaxIters caps MWU iterations as a safety net.
	packMaxIters = 50000
)

// ErrNoSpanningTree indicates the topology cannot broadcast from the root.
var ErrNoSpanningTree = errors.New("core: no spanning tree from root (topology disconnected)")

// checkRoot refuses a root outside the graph (every root of an empty one):
// the check every exported packer makes before it indexes per-vertex state
// by root.
func checkRoot(g *graph.Graph, root int) error {
	if root < 0 || root >= g.N {
		return fmt.Errorf("core: root %d out of range [0,%d)", root, g.N)
	}
	return nil
}

// PackTrees computes a near-optimal fractional packing of spanning
// arborescences rooted at root using the multiplicative-weight-update
// scheme of Garg–Könemann (as applied to implicit fractional packing by
// Chekuri–Quanrud, the algorithm the paper adopts in §3.2). Each iteration
// finds a minimum-length arborescence under current edge lengths, raises
// its weight, and multiplicatively penalizes the edges it loads.
func PackTrees(g *graph.Graph, root int) (*Packing, error) {
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

	eps := float64(packEpsilon)
	m := float64(len(g.Edges))
	delta := (1 + eps) * math.Pow((1+eps)*m, -1/eps)

	length := make([]float64, len(g.Edges))
	for i, e := range g.Edges {
		length[i] = delta / e.Cap
	}

	type acc struct {
		arbo   graph.Arborescence
		weight float64
		key    string // arbo.Key(), the final sort's tie-break
	}
	// Accumulate in first-discovery order (a slice, with a map only for
	// lookup): every later fold over the accumulated trees then happens in a
	// deterministic order, so the float summations — and therefore the
	// feasibility scale and the final weights — are byte-stable run to run.
	// That determinism is what lets the planner pipeline fan per-root packing
	// across a worker pool without perturbing plan bytes.
	var accum []*acc
	// A tree is identified by the bitset of its edge IDs (the root is fixed),
	// built in one reused buffer; index[string(bits)] does not allocate, so
	// an iteration that rediscovers a known tree allocates nothing.
	index := map[string]int{}
	bits := make([]byte, (len(g.Edges)+7)/8)
	arb := graph.NewArborescer(g)

	for iter := 0; iter < packMaxIters; iter++ {
		edges, total, err := arb.Solve(root, length)
		if err != nil {
			return nil, err
		}
		if total >= 1 {
			break
		}
		// Bottleneck capacity along the chosen tree.
		cmin := math.Inf(1)
		for _, id := range edges {
			cmin = min(cmin, g.Edges[id].Cap)
		}
		clear(bits)
		for _, id := range edges {
			bits[id>>3] |= 1 << (id & 7)
		}
		i, ok := index[string(bits)]
		if !ok {
			tree := graph.Arborescence{Root: root, Edges: append([]int(nil), edges...)}
			if err := tree.Validate(g); err != nil {
				return nil, err
			}
			i = len(accum)
			index[string(bits)] = i
			accum = append(accum, &acc{arbo: tree, key: tree.Key()})
		}
		accum[i].weight += cmin
		for _, id := range edges {
			length[id] *= 1 + eps*cmin/g.Edges[id].Cap
		}
	}

	// Restore feasibility by scaling raw weights down by the worst per-edge
	// overload factor max_e(load_e / c_e). The textbook Garg–Könemann scale
	// log_{1+eps}((1+eps)/delta) upper-bounds this for unit capacities but
	// undershoots by log_{1+eps}(c_e) on multi-link edges; the measured
	// factor is exact, always feasible, and never looser.
	rawLoad := make([]float64, len(g.Edges))
	for _, a := range accum {
		for _, id := range a.arbo.Edges {
			rawLoad[id] += a.weight
		}
	}
	scale := 0.0
	for i, l := range rawLoad {
		scale = max(scale, l/g.Edges[i].Cap)
	}
	if scale == 0 {
		scale = 1
	}
	p := &Packing{Root: root, Bound: graph.BroadcastRateUpperBound(g, root)}
	for _, a := range accum {
		a.weight /= scale
		p.Rate += a.weight
	}
	// Heaviest first, ties by key. The keys of distinct trees differ, so the
	// order is total and the result does not depend on the sort's algorithm.
	sort.Slice(accum, func(i, j int) bool {
		if accum[i].weight != accum[j].weight {
			return accum[i].weight > accum[j].weight
		}
		return accum[i].key < accum[j].key
	})
	for _, a := range accum {
		p.Trees = append(p.Trees, Tree{Arbo: a.arbo, Weight: a.weight})
	}
	if err := p.Validate(g); err != nil {
		return nil, err
	}
	return p, nil
}

// Validate checks a packing against the graph it was packed over: every
// tree is an arborescence of g rooted at the packing's root, every weight is
// positive, the weights sum to Rate, no edge carries more than its capacity,
// and Rate stays within Bound when Bound is set — all within a small numeric
// tolerance, and each rule written so that a NaN fails it. Only a one-vertex
// graph's packing has no trees (Rate +Inf).
func (p *Packing) Validate(g *graph.Graph) error {
	const tol = 1e-6
	if len(p.Trees) == 0 && g.N > 1 {
		return fmt.Errorf("core: packing has no trees over %d vertices", g.N)
	}
	load := make([]float64, len(g.Edges))
	sum := 0.0
	for _, t := range p.Trees {
		if !(t.Weight > 0) {
			return fmt.Errorf("core: non-positive tree weight %v", t.Weight)
		}
		if err := t.Arbo.Validate(g); err != nil {
			return fmt.Errorf("core: invalid tree in packing: %w", err)
		}
		if t.Arbo.Root != p.Root {
			return fmt.Errorf("core: tree rooted at %d in packing rooted at %d", t.Arbo.Root, p.Root)
		}
		for _, id := range t.Arbo.Edges {
			load[id] += t.Weight
		}
		sum += t.Weight
	}
	if len(p.Trees) > 0 && !(math.Abs(sum-p.Rate) <= p.Rate*tol+tol) {
		return fmt.Errorf("core: tree weights sum to %v, packing rate %v", sum, p.Rate)
	}
	for i, l := range load {
		if l > g.Edges[i].Cap*(1+tol)+tol {
			return fmt.Errorf("core: edge %d overloaded: %.6f > cap %.6f", i, l, g.Edges[i].Cap)
		}
	}
	if p.Bound > 0 && !(p.Rate <= p.Bound*(1+tol)+tol) {
		return fmt.Errorf("core: rate %v exceeds the optimal bound %v", p.Rate, p.Bound)
	}
	return nil
}
