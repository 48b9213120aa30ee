package core

import (
	"math"

	"blink/internal/graph"
)

// The ILP-style tree-count reduction's constants (§3.2.1).
const (
	// minThreshold is the acceptable rate loss versus the MWU rate b*; the
	// paper uses 5%. The integral solution is accepted once its rate is
	// within it of b*, otherwise weights are relaxed to finer grids.
	minThreshold = 0.05
	// minCandidates bounds the distinct candidate trees passed to the solver
	// (highest MWU weight first).
	minCandidates = 64
	// minMaxGrid bounds the relaxation: weights are multiples of 1/q with q
	// doubling from 1 up to eighths.
	minMaxGrid = 8
)

// MinimizeTrees reduces a (possibly large) MWU packing to a small set of
// trees achieving nearly the same rate, following §3.2.1: solve the integer
// program max Σ w_i subject to per-edge capacities with w_i ∈ {0,1}, and if
// the integral optimum ĉ falls short of b*, iteratively relax the weights
// to fractional grids (halves, quarters, ...) until within the threshold.
// Among equal-rate solutions the solver prefers fewer trees.
func MinimizeTrees(g *graph.Graph, p *Packing) *Packing {
	return minimize(g, p, minSearch{cands: minCandidates, nodes: 4_000_000, grid: minMaxGrid, weight: 1, fallback: true})
}

// minSearch bounds minimize: the candidates it takes, the branch-and-bound
// nodes each grid may visit, its finest grid, the most weight one tree may
// take, and whether a packing no grid brings within the threshold falls
// back to the MWU packing or keeps the best grid's.
type minSearch struct {
	cands, nodes, grid, weight int
	fallback                   bool
}

// minimize is MinimizeTrees under the search bounds s.
func minimize(g *graph.Graph, p *Packing, s minSearch) *Packing {
	if len(p.Trees) <= 1 {
		return p
	}
	target := p.Rate * (1 - minThreshold)

	// Candidate trees: distinct by construction (mwu dedupes), highest
	// weight first, capped.
	cands := p.Trees[:min(len(p.Trees), s.cands)]
	best := solveGrid(g, p.Root, cands, 1, s.weight, p.Bound, s.nodes)
	for q := 2; best.Rate < target && q <= s.grid; q *= 2 {
		sol := solveGrid(g, p.Root, cands, q, q*s.weight, p.Bound, s.nodes)
		if sol.Rate > best.Rate || (sol.Rate == best.Rate && len(sol.Trees) < len(best.Trees)) {
			best = sol
		}
	}
	if best.Rate < target && s.fallback {
		// Relaxation exhausted; fall back to the fractional MWU packing.
		return p
	}
	best.Bound = p.Bound
	return best
}

// solveGrid solves max Σ w_i with w_i ∈ {0, 1/q, 2/q, ..., per/q} subject
// to capacity constraints, via branch and bound over the candidate list,
// preferring (higher rate, fewer trees). Capacities are scaled by q so the
// search runs over integers. rateBound (the Edmonds min-cut bound) lets the
// search stop as soon as a provably optimal incumbent is found; a node
// budget keeps worst-case instances bounded (the incumbent is returned).
func solveGrid(g *graph.Graph, root int, cands []Tree, q, per int, rateBound float64, nodeBudget int) *Packing {
	n := len(cands)
	// Residual capacity in grid units per edge.
	resid := make([]float64, len(g.Edges))
	for i, e := range g.Edges {
		resid[i] = e.Cap * float64(q)
	}

	// Precompute each tree's edge list.
	edges := make([][]int, n)
	for i, t := range cands {
		edges[i] = t.Arbo.Edges
	}

	type solution struct {
		units []int // grid units per candidate
		rate  int   // total grid units
		count int
	}
	best := solution{units: make([]int, n)}
	cur := make([]int, n)

	boundUnits := n * per
	if !math.IsInf(rateBound, 1) && rateBound > 0 {
		boundUnits = min(boundUnits, int(math.Floor(rateBound*float64(q)+1e-9)))
	}
	nodes := 0
	stop := false

	// Upper bound on additional units from candidates i..n-1: each tree can
	// contribute at most q units, but is also limited by its bottleneck
	// residual capacity. A cheap per-tree bound keeps the search tight.
	maxUnits := func(i int) int {
		m := per
		for _, id := range edges[i] {
			m = min(m, int(math.Floor(resid[id]+1e-9)))
		}
		return m
	}

	var curRate, curCount int
	var rec func(i int)
	rec = func(i int) {
		if stop {
			return
		}
		nodes++
		if nodes > nodeBudget {
			stop = true
			return
		}
		if curRate > best.rate || (curRate == best.rate && curCount < best.count && curRate > 0) {
			best.rate = curRate
			best.count = curCount
			copy(best.units, cur)
			if best.rate >= boundUnits {
				stop = true // provably optimal rate reached
				return
			}
		}
		if i == n {
			return
		}
		// Optimistic bound: everything remaining at q units.
		if curRate+(n-i)*per < best.rate {
			return
		}
		top := maxUnits(i)
		// Try the largest allocations first (greedy finds good incumbents
		// early), then smaller ones, then zero. Intermediate unit counts
		// matter for doubled NVLink edges.
		for u := top; u >= 0; u-- {
			if u > 0 {
				for _, id := range edges[i] {
					resid[id] -= float64(u)
				}
				curRate += u
				curCount++
				cur[i] = u
			}
			rec(i + 1)
			if u > 0 {
				for _, id := range edges[i] {
					resid[id] += float64(u)
				}
				curRate -= u
				curCount--
				cur[i] = 0
			}
			if stop {
				return
			}
		}
	}
	rec(0)

	out := &Packing{Root: root}
	for i, u := range best.units {
		if u == 0 {
			continue
		}
		w := float64(u) / float64(q)
		out.Trees = append(out.Trees, Tree{Arbo: cands[i].Arbo, Weight: w})
		out.Rate += w
	}
	sortTrees(out.Trees)
	return out
}

// GenerateTrees is the full TreeGen stage: MWU packing followed by tree
// minimization, with the exact peeling packer filling the gap when the
// minimized rate falls short of the integral Edmonds optimum on an
// integer-capacity graph. It is the single-root convenience wrapper around
// the staged PlannerPipeline (see pipeline.go), which is the entry point
// plan construction and the collective layer use.
func GenerateTrees(g *graph.Graph, root int) (*Packing, error) {
	p, _, err := NewPlannerPipeline(PipelineOptions{Workers: 1}).PackRoot(g, root)
	return p, err
}

func integerCaps(g *graph.Graph) bool {
	for _, e := range g.Edges {
		if e.Cap != math.Trunc(e.Cap) {
			return false
		}
	}
	return true
}
