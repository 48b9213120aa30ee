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
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

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

// packable makes the checks a packer makes before it packs from root: the
// root is in the graph, reaches every vertex, and every capacity is
// positive. It returns the one-vertex graph's packing, which needs no
// trees (Rate +Inf), and nil for a graph to pack.
func packable(g *graph.Graph, root int) (*Packing, error) {
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
	return nil, nil
}

// PackTrees computes a near-optimal fractional packing of spanning
// arborescences rooted at root using the multiplicative-weight-update
// scheme of Garg–Könemann (as applied to implicit fractional packing by
// Chekuri–Quanrud, the algorithm the paper adopts in §3.2), with a
// minimum-cost arborescence as the oracle (mwu).
func PackTrees(g *graph.Graph, root int) (*Packing, error) {
	if p, err := packable(g, root); p != nil || err != nil {
		return p, err
	}
	arb := graph.NewArborescer(g)
	p, err := mwu(g, root, packEpsilon, func(length []float64) ([]int, float64, error) { return arb.Solve(root, length) })
	if err != nil {
		return nil, err
	}
	p.Bound = graph.BroadcastRateUpperBound(g, root)
	sortTrees(p.Trees)
	if err := p.Validate(g); err != nil {
		return nil, err
	}
	return p, nil
}

// mwu is the Garg–Könemann loop both packers share: g's edges (a graph's
// own for PackTrees, its link pairs for Undirected.For) start at length
// δ/c, and each iteration takes the oracle's minimum-length spanning tree,
// raises its weight by its bottleneck capacity and lengthens its edges by
// 1 + ε·c_min/c, until the shortest tree is at least 1 long. It returns the
// distinct trees, hung from root, in first-discovery order, so every later
// fold over them is in a deterministic order and their float sums are
// byte-stable run to run. Each tree is identified by the bitset of its
// edges, built in one reused buffer, and its list and bitset are carved
// from slabs: an iteration that rediscovers a known tree allocates nothing.
func mwu(g *graph.Graph, root int, eps float64, oracle func(length []float64) ([]int, float64, error)) (*Packing, error) {
	m := float64(len(g.Edges))
	delta := (1 + eps) * math.Pow((1+eps)*m, -1/eps)
	length := make([]float64, len(g.Edges))
	for i, e := range g.Edges {
		length[i] = delta / e.Cap
	}
	var trees []Tree
	var slab []int
	// known holds every tree's bitset, tree after tree; index lists the
	// trees by a hash of their bitset, which is the bitset itself up to 64
	// edges.
	var known []uint64
	index := map[uint64][]int32{}
	bits := make([]uint64, (len(g.Edges)+63)/64)
	for iter := 0; iter < packMaxIters; iter++ {
		res, total, err := oracle(length)
		if err != nil {
			return nil, err
		}
		if total >= 1 {
			break
		}
		cmin, h, i := math.Inf(1), uint64(0), -1
		clear(bits)
		for _, id := range res {
			cmin = min(cmin, g.Edges[id].Cap)
			bits[id>>6] |= 1 << (id & 63)
		}
		for _, w := range bits {
			h = h*0x9e3779b97f4a7c15 ^ w
		}
		for _, c := range index[h] {
			if slices.Equal(known[int(c)*len(bits):][:len(bits)], bits) {
				i = int(c)
			}
		}
		if i < 0 {
			i, slab, known = len(trees), append(slab, res...), append(known, bits...)
			index[h] = append(index[h], int32(i))
			trees = append(trees, Tree{Arbo: graph.Arborescence{Root: root, Edges: slab[len(slab)-len(res) : len(slab) : len(slab)]}})
		}
		trees[i].Weight += cmin
		for _, id := range res {
			length[id] *= 1 + eps*cmin/g.Edges[id].Cap
		}
	}
	// Restore feasibility by scaling raw weights down by the worst overload
	// factor max(load / c). The textbook Garg–Könemann scale
	// log_{1+eps}((1+eps)/delta) upper-bounds this for unit capacities but
	// undershoots by log_{1+eps}(c) on multi-unit resources; the measured
	// factor is exact, always feasible, and never looser.
	load := make([]float64, len(g.Edges))
	for _, t := range trees {
		for _, id := range t.Arbo.Edges {
			load[id] += t.Weight
		}
	}
	scale := 0.0
	for i, l := range load {
		scale = max(scale, l/g.Edges[i].Cap)
	}
	if scale == 0 {
		scale = 1
	}
	p := &Packing{Root: root, Trees: trees}
	for i := range trees {
		trees[i].Weight /= scale
		p.Rate += trees[i].Weight
	}
	return p, nil
}

// sortTrees orders trees heaviest first, ties by Arborescence.Key. The keys
// of distinct trees differ, so the order is total and does not depend on
// the sort's algorithm. Each tree's key is built once, into one slab.
func sortTrees(trees []Tree) {
	type keyed struct {
		Tree
		lo, hi int // the key is keys[lo:hi]
	}
	ks, keys := make([]keyed, len(trees)), make([]byte, 0, 32*len(trees))
	for i, t := range trees {
		lo := len(keys)
		keys = t.Arbo.AppendKey(keys)
		ks[i] = keyed{t, lo, len(keys)}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		if a.Weight != b.Weight {
			return cmp.Compare(b.Weight, a.Weight)
		}
		return bytes.Compare(keys[a.lo:a.hi], keys[b.lo:b.hi])
	})
	for i, k := range ks {
		trees[i] = k.Tree
	}
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
