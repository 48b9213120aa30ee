package core

import (
	"fmt"

	"blink/internal/graph"
	"blink/internal/simgpu"
)

// Double binary trees, NCCL 2.4's small-payload AllReduce schedule on the
// DGX-2 (the baseline of Figures 19 and 20): two complementary binary trees
// over the ranks each carry half the payload; a rank that is a leaf in one
// tree is interior in the other, so both directions of every attach link
// are used. Blink's one-hop trees beat them on latency because the binary
// trees are log2(n) hops deep.

// buildInOrderTree returns parent[rank] for the binary tree NCCL lays out
// over ranks: working 1-indexed, each range splits at the position with the
// largest low-set-bit (the Fenwick-tree shape), which places every odd
// 1-indexed position — i.e. every even rank — at a leaf.
func buildInOrderTree(n int) []int {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	lsb := func(x int) int { return x & -x }
	var rec func(lo, hi, par int)
	rec = func(lo, hi, par int) {
		if lo > hi {
			return
		}
		mid := lo
		for p := lo; p <= hi; p++ {
			if lsb(p) > lsb(mid) {
				mid = p
			}
		}
		parent[mid-1] = par - 1 // convert to 0-indexed (root keeps -1)
		rec(lo, mid-1, mid)
		rec(mid+1, hi, mid)
	}
	rec(1, n, 0)
	return parent
}

// DoubleBinaryTrees builds the two complementary trees over a logical
// all-to-all graph as two single-tree packings (their roots differ, so each
// is planned independently over half the payload). The second tree is the
// first with every rank shifted by one (mod n), which swaps leaf and
// interior roles when n is even.
func DoubleBinaryTrees(lg *graph.Graph) ([]*Packing, error) {
	n := lg.N
	if n < 2 {
		return nil, fmt.Errorf("ring: need >= 2 ranks for double binary trees")
	}
	edge := map[[2]int]int{}
	for _, e := range lg.Edges {
		edge[[2]int{e.From, e.To}] = e.ID
	}
	base := buildInOrderTree(n)
	mkTree := func(shift int) (graph.Arborescence, error) {
		var root int
		var edges []int
		for r, p := range base {
			child := (r + shift) % n
			if p == -1 {
				root = child
				continue
			}
			par := (p + shift) % n
			id, ok := edge[[2]int{par, child}]
			if !ok {
				return graph.Arborescence{}, fmt.Errorf("ring: logical edge %d->%d missing", par, child)
			}
			edges = append(edges, id)
		}
		return graph.Arborescence{Root: root, Edges: edges}, nil
	}
	var packs []*Packing
	for shift := 0; shift < 2; shift++ {
		t, err := mkTree(shift)
		if err != nil {
			return nil, err
		}
		if err := t.Validate(lg); err != nil {
			return nil, err
		}
		packs = append(packs, &Packing{
			Root:  t.Root,
			Trees: []Tree{{Arbo: t, Weight: 1}},
			Rate:  1,
		})
	}
	return packs, nil
}

// BuildDBTreeAllReducePlan compiles NCCL's double-binary-tree AllReduce:
// each tree reduce-broadcasts half the payload concurrently.
func BuildDBTreeAllReducePlan(f *simgpu.Fabric, bytes int64, opts PlanOptions) (*Plan, error) {
	packs, err := DoubleBinaryTrees(f.Graph)
	if err != nil {
		return nil, err
	}
	// Only chunking and data mode carry over: the trees keep the default
	// stream reuse whatever the caller's NoStreamReuse says.
	po := PlanOptions{ChunkBytes: opts.ChunkBytes, DataMode: opts.DataMode}
	return newBuilder(f, po).allReduceParts(bytes, len(packs), func(i int) (*Packing, int) { return packs[i], packs[i].Root })
}
