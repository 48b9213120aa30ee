package core

import (
	"fmt"
	"math"
	"slices"

	"blink/internal/graph"
)

// Incremental packing repair: after a fault derives a new topology (link
// down / degraded, device evicted), most spanning trees in a root's packing
// are still valid — only the trees that traverse the failed link or device
// need surgery. RepairPacking performs that surgery instead of re-running
// the full enumerate→minimize→fill pipeline:
//
//  1. Map every tree edge from the old graph into the new one (by endpoint
//     pair, edge type and parallel-edge position); edges that no longer
//     exist detach the subtree hanging under them.
//  2. Shed weight from trees crossing degraded (capacity-reduced) links
//     until every edge is feasible again.
//  3. Reattach each detached component: find a spare-capacity edge from the
//     attached portion into the component and re-root the component's
//     parent chain around the entry vertex (reversing tree edges, which the
//     bidirectional NVLink fabric supports). Trees whose components cannot
//     be reattached at their weight are dropped.
//  4. Re-weight surviving trees up to their bottleneck residuals and grow
//     new greedy trees over the remaining residual capacity (the ApproxPack
//     peel), recovering rate lost to drops.
//
// The repaired packing is validated structurally and against capacities,
// and accepted only when its rate is within Threshold of the new graph's
// Edmonds broadcast bound — the §3.2.1 criterion, which guarantees a full
// recompile could not beat the repair by more than the threshold. Otherwise
// the caller falls back to the full pipeline.

// RepairOptions tunes RepairPacking.
type RepairOptions struct {
	// Threshold is the acceptable rate shortfall versus the new graph's
	// Edmonds bound (the §3.2.1 threshold). Default 0.05. Out-of-range
	// values (<= 0 or >= 1) fall back to the default.
	Threshold float64
}

func (o *RepairOptions) setDefaults() {
	if o.Threshold <= 0 || o.Threshold >= 1 {
		o.Threshold = 0.05
	}
}

// RepairOutcome reports one repair attempt.
type RepairOutcome struct {
	// Packing is the repaired packing over the new graph; only meaningful
	// when Repaired is true.
	Packing *Packing
	// Repaired is false when the packing could not be repaired to within
	// Threshold of the new bound (the caller should recompile from scratch).
	Repaired bool
	// TreesKept counts trees carried over unmodified (possibly re-weighted).
	TreesKept int
	// TreesRepaired counts trees that needed reattachment or weight surgery.
	TreesRepaired int
	// TreesDropped counts trees abandoned during repair.
	TreesDropped int
	// TreesGrown counts new greedy trees added over residual capacity.
	TreesGrown int
	// Bound is the Edmonds broadcast bound on the new graph.
	Bound float64
}

const repairTiny = 1e-9

// repairTree is one tree's state during repair, in new-graph vertex space.
type repairTree struct {
	w        float64
	parent   []int // parent[v] = new edge ID of v's incoming tree edge, -1 none
	touched  bool  // needed surgery beyond a straight edge remap
	detached bool  // at least one component hangs off the attached portion
}

// RepairPacking repairs p (a packing over oldG) onto newG. vmap maps old
// vertex indices to new ones (-1 for an evicted vertex) and must have
// length oldG.N; for a same-vertex derivation (link fault) it is the
// identity. The repair never mutates p; the outcome's packing is freshly
// built. An error means the inputs were malformed, not that repair failed —
// a clean "recompile instead" is Repaired == false.
func RepairPacking(oldG, newG *graph.Graph, vmap []int, p *Packing, opts RepairOptions) (*RepairOutcome, error) {
	opts.setDefaults()
	if len(vmap) != oldG.N {
		return nil, fmt.Errorf("core: vertex map has %d entries for %d vertices", len(vmap), oldG.N)
	}
	for v, nv := range vmap {
		if nv >= newG.N {
			return nil, fmt.Errorf("core: vertex map sends %d to %d, outside the new graph", v, nv)
		}
	}
	newRoot := -1
	if p.Root >= 0 && p.Root < len(vmap) {
		newRoot = vmap[p.Root]
	}
	out := &RepairOutcome{}
	if newRoot < 0 {
		// The root itself was evicted; the packing's orientation is gone.
		return out, nil
	}
	out.Bound = graph.BroadcastRateUpperBound(newG, newRoot)

	edgeMap := mapEdges(oldG, newG, vmap)
	cap := make([]float64, len(newG.Edges))
	for i, e := range newG.Edges {
		cap[i] = e.Cap
	}

	// Stage 1: remap every tree into new vertex/edge space.
	load := make([]float64, len(newG.Edges))
	trees := make([]*repairTree, 0, len(p.Trees))
	for _, t := range p.Trees {
		if t.Weight <= repairTiny {
			continue
		}
		rt := &repairTree{w: t.Weight, parent: make([]int, newG.N)}
		for v := range rt.parent {
			rt.parent[v] = -1
		}
		for _, id := range t.Arbo.Edges {
			e := oldG.Edges[id]
			nf, nt := vmap[e.From], vmap[e.To]
			nid := edgeMap[id]
			if nf < 0 || nt < 0 || nid < 0 {
				rt.touched = true // an edge or endpoint vanished
				continue
			}
			rt.parent[nt] = nid
			load[nid] += rt.w
		}
		trees = append(trees, rt)
	}

	// Stage 2: shed weight on overloaded (degraded) edges. Trees are
	// scanned lightest-first (p.Trees is sorted heaviest-first, so walk
	// backwards) so high-weight trees survive intact.
	for eid := range newG.Edges {
		for load[eid] > cap[eid]+repairTiny {
			over := load[eid] - cap[eid]
			shed := false
			for i := len(trees) - 1; i >= 0; i-- {
				rt := trees[i]
				if rt.w <= repairTiny || !slices.Contains(rt.parent, eid) {
					continue
				}
				cut := math.Min(over, rt.w)
				adjustLoad(rt, load, -cut)
				rt.w -= cut
				rt.touched = true
				shed = true
				break
			}
			if !shed {
				break // nothing left to shed (shouldn't happen)
			}
		}
	}

	// Stage 3: reattach detached components (or drop the tree).
	for _, rt := range trees {
		if rt.w <= repairTiny {
			continue
		}
		if !repairAttach(newG, rt, newRoot, cap, load) {
			// Irreparable at this weight: drop the tree entirely.
			adjustLoad(rt, load, -rt.w)
			rt.w = 0
			rt.detached = true
		}
	}

	// Stage 4a: re-weight survivors up to their bottleneck residuals.
	for _, rt := range trees {
		if rt.w <= repairTiny {
			continue
		}
		raise := math.Inf(1)
		for _, eid := range treeEdges(rt) {
			raise = min(raise, cap[eid]-load[eid])
		}
		if raise > repairTiny && !math.IsInf(raise, 1) {
			adjustLoad(rt, load, raise)
			rt.w += raise
			rt.touched = true
		}
	}

	// Stage 4b: grow new greedy trees over the remaining residual capacity
	// (the ApproxPack bottleneck peel, seeded with the repair's loads). cap
	// is not read again, so it becomes the peel's residual in place.
	for i := range cap {
		cap[i] -= load[i]
	}
	grown := peel(newG, newRoot, cap)

	// Finalize: collect surviving and grown trees into a fresh packing.
	rp := &Packing{Root: newRoot, Bound: out.Bound}
	for _, rt := range trees {
		if rt.w <= repairTiny {
			out.TreesDropped++
			continue
		}
		arbo := graph.Arborescence{Root: newRoot, Edges: treeEdges(rt)}
		rp.Trees = append(rp.Trees, Tree{Arbo: arbo, Weight: rt.w})
		rp.Rate += rt.w
		if rt.touched {
			out.TreesRepaired++
		} else {
			out.TreesKept++
		}
	}
	for _, t := range grown {
		rp.Trees = append(rp.Trees, t)
		rp.Rate += t.Weight
		out.TreesGrown++
	}
	sortTrees(rp.Trees)
	if rp.Rate <= repairTiny {
		return out, nil
	}
	if err := rp.Validate(newG); err != nil {
		// A structural defect means the repair went wrong; treat it as a
		// clean fallback rather than handing out a broken packing.
		return out, nil
	}
	if rp.Rate < out.Bound*(1-opts.Threshold)-repairTiny {
		return out, nil
	}
	out.Packing = rp
	out.Repaired = true
	return out, nil
}

// mapEdges maps each old edge ID to its new counterpart by (mapped
// endpoints, edge type, parallel-edge position), or -1 when the edge has no
// counterpart (removed link, evicted endpoint, folded parallel duplicate).
func mapEdges(oldG, newG *graph.Graph, vmap []int) []int {
	type key struct {
		from, to int
		ty       graph.EdgeType
	}
	newIDs := map[key][]int{}
	for _, e := range newG.Edges {
		k := key{e.From, e.To, e.Type}
		newIDs[k] = append(newIDs[k], e.ID)
	}
	seen := map[key]int{}
	out := make([]int, len(oldG.Edges))
	for _, e := range oldG.Edges {
		out[e.ID] = -1
		nf, nt := vmap[e.From], vmap[e.To]
		if nf < 0 || nt < 0 {
			continue
		}
		k := key{nf, nt, e.Type}
		pos := seen[k]
		seen[k]++
		if ids := newIDs[k]; pos < len(ids) {
			out[e.ID] = ids[pos]
		}
	}
	return out
}

// treeEdges returns the tree's surviving edge IDs in ascending vertex order
// (deterministic).
func treeEdges(rt *repairTree) []int {
	var out []int
	for v := range rt.parent {
		if rt.parent[v] >= 0 {
			out = append(out, rt.parent[v])
		}
	}
	return out
}

// adjustLoad adds delta to the load of every edge the tree uses.
func adjustLoad(rt *repairTree, load []float64, delta float64) {
	for _, eid := range treeEdges(rt) {
		load[eid] += delta
	}
}

// repairAttach restores the tree to a spanning arborescence of newG rooted
// at root, reattaching every detached component by entering it through a
// spare-capacity edge and re-rooting the component's parent chain around
// the entry vertex. Returns false when some component cannot be reattached
// at the tree's weight (caller drops the tree). Loads are updated for every
// added and reversed edge.
func repairAttach(g *graph.Graph, rt *repairTree, root int, cap, load []float64) bool {
	for {
		attached := attachedSet(g, rt, root)
		missing := -1
		for v := 0; v < g.N; v++ {
			if !attached[v] {
				missing = v
				break
			}
		}
		if missing < 0 {
			return true // spans
		}
		rt.touched = true
		if !attachComponent(g, rt, attached, cap, load) {
			return false
		}
	}
}

// attachedSet computes which vertices reach root through current parent
// assignments.
func attachedSet(g *graph.Graph, rt *repairTree, root int) []bool {
	children := make([][]int, g.N)
	for v := 0; v < g.N; v++ {
		if id := rt.parent[v]; id >= 0 {
			u := g.Edges[id].From
			children[u] = append(children[u], v)
		}
	}
	attached := make([]bool, g.N)
	stack := []int{root}
	attached[root] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range children[v] {
			if !attached[c] {
				attached[c] = true
				stack = append(stack, c)
			}
		}
	}
	return attached
}

// attachComponent finds one edge from the attached set into a detached
// vertex with residual >= the tree weight whose component can be re-rooted
// feasibly, and commits it. Scanning is in edge-ID order, so repair is
// deterministic. Returns false if no component can be attached.
func attachComponent(g *graph.Graph, rt *repairTree, attached []bool, cap, load []float64) bool {
	for _, e := range g.Edges {
		if !attached[e.From] || attached[e.To] {
			continue
		}
		if cap[e.ID]-load[e.ID] < rt.w-repairTiny {
			continue
		}
		// Entering the component at e.To: the chain of parent pointers
		// above e.To (within the component) must reverse. Collect it and
		// check every reversed edge has residual for w.
		path, ok := reversalPath(g, rt, e.To, cap, load)
		if !ok {
			continue
		}
		// Commit: e.To's old upward chain reverses, e becomes its parent.
		// Shed every forward load first — parent pointers are overwritten
		// below and must not be consulted again.
		for _, step := range path {
			load[step.fwdEdge] -= rt.w
		}
		for _, step := range path {
			rt.parent[step.parent] = step.revEdge
			load[step.revEdge] += rt.w
		}
		rt.parent[e.To] = e.ID
		load[e.ID] += rt.w
		return true
	}
	return false
}

// reversalStep reverses one former parent edge: `parent -> child` (fwdEdge)
// becomes `child -> parent` via revEdge.
type reversalStep struct {
	child, parent    int
	fwdEdge, revEdge int
}

// reversalPath walks up from entry through its (detached) parent chain and
// finds, for each former parent edge, a reverse-direction edge with
// residual capacity. ok is false when some hop has no feasible reverse.
func reversalPath(g *graph.Graph, rt *repairTree, entry int, cap, load []float64) ([]reversalStep, bool) {
	var path []reversalStep
	// Virtual residual deltas along the path: reversing frees the forward
	// edge and loads the reverse one; later hops must see earlier hops'
	// tentative loads so a doubly-used link is rejected.
	delta := map[int]float64{}
	v := entry
	for rt.parent[v] >= 0 {
		fwd := g.Edges[rt.parent[v]]
		parent := fwd.From
		rev := -1
		for _, id := range g.Out(v) {
			cand := g.Edges[id]
			if cand.To != parent || cand.Type != fwd.Type {
				continue
			}
			if cap[cand.ID]-load[cand.ID]-delta[cand.ID] >= rt.w-repairTiny {
				rev = cand.ID
				break
			}
		}
		if rev < 0 {
			return nil, false
		}
		delta[rev] += rt.w
		delta[fwd.ID] -= rt.w
		path = append(path, reversalStep{child: v, parent: parent, fwdEdge: fwd.ID, revEdge: rev})
		v = parent
	}
	return path, true
}

// IdentityVertexMap returns the identity map for derivations that preserve
// vertex indices (link faults).
func IdentityVertexMap(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}
