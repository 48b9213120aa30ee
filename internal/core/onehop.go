package core

import (
	"fmt"

	"blink/internal/graph"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

// OneHopTrees builds Blink's DGX-2 schedule structure (§3.5): with m GPUs
// behind a non-blocking switch, each GPU roots one single-hop tree over 1/m
// of the data, directly connected to the other m-1 GPUs through the switch.
// The trees live on the logical all-to-all graph lg (topology.DGX2Logical),
// which the switch fabric maps onto physical attach links. The returned
// packings are per-root; each tree's weight is the per-GPU attach capacity
// divided by the m-1 co-resident trees sharing every down-link.
func OneHopTrees(t *topology.Topology, lg *graph.Graph) ([]*Packing, error) {
	if t.Kind != topology.KindDGX2 {
		return nil, fmt.Errorf("core: one-hop trees require a switch topology, got %v", t.Name)
	}
	m := lg.N
	if m < 2 {
		return nil, fmt.Errorf("core: logical graph too small (%d vertices)", m)
	}
	edge := map[[2]int]int{} // (u, v) -> logical edge ID u->v
	for _, e := range lg.Edges {
		edge[[2]int{e.From, e.To}] = e.ID
	}
	var out []*Packing
	for root := 0; root < m; root++ {
		var edges []int
		// Rotated leaf order: root r reaches leaf r+1 first, r+2 second,
		// and so on, so the m concurrent trees never converge on the same
		// receiver at the same step (all-to-all staggering).
		for i := 1; i < m; i++ {
			leaf := (root + i) % m
			id, ok := edge[[2]int{root, leaf}]
			if !ok {
				return nil, fmt.Errorf("core: logical graph missing edge %d->%d", root, leaf)
			}
			edges = append(edges, id)
		}
		arbo := graph.Arborescence{Root: root, Edges: edges}
		if err := arbo.Validate(lg); err != nil {
			return nil, fmt.Errorf("core: one-hop tree for root %d invalid: %w", root, err)
		}
		w := float64(topology.DGX2LinksPerGPU) / float64(m-1)
		out = append(out, &Packing{
			Root:  root,
			Trees: []Tree{{Arbo: arbo, Weight: w}},
			Rate:  w,
			Bound: float64(topology.DGX2LinksPerGPU),
		})
	}
	return out, nil
}

// BuildDGX2AllReducePlan compiles Blink's DGX-2 AllReduce (§3.5): the
// payload splits into one share per GPU; every GPU roots a one-hop
// reduce-broadcast over its share, and all m root plans execute
// concurrently through the switch fabric.
func BuildDGX2AllReducePlan(f *simgpu.Fabric, packs []*Packing, bytes int64, opts PlanOptions) (*Plan, error) {
	if len(packs) == 0 {
		return nil, fmt.Errorf("core: no one-hop packings")
	}
	return newBuilder(f, opts).allReduceParts(bytes, len(packs), func(i int) (*Packing, int) { return packs[i], packs[i].Root })
}

// NewDGX2Runtime builds the logical graph, one-hop packings and switch
// fabric for a DGX-2 in one call.
func NewDGX2Runtime(cfg simgpu.Config) (*topology.Topology, *graph.Graph, []*Packing, *simgpu.Fabric, error) {
	t := topology.DGX2()
	lg := topology.DGX2Logical()
	packs, err := OneHopTrees(t, lg)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	f := simgpu.NewSwitchFabric(t, lg, topology.DGX2LinksPerGPU, cfg)
	return t, lg, packs, f, nil
}
