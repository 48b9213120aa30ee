// Package micro reproduces the paper's micro-benchmarks (§2.2 and Appendix
// A): depth tests over GPU chains (forward, reduce+forward,
// reduce-broadcast), breadth tests (fan-in/fan-out), and the multi-transfer
// MIMO and MCA patterns that motivated packing trees.
package micro

import (
	"fmt"

	"blink/internal/core"
	"blink/internal/graph"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

// customTopo wraps a hand-built graph as a V100-class topology.
func customTopo(name string, g *graph.Graph, n int) *topology.Topology {
	return &topology.Topology{
		Name:    name,
		Kind:    topology.KindCustom,
		Gen:     topology.GenV100,
		NumGPUs: n,
		G:       g,
		P:       graph.New(n + 1),
		DevIDs:  nil,
	}
}

// ChainFabric builds a k-GPU chain connected by single NVLink Gen2 links.
func ChainFabric(k int, cfg simgpu.Config) (*simgpu.Fabric, error) {
	if k < 2 {
		return nil, fmt.Errorf("micro: chain needs >= 2 GPUs")
	}
	g := graph.New(k)
	for i := 0; i+1 < k; i++ {
		g.AddBiEdge(i, i+1, 1, graph.NVLink)
	}
	return simgpu.NewFabric(customTopo(fmt.Sprintf("chain-%d", k), g, k), g, cfg), nil
}

// tree is the single-tree packing from root over g's edges u->v, one per
// hop {u, v}.
func tree(g *graph.Graph, root int, hops ...[2]int) (*core.Packing, error) {
	edge := map[[2]int]int{}
	for _, e := range g.Edges {
		edge[[2]int{e.From, e.To}] = e.ID
	}
	a := graph.Arborescence{Root: root}
	for _, h := range hops {
		id, ok := edge[h]
		if !ok {
			return nil, fmt.Errorf("micro: missing edge %d->%d", h[0], h[1])
		}
		a.Edges = append(a.Edges, id)
	}
	return &core.Packing{Root: root, Trees: []core.Tree{{Arbo: a, Weight: 1}}, Rate: 1}, nil
}

// chain is the single-tree packing down g's chain from its first GPU, or
// from its last when reversed.
func chain(g *graph.Graph, reversed bool) (*core.Packing, error) {
	hops := make([][2]int, g.N-1)
	for i := range hops {
		hops[i] = [2]int{i, i + 1}
		if reversed {
			hops[i] = [2]int{g.N - 1 - i, g.N - 2 - i}
		}
	}
	return tree(g, hops[0][0], hops...)
}

// fan is the single-tree packing of Fig 25's patterns: the sink, through
// the center, to every source.
func fan(g *graph.Graph) (*core.Packing, error) {
	sink, center := g.N-1, g.N-2
	hops := [][2]int{{sink, center}}
	for s := 0; s < center; s++ {
		hops = append(hops, [2]int{center, s})
	}
	return tree(g, sink, hops...)
}

func planOpts(chunk int64) core.PlanOptions {
	return core.PlanOptions{ChunkBytes: chunk, NoStreamReuse: true}
}

// ChainForward broadcasts bytes down the chain (Fig 23a / 24a).
func ChainForward(f *simgpu.Fabric, bytes, chunk int64) (*core.Plan, error) {
	p, err := chain(f.Graph, false)
	if err != nil {
		return nil, err
	}
	return core.BuildBroadcastPlan(f, p, bytes, planOpts(chunk))
}

// ChainReduceForward reduces every GPU's data toward the chain's end
// (Fig 6 / 24b): each hop combines the received partial with local data.
func ChainReduceForward(f *simgpu.Fabric, bytes, chunk int64) (*core.Plan, error) {
	p, err := chain(f.Graph, true) // rooted at the last GPU
	if err != nil {
		return nil, err
	}
	plan, _, err := core.BuildReducePlan(f, p, bytes, planOpts(chunk))
	return plan, err
}

// ChainReduceBroadcast reduces toward the end and broadcasts the result
// back (Fig 23c / 24c), i.e. an AllReduce over the chain.
func ChainReduceBroadcast(f *simgpu.Fabric, bytes, chunk int64) (*core.Plan, error) {
	p, err := chain(f.Graph, true)
	if err != nil {
		return nil, err
	}
	return core.BuildAllReducePlan(f, p, bytes, planOpts(chunk))
}

// FanFabric builds deg source GPUs attached to a center, which feeds a sink
// (Fig 25). Vertices: sources [0,deg), center deg, sink deg+1.
func FanFabric(deg int, cfg simgpu.Config) (*simgpu.Fabric, error) {
	if deg < 1 || deg > 3 {
		return nil, fmt.Errorf("micro: DGX-1 fan degree is limited to 1..3, got %d", deg)
	}
	n := deg + 2
	g := graph.New(n)
	for s := 0; s < deg; s++ {
		g.AddBiEdge(s, deg, 1, graph.NVLink)
	}
	g.AddBiEdge(deg, deg+1, 1, graph.NVLink)
	return simgpu.NewFabric(customTopo(fmt.Sprintf("fan-%d", deg), g, n), g, cfg), nil
}

// FanInForward gathers the sources' data at the center, which forwards the
// collection to the sink (Fig 25a).
func FanInForward(f *simgpu.Fabric, bytes, chunk int64) (*core.Plan, error) {
	p, err := fan(f.Graph)
	if err != nil {
		return nil, err
	}
	return core.BuildGatherPlan(f, p, bytes, planOpts(chunk))
}

// FanInReduceForward has the center reduce incoming data with its own
// before forwarding to the sink (Fig 25b).
func FanInReduceForward(f *simgpu.Fabric, bytes, chunk int64) (*core.Plan, error) {
	p, err := fan(f.Graph)
	if err != nil {
		return nil, err
	}
	plan, _, err := core.BuildReducePlan(f, p, bytes, planOpts(chunk))
	return plan, err
}

// FanOutForward multicasts the center's received data to the sources
// (Fig 25c): sink -> center -> all sources.
func FanOutForward(f *simgpu.Fabric, bytes, chunk int64) (*core.Plan, error) {
	p, err := fan(f.Graph)
	if err != nil {
		return nil, err
	}
	return core.BuildBroadcastPlan(f, p, bytes, planOpts(chunk))
}

// MIMO times the multi-input multi-output pattern of Fig 8a: GPU1 and GPU2
// send to center GPU3, which reduces with its own data and forwards the two
// results to GPU4 and GPU5. The two flows (1->3->4 and 2->3->5) use
// disjoint links and run concurrently; the reported throughput is per-flow
// bytes over the slower flow's makespan, matching Fig 8c's accounting.
func MIMO(bytes, chunk int64, cfg simgpu.Config) (float64, error) {
	worst := 0.0
	// Each flow is a 3-GPU reduce+forward chain source -> center -> sink.
	for flow := 0; flow < 2; flow++ {
		g := graph.New(3)
		g.AddBiEdge(0, 1, 1, graph.NVLink)
		g.AddBiEdge(1, 2, 1, graph.NVLink)
		f := simgpu.NewFabric(customTopo("mimo-flow", g, 3), g, cfg)
		p, err := chain(g, true)
		if err != nil {
			return 0, err
		}
		plan, _, err := core.BuildReducePlan(f, p, bytes, planOpts(chunk))
		if err != nil {
			return 0, err
		}
		res, err := plan.Execute()
		if err != nil {
			return 0, err
		}
		worst = max(worst, res.Makespan)
	}
	return float64(bytes) / worst / 1e9, nil
}

// MCA times the multi-chain aggregation pattern of Fig 8b: two
// reduce+forward chains (GPU1->GPU2, GPU3->GPU4) merge at center GPU5.
func MCA(bytes, chunk int64, cfg simgpu.Config) (float64, error) {
	g := graph.New(5) // 0:GPU1 1:GPU2 2:GPU3 3:GPU4 4:GPU5(center)
	g.AddBiEdge(0, 1, 1, graph.NVLink)
	g.AddBiEdge(1, 4, 1, graph.NVLink)
	g.AddBiEdge(2, 3, 1, graph.NVLink)
	g.AddBiEdge(3, 4, 1, graph.NVLink)
	f := simgpu.NewFabric(customTopo("mca", g, 5), g, cfg)
	p, err := tree(g, 4, [2]int{4, 1}, [2]int{1, 0}, [2]int{4, 3}, [2]int{3, 2})
	if err != nil {
		return 0, err
	}
	plan, _, err := core.BuildReducePlan(f, p, bytes, planOpts(chunk))
	if err != nil {
		return 0, err
	}
	res, err := plan.Execute()
	if err != nil {
		return 0, err
	}
	return float64(bytes) / res.Makespan / 1e9, nil
}
