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

// pathArbo builds the arborescence root -> ... -> end following the chain.
func pathArbo(g *graph.Graph, order []int) (graph.Arborescence, error) {
	edge := map[[2]int]int{}
	for _, e := range g.Edges {
		edge[[2]int{e.From, e.To}] = e.ID
	}
	a := graph.Arborescence{Root: order[0]}
	for i := 0; i+1 < len(order); i++ {
		id, ok := edge[[2]int{order[i], order[i+1]}]
		if !ok {
			return a, fmt.Errorf("micro: missing edge %d->%d", order[i], order[i+1])
		}
		a.Edges = append(a.Edges, id)
	}
	return a, nil
}

func singleTreePacking(a graph.Arborescence) *core.Packing {
	return &core.Packing{Root: a.Root, Trees: []core.Tree{{Arbo: a, Weight: 1}}, Rate: 1}
}

func planOpts(chunk int64) core.PlanOptions {
	return core.PlanOptions{ChunkBytes: chunk, NoStreamReuse: true}
}

// ChainForward broadcasts bytes down the chain (Fig 23a / 24a).
func ChainForward(f *simgpu.Fabric, bytes, chunk int64) (*core.Plan, error) {
	k := f.Graph.N
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	a, err := pathArbo(f.Graph, order)
	if err != nil {
		return nil, err
	}
	return core.BuildBroadcastPlan(f, singleTreePacking(a), bytes, planOpts(chunk))
}

// ChainReduceForward reduces every GPU's data toward the chain's end
// (Fig 6 / 24b): each hop combines the received partial with local data.
func ChainReduceForward(f *simgpu.Fabric, bytes, chunk int64) (*core.Plan, error) {
	k := f.Graph.N
	order := make([]int, k)
	for i := range order {
		order[i] = k - 1 - i // rooted at the last GPU
	}
	a, err := pathArbo(f.Graph, order)
	if err != nil {
		return nil, err
	}
	plan, _, err := core.BuildReducePlan(f, singleTreePacking(a), bytes, planOpts(chunk))
	return plan, err
}

// ChainReduceBroadcast reduces toward the end and broadcasts the result
// back (Fig 23c / 24c), i.e. an AllReduce over the chain.
func ChainReduceBroadcast(f *simgpu.Fabric, bytes, chunk int64) (*core.Plan, error) {
	k := f.Graph.N
	order := make([]int, k)
	for i := range order {
		order[i] = k - 1 - i
	}
	a, err := pathArbo(f.Graph, order)
	if err != nil {
		return nil, err
	}
	return core.BuildAllReducePlan(f, singleTreePacking(a), bytes, planOpts(chunk))
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
	n := f.Graph.N
	sink := n - 1
	center := n - 2
	a := graph.Arborescence{Root: sink}
	edge := map[[2]int]int{}
	for _, e := range f.Graph.Edges {
		edge[[2]int{e.From, e.To}] = e.ID
	}
	a.Edges = append(a.Edges, edge[[2]int{sink, center}])
	for s := 0; s < n-2; s++ {
		a.Edges = append(a.Edges, edge[[2]int{center, s}])
	}
	return core.BuildGatherPlan(f, singleTreePacking(a), bytes, planOpts(chunk))
}

// FanInReduceForward has the center reduce incoming data with its own
// before forwarding to the sink (Fig 25b).
func FanInReduceForward(f *simgpu.Fabric, bytes, chunk int64) (*core.Plan, error) {
	n := f.Graph.N
	sink := n - 1
	center := n - 2
	edge := map[[2]int]int{}
	for _, e := range f.Graph.Edges {
		edge[[2]int{e.From, e.To}] = e.ID
	}
	a := graph.Arborescence{Root: sink}
	a.Edges = append(a.Edges, edge[[2]int{sink, center}])
	for s := 0; s < n-2; s++ {
		a.Edges = append(a.Edges, edge[[2]int{center, s}])
	}
	plan, _, err := core.BuildReducePlan(f, singleTreePacking(a), bytes, planOpts(chunk))
	return plan, err
}

// FanOutForward multicasts the center's received data to the sources
// (Fig 25c): sink -> center -> all sources.
func FanOutForward(f *simgpu.Fabric, bytes, chunk int64) (*core.Plan, error) {
	n := f.Graph.N
	sink := n - 1
	center := n - 2
	edge := map[[2]int]int{}
	for _, e := range f.Graph.Edges {
		edge[[2]int{e.From, e.To}] = e.ID
	}
	a := graph.Arborescence{Root: sink}
	a.Edges = append(a.Edges, edge[[2]int{sink, center}])
	for s := 0; s < n-2; s++ {
		a.Edges = append(a.Edges, edge[[2]int{center, s}])
	}
	return core.BuildBroadcastPlan(f, singleTreePacking(a), bytes, planOpts(chunk))
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
		a, err := pathArbo(g, []int{2, 1, 0})
		if err != nil {
			return 0, err
		}
		plan, _, err := core.BuildReducePlan(f, singleTreePacking(a), bytes, planOpts(chunk))
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
	edge := map[[2]int]int{}
	for _, e := range g.Edges {
		edge[[2]int{e.From, e.To}] = e.ID
	}
	a := graph.Arborescence{Root: 4, Edges: []int{
		edge[[2]int{4, 1}], edge[[2]int{1, 0}],
		edge[[2]int{4, 3}], edge[[2]int{3, 2}],
	}}
	plan, _, err := core.BuildReducePlan(f, singleTreePacking(a), bytes, planOpts(chunk))
	if err != nil {
		return 0, err
	}
	res, err := plan.Execute()
	if err != nil {
		return 0, err
	}
	return float64(bytes) / res.Makespan / 1e9, nil
}
