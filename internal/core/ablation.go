package core

import (
	"blink/internal/graph"
	"blink/internal/simgpu"
)

// Ablation quantifies how much each design decision in DESIGN.md
// contributes: it rebuilds the same collective with individual features
// disabled and reports the throughput of each variant. This backs the
// design-choice discussion in §3.2.1 (tree minimization), §4.1 (chunked
// pipelining) and §4.2.2 (stream assignment).

// AblationVariant names one configuration.
type AblationVariant struct {
	Name string
	// Description explains what is disabled relative to the full system.
	Description   string
	ThroughputGBs float64
	Trees         int
}

// AblationStudy runs a broadcast of `bytes` from root over the graph with
// each feature toggled off in turn.
func AblationStudy(f *simgpu.Fabric, g *graph.Graph, root int, bytes int64) ([]AblationVariant, error) {
	mwu, err := PackTrees(g, root)
	if err != nil {
		return nil, err
	}
	minimized := MinimizeTrees(g, mwu)
	full := PlanOptions{ChunkBytes: 2 << 20, NoStreamReuse: true}
	variants := []struct {
		AblationVariant
		p    *Packing
		opts PlanOptions
	}{
		{AblationVariant{Name: "full", Description: "MWU + ILP minimization + 2MB chunk pipelining"}, minimized, full},
		{AblationVariant{Name: "no-minimize", Description: "raw MWU packing (no ILP tree-count reduction)"}, mwu, full},
		{AblationVariant{Name: "no-chunking", Description: "single chunk per tree (no pipelining)"}, minimized, PlanOptions{ChunkBytes: bytes, NoStreamReuse: true}},
		{AblationVariant{Name: "shared-streams", Description: "stream reuse across trees (serializes launch overheads)"}, minimized, PlanOptions{ChunkBytes: 2 << 20}},
		{AblationVariant{Name: "single-tree", Description: "one spanning tree instead of a packing"}, nil, full},
	}
	if len(minimized.Trees) > 0 {
		variants[4].p = &Packing{Root: root, Trees: minimized.Trees[:1], Rate: minimized.Trees[0].Weight, Bound: minimized.Bound}
	} else {
		variants = variants[:4]
	}
	var out []AblationVariant
	for _, v := range variants {
		plan, err := BuildBroadcastPlan(f, v.p, bytes, v.opts)
		if err == nil {
			v.ThroughputGBs, err = plan.ThroughputGBs()
		}
		if err != nil {
			return nil, err
		}
		v.Trees = len(v.p.Trees)
		out = append(out, v.AblationVariant)
	}
	return out, nil
}
