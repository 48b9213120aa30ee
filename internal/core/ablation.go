package core

import (
	"fmt"

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

	run := func(p *Packing, opts PlanOptions) (float64, error) {
		plan, err := BuildBroadcastPlan(f, p, bytes, opts)
		if err != nil {
			return 0, err
		}
		return plan.ThroughputGBs()
	}

	full := PlanOptions{ChunkBytes: 2 << 20, NoStreamReuse: true}
	var out []AblationVariant

	tp, err := run(minimized, full)
	if err != nil {
		return nil, err
	}
	out = append(out, AblationVariant{
		Name:          "full",
		Description:   "MWU + ILP minimization + 2MB chunk pipelining",
		ThroughputGBs: tp,
		Trees:         len(minimized.Trees),
	})

	// No ILP minimization: schedule the raw MWU packing. Many fractional
	// trees mean tiny per-tree transfers (§3.2.1's motivation).
	tp, err = run(mwu, full)
	if err != nil {
		return nil, err
	}
	out = append(out, AblationVariant{
		Name:          "no-minimize",
		Description:   "raw MWU packing (no ILP tree-count reduction)",
		ThroughputGBs: tp,
		Trees:         len(mwu.Trees),
	})

	// No chunking: each tree sends its whole share at once, so multi-hop
	// forwarding cannot pipeline (Fig 11's left timeline).
	tp, err = run(minimized, PlanOptions{ChunkBytes: bytes, NoStreamReuse: true})
	if err != nil {
		return nil, err
	}
	out = append(out, AblationVariant{
		Name:          "no-chunking",
		Description:   "single chunk per tree (no pipelining)",
		ThroughputGBs: tp,
		Trees:         len(minimized.Trees),
	})

	// Shared streams (the paper's §4.2.2 layout): trees sharing a link at
	// the same depth share a stream; launch overheads then serialize.
	tp, err = run(minimized, PlanOptions{ChunkBytes: 2 << 20})
	if err != nil {
		return nil, err
	}
	out = append(out, AblationVariant{
		Name:          "shared-streams",
		Description:   "stream reuse across trees (serializes launch overheads)",
		ThroughputGBs: tp,
		Trees:         len(minimized.Trees),
	})

	// Single tree: the best one tree alone (what a naive tree broadcast
	// would do) — shows why packing multiple trees matters at all.
	if len(minimized.Trees) > 0 {
		single := &Packing{Root: root, Trees: minimized.Trees[:1], Rate: minimized.Trees[0].Weight, Bound: minimized.Bound}
		tp, err = run(single, full)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationVariant{
			Name:          "single-tree",
			Description:   "one spanning tree instead of a packing",
			ThroughputGBs: tp,
			Trees:         1,
		})
	}
	return out, nil
}

// FormatAblation renders the study as rows relative to the full system.
func FormatAblation(vs []AblationVariant) []string {
	if len(vs) == 0 {
		return nil
	}
	base := vs[0].ThroughputGBs
	var rows []string
	for _, v := range vs {
		rows = append(rows, fmt.Sprintf("%-15s %6.1f GB/s (%5.2fx of full, %d trees)  %s",
			v.Name, v.ThroughputGBs, v.ThroughputGBs/base, v.Trees, v.Description))
	}
	return rows
}
