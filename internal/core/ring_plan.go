package core

import (
	"fmt"

	"blink/internal/graph"
	"blink/internal/simgpu"
)

// logicalRing is a cyclic GPU order where each hop may traverse several
// graph edges (one for NVLink, two for PCIe via the hub or a switch).
type logicalRing struct {
	verts []int
	hops  [][]int // hops[i]: edge IDs from verts[i] to verts[i+1 mod n]
}

func fromRing(r Ring) logicalRing {
	lr := logicalRing{verts: append([]int(nil), r.Verts...)}
	for _, e := range r.Edges {
		lr.hops = append(lr.hops, []int{e})
	}
	return lr
}

// rotate returns the ring re-anchored to start at vertex v.
func (lr logicalRing) rotate(v int) (logicalRing, error) {
	for i, u := range lr.verts {
		if u == v {
			out := logicalRing{}
			n := len(lr.verts)
			for j := 0; j < n; j++ {
				out.verts = append(out.verts, lr.verts[(i+j)%n])
				out.hops = append(out.hops, lr.hops[(i+j)%n])
			}
			return out, nil
		}
	}
	return logicalRing{}, fmt.Errorf("ring: vertex %d not on ring", v)
}

// PCIeRing builds the fallback logical ring over a PCIe hub graph (GPU
// vertices [0, nGPUs), hub at nGPUs). NCCL's PCIe rings move data with
// direct peer-to-peer DMA through the PCIe switch hierarchy, so a hop
// occupies only the sender's PCIe lane (one leg), unlike Blink's hub trees
// which stage data at the root complex. This matches the paper's measured
// fallback numbers (broadcast ~4.8 GB/s, Fig 2b).
func PCIeRing(g *graph.Graph, nGPUs int) (logicalRing, error) {
	hub := nGPUs
	up := make([]int, nGPUs)
	for i := range up {
		up[i] = -1
	}
	for _, e := range g.Edges {
		if e.To == hub && e.From < nGPUs {
			up[e.From] = e.ID
		}
	}
	lr := logicalRing{}
	for i := 0; i < nGPUs; i++ {
		if up[i] < 0 {
			return lr, fmt.Errorf("ring: GPU %d lacks PCIe attach", i)
		}
		lr.verts = append(lr.verts, i)
		lr.hops = append(lr.hops, []int{up[i]})
	}
	return lr, nil
}

// SwitchRing builds the natural ring 0 -> 1 -> ... -> n-1 -> 0 over a
// logical all-to-all switch graph (NCCL's large-payload schedule on DGX-2).
func SwitchRing(lg *graph.Graph) (logicalRing, error) {
	edge := map[[2]int]int{}
	for _, e := range lg.Edges {
		edge[[2]int{e.From, e.To}] = e.ID
	}
	lr := logicalRing{}
	n := lg.N
	for i := 0; i < n; i++ {
		id, ok := edge[[2]int{i, (i + 1) % n}]
		if !ok {
			return lr, fmt.Errorf("ring: logical edge %d->%d missing", i, (i+1)%n)
		}
		lr.verts = append(lr.verts, i)
		lr.hops = append(lr.hops, []int{id})
	}
	return lr, nil
}

// logicalRings returns the rings NCCL walks on a plane of f: every
// edge-disjoint NVLink ring FindRings extracts, the one PCIe fallback ring
// of Figure 2b, or the natural ring of a switch fabric. The rings are a
// deterministic function of the fabric graph, which is why an IR carries
// only the plane.
func logicalRings(f *simgpu.Fabric, plane FabricSel) ([]logicalRing, error) {
	switch plane {
	case FabricPCIe:
		lr, err := PCIeRing(f.Graph, ranksOf(f))
		return []logicalRing{lr}, err
	case FabricSwitch:
		lr, err := SwitchRing(f.Graph)
		return []logicalRing{lr}, err
	}
	rings := FindRings(f.Graph)
	if len(rings) == 0 {
		return nil, fmt.Errorf("ring: fabric has no NVLink rings to host a ring-scheduled plan")
	}
	lrs := make([]logicalRing, len(rings))
	for i, r := range rings {
		lrs[i] = fromRing(r)
	}
	return lrs, nil
}

// addHop emits ops moving bytes across one logical ring hop (possibly
// several edges, each possibly a two-leg switch transfer) and returns the
// delivery op index. exec runs at delivery.
func (b *planBuilder) addHop(ring, hop, phase int, edges []int, bytes int64, deps []int, exec Exec, tag simgpu.Tag) int {
	last := -1
	leg := 0
	for ei, eid := range edges {
		links := b.f.EdgeLinks(eid)
		for li, link := range links {
			tag.Leg = uint8(leg + 1)
			op := simgpu.Op{
				Stream: b.streamFor([5]int{ring, hop, leg, phase}),
				Link:   link,
				Bytes:  bytes,
				Tag:    tag,
			}
			if leg == 0 {
				op.Overhead = b.f.Cfg.OpOverhead
			}
			if ei == len(edges)-1 && li == len(links)-1 {
				op.Exec = exec
			}
			if last >= 0 {
				last = b.add(&op, last)
			} else {
				last = b.add(&op, deps...)
			}
			leg++
		}
	}
	return last
}

// BuildRingBroadcastPlan compiles an NCCL-style ring broadcast over the
// plane's rings: the payload is split across rings, and each ring pipelines
// chunks along the N-1 hop chain from the root.
func BuildRingBroadcastPlan(f *simgpu.Fabric, plane FabricSel, root int, bytes int64, opts PlanOptions) (*Plan, error) {
	lrs, err := logicalRings(f, plane)
	if err != nil {
		return nil, err
	}
	return buildChainBroadcast(f, lrs, root, bytes, opts)
}

// buildChainBroadcast pipelines the payload down each ring's chain from root.
func buildChainBroadcast(f *simgpu.Fabric, lrs []logicalRing, root int, bytes int64, opts PlanOptions) (*Plan, error) {
	totalFloats := int(bytes / 4)
	if totalFloats <= 0 {
		return nil, fmt.Errorf("ring: payload too small")
	}
	b := newBuilder(f, opts)
	chunkFloats := int(b.opts.ChunkBytes / 4)
	share := totalFloats / len(lrs)
	off := 0
	for ri, lr := range lrs {
		lr, err := lr.rotate(root)
		if err != nil {
			return nil, err
		}
		n := share
		if ri == len(lrs)-1 {
			n = totalFloats - off
		}
		chunks := (n + chunkFloats - 1) / chunkFloats
		prevHop := make([]int, len(lr.verts)) // delivery op of current chunk at hop h
		var deps []int
		for k := 0; k < chunks; k++ {
			coff := off + k*chunkFloats
			cn := min(chunkFloats, off+n-coff)
			for h := 0; h+1 < len(lr.verts); h++ {
				deps = deps[:0]
				if h > 0 {
					deps = append(deps, prevHop[h-1])
				}
				src, dst := lr.verts[h], lr.verts[h+1]
				prevHop[h] = b.addHop(ri, h, 0, lr.hops[h], int64(cn)*4, deps,
					b.copyExec(src, dst, BufData, BufData, coff, cn, coff+cn),
					opTag(tagRBcast, ri, k, src, dst))
			}
		}
		off += n
	}
	return b.plan(int64(totalFloats) * 4), nil
}
