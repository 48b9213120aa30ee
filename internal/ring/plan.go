package ring

import (
	"fmt"

	"blink/internal/core"
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
func logicalRings(f *simgpu.Fabric, plane core.FabricSel) ([]logicalRing, error) {
	switch plane {
	case core.FabricPCIe:
		lr, err := PCIeRing(f.Graph, core.Ranks(f))
		return []logicalRing{lr}, err
	case core.FabricSwitch:
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

// builder mirrors core's plan builder for ring schedules.
type builder struct {
	f       *simgpu.Fabric
	opts    core.PlanOptions
	ops     []*simgpu.Op
	streams map[[4]int]int
}

func newBuilder(f *simgpu.Fabric, opts core.PlanOptions) *builder {
	opts.SetDefaults()
	return &builder{f: f, opts: opts, streams: map[[4]int]int{}}
}

func (b *builder) stream(ring, hop, leg, phase int) int {
	key := [4]int{ring, hop, leg, phase}
	id, ok := b.streams[key]
	if !ok {
		id = len(b.streams)
		b.streams[key] = id
	}
	return id
}

func (b *builder) add(op *simgpu.Op) int {
	b.ops = append(b.ops, op)
	return len(b.ops) - 1
}

// addHop emits ops moving bytes across one logical hop (possibly several
// edges, each possibly a two-leg switch transfer) and returns the delivery
// op index. exec runs at delivery.
func (b *builder) addHop(ring, hop, phase int, edges []int, bytes int64, deps []int, exec core.Exec, label string) int {
	last := -1
	leg := 0
	for ei, eid := range edges {
		links := b.f.EdgeLinks(eid)
		for li, link := range links {
			d := deps
			if last >= 0 {
				d = []int{last}
			}
			op := &simgpu.Op{
				Stream: b.stream(ring, hop, leg, phase),
				Link:   link,
				Bytes:  bytes,
				Deps:   append([]int(nil), d...),
				Label:  fmt.Sprintf("%s leg%d", label, leg),
			}
			if leg == 0 {
				op.Overhead = b.f.Cfg.OpOverhead
			}
			if ei == len(edges)-1 && li == len(links)-1 {
				op.Exec = exec
			}
			last = b.add(op)
			leg++
		}
	}
	return last
}

// BuildBroadcastPlan compiles an NCCL-style ring broadcast over the plane's
// rings: the payload is split across rings, and each ring pipelines chunks
// along the N-1 hop chain from the root.
func BuildBroadcastPlan(f *simgpu.Fabric, plane core.FabricSel, root int, bytes int64, opts core.PlanOptions) (*core.Plan, error) {
	lrs, err := logicalRings(f, plane)
	if err != nil {
		return nil, err
	}
	return buildChainBroadcast(f, lrs, root, bytes, opts)
}

// buildChainBroadcast pipelines the payload down each ring's chain from root.
func buildChainBroadcast(f *simgpu.Fabric, lrs []logicalRing, root int, bytes int64, opts core.PlanOptions) (*core.Plan, error) {
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
		for k := 0; k < chunks; k++ {
			coff := off + k*chunkFloats
			cn := chunkFloats
			if rem := off + n - coff; rem < cn {
				cn = rem
			}
			for h := 0; h+1 < len(lr.verts); h++ {
				var deps []int
				if h > 0 {
					deps = []int{prevHop[h-1]}
				}
				src, dst := lr.verts[h], lr.verts[h+1]
				prevHop[h] = b.addHop(ri, h, 0, lr.hops[h], int64(cn)*4, deps,
					copyExec(b, src, dst, core.BufData, coff, cn, coff+cn),
					fmt.Sprintf("rbcast r%d c%d %d->%d", ri, k, src, dst))
			}
		}
		off += n
	}
	return &core.Plan{Ops: b.ops, TotalBytes: int64(totalFloats) * 4, Fabric: f, Streams: len(b.streams)}, nil
}

// copyExec is core's copy kernel over buffers resolved at bufLen floats
// (nil outside data mode).
func copyExec(b *builder, src, dst, tag, off, n, bufLen int) core.Exec {
	if !b.opts.DataMode {
		return nil
	}
	return core.CopyKernel(src, dst, tag, tag, off, n, bufLen)
}
