package ring

import (
	"fmt"

	"blink/internal/core"
	"blink/internal/simgpu"
)

// pathHops returns the hop indices walking the ring forward from src to dst.
func (lr logicalRing) pathHops(src, dst int) ([]int, error) {
	si := -1
	for i, v := range lr.verts {
		if v == src {
			si = i
			break
		}
	}
	if si < 0 {
		return nil, fmt.Errorf("ring: vertex %d not on ring", src)
	}
	var hops []int
	for i := si; lr.verts[i] != dst; i = (i + 1) % len(lr.verts) {
		hops = append(hops, i)
		if len(hops) >= len(lr.verts) {
			return nil, fmt.Errorf("ring: vertex %d not on ring", dst)
		}
	}
	if len(hops) == 0 {
		return nil, fmt.Errorf("ring: transfer %d->%d to itself", src, dst)
	}
	return hops, nil
}

// BuildP2PPlan schedules each pair's payload store-and-forward along one of
// the plane's rings (the NCCL baseline for AllToAll, SendRecv chains and
// neighbor exchange), walking hop by hop through every intermediate rank
// exactly as NCCL's ring channels move point-to-point traffic. Pairs are
// assigned to rings round-robin and chunk-pipelined along their path. With
// chained set, pair i+1's chunk k additionally waits on pair i's chunk k
// delivery — the ordered stage semantics of a send/recv pipeline.
func BuildP2PPlan(f *simgpu.Fabric, plane core.FabricSel, pairs []core.IRPair, chained bool, opts core.PlanOptions) (*core.Plan, error) {
	lrs, err := logicalRings(f, plane)
	if err != nil {
		return nil, err
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("ring: no transfers")
	}
	b := newBuilder(f, opts)
	chunkFloats := int(b.opts.ChunkBytes / 4)
	var total int64
	var prevDelivery []int // per-chunk delivery ops of the previous pair
	for pi, p := range pairs {
		floats := int(p.Bytes / 4)
		if floats <= 0 {
			return nil, fmt.Errorf("ring: transfer %d->%d too small (%d bytes)", p.Src, p.Dst, p.Bytes)
		}
		lr := lrs[pi%len(lrs)]
		hops, err := lr.pathHops(p.Src, p.Dst)
		if err != nil {
			return nil, err
		}
		chunks := (floats + chunkFloats - 1) / chunkFloats
		delivery := make([]int, chunks)
		for k := 0; k < chunks; k++ {
			cn := chunkFloats
			if rem := floats - k*chunkFloats; rem < cn {
				cn = rem
			}
			last := -1
			for s, h := range hops {
				var deps []int
				if s > 0 {
					deps = []int{last}
				} else if chained && pi > 0 && k < len(prevDelivery) {
					deps = []int{prevDelivery[k]}
				}
				last = b.addHop(pi, s, pi%len(lrs), lr.hops[h], int64(cn)*4, deps, nil,
					fmt.Sprintf("p2p %d->%d c%d h%d", p.Src, p.Dst, k, s))
			}
			delivery[k] = last
		}
		prevDelivery = delivery
		total += p.Bytes
	}
	return &core.Plan{Ops: b.ops, TotalBytes: total, Fabric: f, Streams: len(b.streams)}, nil
}
