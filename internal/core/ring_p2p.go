package core

import (
	"fmt"

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

// BuildRingP2PPlan schedules each pair's payload store-and-forward along one of
// the plane's rings (the NCCL baseline for AllToAll, SendRecv chains and
// neighbor exchange), walking hop by hop through every intermediate rank
// exactly as NCCL's ring channels move point-to-point traffic. Pairs are
// assigned to rings round-robin and chunk-pipelined along their path. With
// chained set, pair i+1's chunk k additionally waits on pair i's chunk k
// delivery — the ordered stage semantics of a send/recv pipeline.
func BuildRingP2PPlan(f *simgpu.Fabric, plane FabricSel, pairs []IRPair, chained bool, opts PlanOptions) (*Plan, error) {
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
	var deps []int
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
			cn := min(chunkFloats, floats-k*chunkFloats)
			last := -1
			for s, h := range hops {
				deps = deps[:0]
				if s > 0 {
					deps = append(deps, last)
				} else if chained && pi > 0 && k < len(prevDelivery) {
					deps = append(deps, prevDelivery[k])
				}
				last = b.addHop(pi, s, pi%len(lrs), lr.hops[h], int64(cn)*4, deps, nil,
					opTag(tagP2P, p.Src, p.Dst, k, s))
			}
			delivery[k] = last
		}
		prevDelivery = delivery
		total += p.Bytes
	}
	return b.plan(total), nil
}
