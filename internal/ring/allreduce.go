package ring

import (
	"fmt"

	"blink/internal/core"
	"blink/internal/simgpu"
)

// Ring AllReduce (reduce-scatter followed by all-gather), the
// bandwidth-optimal algorithm NCCL runs on large payloads: with N ranks the
// payload splits into N segments; during N-1 reduce-scatter steps each rank
// forwards a segment to its successor which accumulates it, then N-1
// all-gather steps circulate the fully reduced segments.

// BuildAllReducePlan compiles a ring AllReduce over the plane's rings,
// splitting the payload across rings.
func BuildAllReducePlan(f *simgpu.Fabric, plane core.FabricSel, bytes int64, opts core.PlanOptions) (*core.Plan, error) {
	lrs, err := logicalRings(f, plane)
	if err != nil {
		return nil, err
	}
	return buildRingAllReduce(f, lrs, bytes, opts)
}

func buildRingAllReduce(f *simgpu.Fabric, lrs []logicalRing, bytes int64, opts core.PlanOptions) (*core.Plan, error) {
	totalFloats := int(bytes / 4)
	n := len(lrs[0].verts)
	if totalFloats < n*len(lrs) {
		return nil, fmt.Errorf("ring: payload %d too small for %d segments x %d rings", bytes, n, len(lrs))
	}
	b := newBuilder(f, opts)

	share := totalFloats / len(lrs)
	off := 0
	// Pipelining: the ring algorithm runs independently per slice of about
	// ChunkBytes*N floats, so successive slices overlap across steps and
	// across the two legs of hub/switch hops (without slicing, each
	// step-synchronous segment transfer would serialize its legs).
	sliceFloats := int(b.opts.ChunkBytes/4) * n
	if sliceFloats < n {
		sliceFloats = n
	}
	for ri, lr := range lrs {
		regionN := share
		if ri == len(lrs)-1 {
			regionN = totalFloats - off
		}
		var carry []int
		for so := off; so < off+regionN; so += sliceFloats {
			sn := sliceFloats
			if rem := off + regionN - so; rem < sn {
				sn = rem
			}
			var err error
			carry, err = emitRingAllReduce(b, f, lr, ri, so, sn, totalFloats, carry)
			if err != nil {
				return nil, err
			}
		}
		off += regionN
	}
	return &core.Plan{Ops: b.ops, TotalBytes: int64(totalFloats) * 4, Fabric: f, Streams: len(b.streams)}, nil
}

// emitRingAllReduce generates the 2(N-1) steps for one ring over the float
// region [off, off+regionN). prevReduce carries the previous slice's final
// per-position reduce ops: a new slice may not reach a receiver before the
// receiver consumed the previous slice (NCCL's flow control over its
// receive buffers, kept for timing); it is nil for a ring's first slice.
// It returns this slice's final reduce ops.
func emitRingAllReduce(b *builder, f *simgpu.Fabric, lr logicalRing, ri, off, regionN, bufLen int, prevReduce []int) ([]int, error) {
	n := len(lr.verts)
	segOff := make([]int, n+1)
	for s := 0; s <= n; s++ {
		segOff[s] = off + s*regionN/n
	}
	seg := func(idx int) (int, int) { return segOff[idx], segOff[idx+1] - segOff[idx] }

	reduceDone := prevReduce // last reduce op per position, nil before any

	// Reduce-scatter: step s, position i sends segment (i-s) mod n.
	for s := 0; s < n-1; s++ {
		newReduce := make([]int, n)
		for pos := 0; pos < n; pos++ {
			segIdx := ((pos-s)%n + n) % n
			so, sn := seg(segIdx)
			src := lr.verts[pos]
			dstPos := (pos + 1) % n
			dst := lr.verts[dstPos]
			var deps []int
			if reduceDone != nil {
				// The sender's own reduce of the segment, and receive-buffer
				// availability: the destination must have consumed the
				// previous segment before a new one reaches it.
				deps = []int{reduceDone[pos], reduceDone[dstPos]}
			}
			// The send moves no data: the receiver's reduce reads the
			// sender's segment in place — its input at step 0, its
			// accumulator after it has reduced the segment itself. That is
			// sound because inputs are never written, and the only later
			// writer of the sender's accumulated segment is that segment's
			// all-gather receive, which waits, through the ring's remaining
			// reduces of the segment, for this one.
			deliver := b.addHop(ri, pos, 1, lr.hops[pos], int64(sn)*4, deps, nil,
				fmt.Sprintf("rs r%d s%d %d->%d", ri, s, src, dst))
			var rexec core.Exec
			if b.opts.DataMode {
				sent := core.BufRef{Dev: src, Tag: core.BufAcc}
				if s == 0 {
					sent.Tag = core.BufData
				}
				rexec = core.ReduceKernel([]core.BufRef{{Dev: dst, Tag: core.BufData}, sent}, so, sn, bufLen)
			}
			newReduce[dstPos] = b.add(&simgpu.Op{
				Stream:   b.stream(ri, dstPos, 0, 2),
				Link:     f.ReduceLink(dst),
				Bytes:    int64(sn) * 4,
				Overhead: f.Cfg.ReduceOverhead,
				Deps:     []int{deliver},
				Exec:     rexec,
				Label:    fmt.Sprintf("rsred r%d s%d @%d", ri, s, dst),
			})
		}
		reduceDone = newReduce
	}

	// All-gather: step s, position i sends segment (i+1-s) mod n once it
	// holds it: after its final reduce at step 0, its last receive after.
	held := reduceDone
	for s := 0; s < n-1; s++ {
		newRecv := make([]int, n)
		for pos := 0; pos < n; pos++ {
			segIdx := ((pos+1-s)%n + n) % n
			so, sn := seg(segIdx)
			src := lr.verts[pos]
			dstPos := (pos + 1) % n
			dst := lr.verts[dstPos]
			newRecv[dstPos] = b.addHop(ri, pos, 3, lr.hops[pos], int64(sn)*4, []int{held[pos]},
				copyExec(b, src, dst, core.BufAcc, so, sn, bufLen),
				fmt.Sprintf("ag r%d s%d %d->%d", ri, s, src, dst))
		}
		held = newRecv
	}
	return reduceDone, nil
}
