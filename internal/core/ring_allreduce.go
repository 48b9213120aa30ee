package core

import "blink/internal/simgpu"

// Ring AllReduce (reduce-scatter followed by all-gather), the
// bandwidth-optimal algorithm NCCL runs on large payloads: with N ranks the
// payload splits into N segments; during N-1 reduce-scatter steps each rank
// forwards a segment to its successor which accumulates it, then N-1
// all-gather steps circulate the fully reduced segments.

// BuildRingAllReducePlan compiles a ring AllReduce over the plane's rings,
// splitting the payload across rings.
func BuildRingAllReducePlan(f *simgpu.Fabric, plane FabricSel, bytes int64, opts PlanOptions) (*Plan, error) {
	lrs, err := logicalRings(f, plane)
	if err != nil {
		return nil, err
	}
	return buildRingAllReduce(f, lrs, bytes, opts)
}

func buildRingAllReduce(f *simgpu.Fabric, lrs []logicalRing, bytes int64, opts PlanOptions) (*Plan, error) {
	totalFloats := int(bytes / 4)
	n := len(lrs[0].verts)
	// A payload short of a float per segment of every ring runs on fewer
	// rings, down to one whose segments may be empty.
	lrs = lrs[:max(1, min(len(lrs), totalFloats/n))]
	b := newBuilder(f, opts)

	share := totalFloats / len(lrs)
	off := 0
	// Pipelining: the ring algorithm runs independently per slice of about
	// ChunkBytes*N floats, so successive slices overlap across steps and
	// across the two legs of hub/switch hops (without slicing, each
	// step-synchronous segment transfer would serialize its legs).
	sliceFloats := max(int(b.opts.ChunkBytes/4)*n, n)
	for ri, lr := range lrs {
		regionN := share
		if ri == len(lrs)-1 {
			regionN = totalFloats - off
		}
		var carry []int
		for so := off; so < off+regionN; so += sliceFloats {
			sn := min(sliceFloats, off+regionN-so)
			carry = b.emitRingAllReduce(lr, ri, so, sn, totalFloats, carry)
		}
		off += regionN
	}
	return b.plan(int64(totalFloats) * 4), nil
}

// emitRingAllReduce generates the 2(N-1) steps for one ring over the float
// region [off, off+regionN). prevReduce carries the previous slice's final
// per-position reduce ops: a new slice may not reach a receiver before the
// receiver consumed the previous slice (NCCL's flow control over its
// receive buffers, kept for timing); it is nil for a ring's first slice.
// It returns this slice's final reduce ops.
func (b *planBuilder) emitRingAllReduce(lr logicalRing, ri, off, regionN, bufLen int, prevReduce []int) []int {
	n := len(lr.verts)
	segOff := make([]int, n+1)
	for s := 0; s <= n; s++ {
		segOff[s] = off + s*regionN/n
	}
	seg := func(idx int) (int, int) { return segOff[idx], segOff[idx+1] - segOff[idx] }

	reduceDone := prevReduce // last reduce op per position, nil before any
	var deps []int

	// Reduce-scatter: step s, position i sends segment (i-s) mod n.
	for s := 0; s < n-1; s++ {
		newReduce := make([]int, n)
		for pos := 0; pos < n; pos++ {
			segIdx := ((pos-s)%n + n) % n
			so, sn := seg(segIdx)
			src := lr.verts[pos]
			dstPos := (pos + 1) % n
			dst := lr.verts[dstPos]
			deps = deps[:0]
			if reduceDone != nil {
				// The sender's own reduce of the segment, and receive-buffer
				// availability: the destination must have consumed the
				// previous segment before a new one reaches it.
				deps = append(deps, reduceDone[pos], reduceDone[dstPos])
			}
			// The send moves no data: the receiver's reduce reads the
			// sender's segment in place — its input at step 0, its
			// accumulator after it has reduced the segment itself. That is
			// sound because inputs are never written, and the only later
			// writer of the sender's accumulated segment is that segment's
			// all-gather receive, which waits, through the ring's remaining
			// reduces of the segment, for this one.
			deliver := b.addHop(ri, pos, 1, lr.hops[pos], int64(sn)*4, deps, nil,
				opTag(tagRS, ri, s, src, dst))
			var rexec Exec
			if b.opts.DataMode {
				sent := BufRef{Dev: src, Tag: BufAcc}
				if s == 0 {
					sent.Tag = BufData
				}
				rexec = ReduceKernel([]BufRef{{Dev: dst, Tag: BufData}, sent}, so, sn, bufLen)
			}
			newReduce[dstPos] = b.add(&simgpu.Op{
				Stream:   b.streamFor([5]int{ri, dstPos, 0, 2}),
				Link:     b.f.ReduceLink(dst),
				Bytes:    int64(sn) * 4,
				Overhead: b.f.Cfg.ReduceOverhead,
				Exec:     rexec,
				Tag:      opTag(tagRSRed, ri, s, dst, 0),
			}, deliver)
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
				b.copyExec(src, dst, BufAcc, BufAcc, so, sn, bufLen),
				opTag(tagAG, ri, s, src, dst))
		}
		held = newRecv
	}
	return reduceDone
}
