package core

import (
	"fmt"

	"blink/internal/graph"
	"blink/internal/simgpu"
)

// Buffer tags for the exchange collectives (AllToAll, NeighborExchange).
// Each source rank stages and delivers through its own tag so concurrent
// per-source transfers never collide in the arena. The base sits far above
// BufData and BufAcc, so the ranges are disjoint by construction.
const (
	// BufExchangeBase + src tags the receive/staging buffer for payload
	// originating at rank src — a global, server-major rank on a cluster.
	BufExchangeBase = 1 << 20
)

// ExchangeTag returns the buffer tag holding payload from rank src.
func ExchangeTag(src int) int { return BufExchangeBase + src }

// Extra phase identifiers for exchange-collective stream keys (continuing
// the phaseBroadcast/phaseReduce/phaseGather sequence in plan.go).
const (
	// phaseP2P keys SendRecv-chain and NeighborExchange streams.
	phaseP2P = 3
	// phaseExchangeBase + src keys one AllToAll source's scatter streams, so
	// the n concurrent per-source scatters contend on links, not on streams.
	phaseExchangeBase = 4
)

// ValidateChain checks a SendRecv chain over n ranks: at least two stages,
// every rank in range, no rank visited twice (which also rejects self-loop
// hops). Shared by the tree and ring schedulers.
func ValidateChain(n int, chain []int) error {
	if len(chain) < 2 {
		return fmt.Errorf("core: chain needs at least 2 ranks, got %d", len(chain))
	}
	seen := make(map[int]bool, len(chain))
	for _, r := range chain {
		if r < 0 || r >= n {
			return fmt.Errorf("core: chain rank %d out of range [0,%d)", r, n)
		}
		if seen[r] {
			return fmt.Errorf("core: chain visits rank %d twice", r)
		}
		seen[r] = true
	}
	return nil
}

// ValidateNeighbors checks a neighbor-exchange send list over n ranks: one
// row per rank, every target in range, no self-loops, no duplicate targets
// per sender, and at least one pair overall.
func ValidateNeighbors(n int, neighbors [][]int) error {
	if len(neighbors) != n {
		return fmt.Errorf("core: neighbor list has %d rows, want one per rank (%d)", len(neighbors), n)
	}
	pairs := 0
	for v, row := range neighbors {
		seen := make(map[int]bool, len(row))
		for _, u := range row {
			if u < 0 || u >= n {
				return fmt.Errorf("core: rank %d lists neighbor %d out of range [0,%d)", v, u, n)
			}
			if u == v {
				return fmt.Errorf("core: rank %d lists itself as a neighbor (self-loop)", v)
			}
			if seen[u] {
				return fmt.Errorf("core: rank %d lists neighbor %d twice", v, u)
			}
			seen[u] = true
			pairs++
		}
	}
	if pairs == 0 {
		return fmt.Errorf("core: neighbor exchange with no sends")
	}
	return nil
}

// shortestPath returns the edge IDs of a BFS-shortest route from src to dst,
// traversing relay vertices (PCIe hubs) where the plane requires it. A clean
// error is returned when dst is unreachable (disconnected pair).
func shortestPath(g *graph.Graph, src, dst int) ([]int, error) {
	if src == dst {
		return nil, fmt.Errorf("core: route from %d to itself", src)
	}
	prevEdge := make([]int, g.N)
	for i := range prevEdge {
		prevEdge[i] = -1
	}
	visited := make([]bool, g.N)
	visited[src] = true
	queue := []int{src}
	for len(queue) > 0 && !visited[dst] {
		v := queue[0]
		queue = queue[1:]
		for _, eid := range g.Out(v) {
			to := g.Edges[eid].To
			if !visited[to] {
				visited[to] = true
				prevEdge[to] = eid
				queue = append(queue, to)
			}
		}
	}
	if !visited[dst] {
		return nil, fmt.Errorf("core: no route from %d to %d", src, dst)
	}
	var path []int
	for v := dst; v != src; v = g.Edges[prevEdge[v]].From {
		path = append(path, prevEdge[v])
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, nil
}

// exchangeShardExec builds an Exec closure copying, for each destination
// rank u in dests, floats [(rankBase+u)*perVertex+off, ...+n) from srcTag on
// device src into dstTag on device dst — one AllToAll tree transfer, where
// the shard layout is global (rankBase shifts local ranks into a cluster's
// global buffer).
func (b *planBuilder) exchangeShardExec(src, dst, srcTag, dstTag int, dests []int, perVertex, off, n, bufLen int) Exec {
	if !b.opts.DataMode {
		return nil
	}
	src, dst = b.dev(src), b.dev(dst)
	ds := append([]int(nil), dests...)
	rankBase := b.rankBase
	return func(bufs *simgpu.BufferSet, w simgpu.Window) {
		sb := bufs.Buffer(src, srcTag, bufLen)
		db := bufs.Buffer(dst, dstTag, bufLen)
		for _, u := range ds {
			base := (rankBase+u)*perVertex + off
			lo, hi := w.Clip(base, base+n)
			copy(db[lo:hi], sb[lo:hi])
		}
	}
}

// BuildAllToAllPlan compiles a pairwise exchange: every rank scatters a
// distinct bytes/N shard to every other rank, each source's scatter running
// over its own packed spanning trees (packFor(root)) concurrently with all
// the others — the link contention between the n overlapping scatters is
// exactly what the packing's weights amortize. In data mode rank d receives
// rank r's shard in Buffer(d, ExchangeTag(r)) at offset d*perDest.
func BuildAllToAllPlan(f *simgpu.Fabric, packFor func(root int) (*Packing, error), bytes int64, opts PlanOptions) (*Plan, error) {
	n := ranksOf(f)
	totalFloats := int(bytes / 4)
	if totalFloats < n {
		return nil, fmt.Errorf("core: payload too small (%d bytes for %d devices)", bytes, n)
	}
	return newBuilder(f, opts).allToAll(packFor, totalFloats/n, n)
}

// allToAll is the generator shared with the cluster three-phase protocol:
// each rank's buffer covers bufRanks shards of perDest floats, and the
// fabric's ranks [0,n) occupy global ranks — buffer slots, arena devices and
// exchange tags alike — [rankBase, rankBase+n).
func (b *planBuilder) allToAll(packFor func(root int) (*Packing, error), perDest, bufRanks int) (*Plan, error) {
	n := ranksOf(b.f)
	if perDest <= 0 {
		return nil, fmt.Errorf("core: empty alltoall shard")
	}
	bufLen := bufRanks * perDest
	for r := 0; r < n; r++ {
		// Self-delivery keeps the data-mode readout uniform: every shard,
		// own included, lands under the source's exchange tag. Zero-cost
		// exec-only op, so timing is untouched.
		if b.opts.DataMode {
			g := b.rankBase + r
			b.add(&simgpu.Op{
				Stream: b.stream(phaseExchangeBase+r, 0, -3000-r, 0, 0),
				Link:   -1,
				Exec:   CopyKernel(g, g, BufData, ExchangeTag(g), g*perDest, perDest, bufLen),
				Tag:    opTag(tagA2ASelf, r, 0, 0, 0),
			})
		}
		if n == 1 {
			continue // single-rank server: nothing leaves the device
		}
		pk, err := packFor(r)
		if err != nil {
			return nil, fmt.Errorf("core: alltoall packing for root %d: %w", r, err)
		}
		if pk == nil || len(pk.Trees) == 0 {
			return nil, fmt.Errorf("core: alltoall packing for root %d is empty", r)
		}
		if pk.Root != r {
			return nil, fmt.Errorf("core: alltoall packing rooted at %d, want %d", pk.Root, r)
		}
		// Staged through the source's exchange tag and stream phase so the n
		// scatters contend on links, never on buffers or streams.
		if err := emitShardScatter(b, pk, n, perDest, bufLen, ExchangeTag(b.rankBase+r), phaseExchangeBase+r, tagA2A, r); err != nil {
			return nil, err
		}
	}
	return b.plan(int64(n) * int64(n) * int64(perDest) * 4), nil
}

// routed emits one payload's chunk-pipelined transfer along a BFS-routed
// path: chunk k crosses hop j once it has crossed hop j-1, and leaves the
// path's source once after[k] has run (after is nil when nothing gates the
// source). The source reads srcTag; every relay and the destination hold the
// payload under dstTag. Its ops are tagged kind (stream, chunk, from, to).
// It returns each chunk's delivery op.
func (b *planBuilder) routed(stream int, path []int, totalFloats, srcTag, dstTag int, after []int, kind uint8) []int {
	chunkFloats := int(b.opts.ChunkBytes / 4)
	delivered := make([]int, (totalFloats+chunkFloats-1)/chunkFloats)
	var deps []int
	for k := range delivered {
		off := k * chunkFloats
		nfl := min(chunkFloats, totalFloats-off)
		last := -1
		if after != nil {
			last = after[k]
		}
		for j, eid := range path {
			e := b.g.Edges[eid]
			deps = deps[:0]
			if last >= 0 {
				deps = append(deps, last)
			}
			tag := dstTag
			if j == 0 {
				tag = srcTag
			}
			last = b.addTransfer(b.legStreams(phaseP2P, stream, eid, j), eid, int64(nfl)*4, deps,
				b.copyExec(e.From, e.To, tag, dstTag, off, nfl, totalFloats),
				opTag(kind, stream, k, e.From, e.To))
		}
		delivered[k] = last
	}
	return delivered
}

// BuildSendRecvChainPlan compiles an ordered P2P pipeline: the payload flows
// chain[0] -> chain[1] -> ... with chunk k forwarded by stage i as soon as
// stage i-1 delivers it, each hop BFS-routed over the fabric's plane (relay
// vertices and multi-hop detours included). In data mode every chain member
// ends holding the payload in BufData.
func BuildSendRecvChainPlan(f *simgpu.Fabric, chain []int, bytes int64, opts PlanOptions) (*Plan, error) {
	n := ranksOf(f)
	if err := ValidateChain(n, chain); err != nil {
		return nil, err
	}
	totalFloats := int(bytes / 4)
	if totalFloats <= 0 {
		return nil, fmt.Errorf("core: payload too small (%d bytes)", bytes)
	}
	b := newBuilder(f, opts)
	paths := make([][]int, len(chain)-1)
	for i := 0; i+1 < len(chain); i++ {
		p, err := shortestPath(b.g, chain[i], chain[i+1])
		if err != nil {
			return nil, err
		}
		paths[i] = p
	}
	var delivered []int // chunk k's delivery op at the previous stage
	for i, path := range paths {
		delivered = b.routed(i, path, totalFloats, BufData, BufData, delivered, tagChain)
	}
	return b.plan(int64(len(paths)) * int64(totalFloats) * 4), nil
}

// BuildNeighborExchangePlan compiles a halo exchange: every rank v sends its
// full payload to each rank in neighbors[v], all pairs concurrently, each
// BFS-routed and chunk-pipelined. In data mode receiver u finds v's payload
// in Buffer(u, ExchangeTag(v)).
func BuildNeighborExchangePlan(f *simgpu.Fabric, neighbors [][]int, bytes int64, opts PlanOptions) (*Plan, error) {
	n := ranksOf(f)
	if err := ValidateNeighbors(n, neighbors); err != nil {
		return nil, err
	}
	totalFloats := int(bytes / 4)
	if totalFloats <= 0 {
		return nil, fmt.Errorf("core: payload too small (%d bytes)", bytes)
	}
	b := newBuilder(f, opts)
	pairs := 0
	for v, row := range neighbors {
		for _, u := range row {
			path, err := shortestPath(b.g, v, u)
			if err != nil {
				return nil, err
			}
			b.routed(pairs, path, totalFloats, BufData, ExchangeTag(v), nil, tagHalo)
			pairs++
		}
	}
	return b.plan(int64(pairs) * int64(totalFloats) * 4), nil
}
