package core

import (
	"fmt"

	"blink/internal/simgpu"
	"blink/internal/topology"
)

// Three-phase cross-machine collectives, §3.5 / Figure 10:
//
//	Phase 1: per-server reduction over local spanning trees. The payload is
//	         partitioned with a distinct server-local root per partition.
//	Phase 2: cross-server reduce-broadcast among the partition roots over
//	         the NIC fabric (one-hop cross-server trees).
//	Phase 3: per-server broadcast of the reduced partitions.
//
// A cluster schedule is ONE plan over one cluster-wide fabric
// (NewClusterFabric). Each server's sub-plans are generated over the
// server's own fabric, numbered from the cluster plan's next op, and appended
// with their stream and link indices shifted, as BuildHybridBroadcastPlan
// does; their Exec closures address the call's one arena by global,
// server-major rank.
//
// The phases are pipelined chunk by chunk, as the paper's are. A dependency
// across phases is decided by which float ranges overlap (span): a NIC chunk's
// up-leg waits only for the phase-1 ops that finish its floats at the
// server-local root, and a phase-3 root send only for the phase-2 exchange
// ops that deliver its floats. A NIC transfer's up-legs follow each other on
// their own stream, so a lone transfer keeps the sender's up-link and the
// receiver's down-link busy at once. In data mode the exchange ops carry the
// cross-server data movement the NIC transfers stand for, one chunk's floats
// each. One marked zero-resource op per phase boundary waits for every op
// emitted so far; nothing waits for it, so it only reports when the phases
// ended.

// PackFn supplies the spanning-tree packing for a (server, root) pair.
// The collective layer passes Engine.Packing so the per-server TreeGen work
// is cached and shared with single-machine dispatches; standalone callers
// pass a GenerateTrees wrapper.
type PackFn func(server, root int) (*Packing, error)

// NewClusterFabric builds the one fabric a cluster's three-phase plans run
// over: the servers' link tables (fabrics[s] is server s's intra-machine
// fabric) concatenated server-major, with the links of the NIC fabric — one
// vertex per server plus the switch relay, as built by topology.NewCluster —
// last. Graph, config and EdgeLinks are the NIC fabric's own, so EdgeLinks
// counts from the first NIC link, not from the head of the table.
func NewClusterFabric(c *topology.Cluster, fabrics []*simgpu.Fabric, cfg simgpu.Config) *simgpu.Fabric {
	wide := simgpu.NewFabric(c.Servers[0], c.Net, cfg)
	var links []simgpu.Link
	for _, f := range fabrics {
		links = append(links, f.Links...)
	}
	wide.Links = append(links, wide.Links...)
	return wide
}

// clusterGen is the opening the three builders share: the checked cluster
// geometry — where each server's ranks, relay vertices and links sit in the
// cluster-wide numbering — and the one plan under construction.
type clusterGen struct {
	c       *topology.Cluster
	fabrics []*simgpu.Fabric
	opts    PlanOptions
	// rankBase[s] is the global rank of server s's local rank 0 and
	// relayBase[s] shifts its relay vertices past every rank (see
	// planBuilder); linkBase[s] is where server s's links start in the
	// cluster-wide table, linkBase[len(servers)] where the NIC links do.
	// nicUp[s] and nicDown[s] are server s's NIC links into and out of the
	// datacenter switch, in the cluster-wide table.
	rankBase, relayBase, linkBase, nicUp, nicDown []int
	total                                         int
	plan                                          *Plan
	// tails holds the last op of every stream appended so far: a stream runs
	// in order, so the latest of them to finish is the latest op to.
	tails []int
}

func newClusterGen(c *topology.Cluster, fabrics []*simgpu.Fabric, wide *simgpu.Fabric, bytes int64, opts PlanOptions) (*clusterGen, error) {
	n := len(c.Servers)
	if n < 2 {
		return nil, fmt.Errorf("core: need >= 2 servers")
	}
	if len(fabrics) != n {
		return nil, fmt.Errorf("core: %d fabrics for %d servers", len(fabrics), n)
	}
	opts.setDefaults()
	g := &clusterGen{c: c, fabrics: fabrics, opts: opts, total: c.TotalGPUs(),
		nicUp: make([]int, n), nicDown: make([]int, n), plan: &Plan{Fabric: wide, TotalBytes: bytes / 4 * 4}}
	rank, relay, link := 0, g.total, 0
	for si, s := range c.Servers {
		if s.NumGPUs < 1 {
			return nil, fmt.Errorf("core: empty server in cluster")
		}
		g.rankBase = append(g.rankBase, rank)
		g.relayBase = append(g.relayBase, relay-s.NumGPUs)
		g.linkBase = append(g.linkBase, link)
		rank += s.NumGPUs
		relay += fabrics[si].Graph.N - s.NumGPUs
		link += len(fabrics[si].Links)
	}
	g.linkBase = append(g.linkBase, link)
	if wide.Graph != c.Net || link+len(c.Net.Edges)+c.Net.N != len(wide.Links) || len(c.Net.Edges) != 2*n {
		return nil, fmt.Errorf("core: cluster fabric was not built over these servers (NewClusterFabric)")
	}
	for _, e := range c.Net.Edges {
		if l := wide.EdgeLinks(e.ID)[0]; e.To == n {
			g.nicUp[e.From] = l
		} else {
			g.nicDown[e.To] = l
		}
	}
	return g, nil
}

// builder opens a CodeGen builder over server si's fabric whose Exec
// closures address the arena by global rank and whose ops are numbered from
// the cluster plan's next one.
func (g *clusterGen) builder(si int, opts PlanOptions) *planBuilder {
	b := newBuilder(g.fabrics[si], opts)
	b.rankBase, b.relayBase, b.opBase = g.rankBase[si], g.relayBase[si], len(g.plan.Ops)
	return b
}

// trees opens server si's tree generator over pk for floats [off, off+n).
func (g *clusterGen) trees(si int, pk *Packing, off, n int, acc bool) (*treeGen, error) {
	po := g.opts
	po.OffsetFloats, po.BroadcastAcc = off, acc
	return payloadGen(g.builder(si, po), pk, pk.Root, int64(n)*4)
}

// add appends a sub-plan whose ops were numbered from the cluster plan's next
// one (builder). It was generated over server si's fabric (si ==
// len(servers): over the NIC fabric), so its streams and links are numbered
// from zero and are shifted here.
func (g *clusterGen) add(si int, p *Plan) {
	tails := make([]int, p.Streams)
	for i, op := range p.Ops {
		tails[op.Stream] = len(g.plan.Ops) + i
		op.Stream += g.plan.Streams
		if op.Link >= 0 {
			op.Link += g.linkBase[si]
		}
	}
	g.tails = append(g.tails, tails...)
	g.plan.Ops = append(g.plan.Ops, p.Ops...)
	g.plan.Streams += p.Streams
}

// mark appends a marked zero-resource op that finishes when every op
// appended so far has: the end of the phase just emitted and of those before
// it. Nothing waits for it.
func (g *clusterGen) mark(phase int) {
	g.plan.Ops = append(g.plan.Ops, &simgpu.Op{Stream: g.plan.Streams, Link: -1, Deps: append([]int(nil), g.tails...), Mark: true, Tag: opTag(tagPhase, phase, 0, 0, 0)})
	g.plan.Streams++
}

// span is floats [off, off+n) of the payload and the ops whose completion
// finishes them.
type span struct {
	off, n int
	ops    []int
}

// after returns the ops of every span that overlaps floats [off, off+n).
func after(spans []span, off, n int) []int {
	var deps []int
	for _, s := range spans {
		if s.off < off+n && off < s.off+s.n {
			deps = append(deps, s.ops...)
		}
	}
	return deps
}

// eachChunk calls f with every (tree, chunk) of t and the chunk's floats.
func (t *treeGen) eachChunk(f func(ti, k, off, n int)) {
	for ti, r := range t.regions {
		for k := 0; k < r.chunks; k++ {
			off, n := r.chunkSpan(k, t.chunkBytes)
			f(ti, k, off, n)
		}
	}
}

// broadcastAfter emits t's broadcast with each root send waiting for the
// spans that overlap its floats.
func (t *treeGen) broadcastAfter(spans []span) {
	deps := make([][][]int, len(t.regions))
	t.eachChunk(func(ti, _, off, n int) { deps[ti] = append(deps[ti], after(spans, off, n)) })
	t.emitBroadcast(deps)
}

// partitionPayload splits totalFloats into one contiguous partition per
// local root; the last partition absorbs the remainder so the partitions
// exactly cover the payload (data mode depends on full coverage).
func partitionPayload(totalFloats, parts int) (offs, ns []int) {
	share := totalFloats / parts
	offs, ns = make([]int, parts), make([]int, parts)
	for p := range offs {
		offs[p], ns[p] = p*share, share
	}
	ns[parts-1] = totalFloats - offs[parts-1]
	return offs, ns
}

// trivialPacking returns an empty packing for a single-GPU server: there is
// nothing to reduce or broadcast locally, but the server still participates
// in the NIC exchange.
func trivialPacking(root int) *Packing { return &Packing{Root: root} }

// BuildThreePhaseAllReduce compiles Blink's three-phase AllReduce of
// `bytes` over a cluster into one plan over wide, the cluster-wide fabric
// NewClusterFabric built from fabrics (fabrics[s] is server s's
// intra-machine fabric). packFor supplies per-server packings. The plan's
// Partitions is the partition count: one per GPU of the smallest server.
func BuildThreePhaseAllReduce(c *topology.Cluster, fabrics []*simgpu.Fabric, wide *simgpu.Fabric, packFor PackFn, bytes int64, opts PlanOptions) (*Plan, error) {
	g, err := newClusterGen(c, fabrics, wide, bytes, opts)
	if err != nil {
		return nil, err
	}
	// One partition per GPU of the smallest server: every server can then
	// host a distinct local root per partition.
	parts := c.Servers[0].NumGPUs
	for _, s := range c.Servers {
		parts = min(parts, s.NumGPUs)
	}
	totalFloats := int(bytes / 4)
	if totalFloats < parts {
		return nil, fmt.Errorf("core: payload %d too small for %d partitions", bytes, parts)
	}
	offs, ns := partitionPayload(totalFloats, parts)
	roots := make([][]int, parts) // roots[p][s]: partition p's local root on server s
	for p := range roots {
		roots[p] = make([]int, len(c.Servers))
		for si, s := range c.Servers {
			roots[p][si] = p % s.NumGPUs
		}
	}
	packs, err := g.resolvePackings(packFor, roots)
	if err != nil {
		return nil, err
	}

	// Phase 1: every server reduces every partition to its local root, all
	// of them concurrently. ready[s] records which ops finish which floats at
	// server s's roots.
	ready := make([][]span, len(c.Servers))
	for si := range c.Servers {
		for p := 0; p < parts; p++ {
			t, err := g.trees(si, packs[si][p], offs[p], ns[p], false)
			var rootOps [][][]int
			if err == nil {
				rootOps, err = t.emitReduce()
			}
			if err != nil {
				return nil, fmt.Errorf("core: server %d partition %d reduce: %w", si, p, err)
			}
			t.eachChunk(func(ti, k, off, n int) { ready[si] = append(ready[si], span{off, n, rootOps[ti][k]}) })
			g.add(si, t.plan(int64(ns[p])*4))
		}
	}
	g.mark(1)

	// Phase 2: each partition's n server-local roots exchange partials over
	// the NIC fabric (every root sends to the n-1 others through the
	// datacenter switch) and reduce what they receive. What the transfers
	// stand for in data mode: each chunk's server-local partials are summed
	// across servers, in server order, into the first server's root and
	// copied from there to every other root, so phase 3 broadcasts the same
	// global result everywhere. Phase 1 left a partial in each local root's
	// accumulator, except on a one-GPU server, which reduced nothing: its
	// partial is its input.
	n := len(c.Servers)
	var xfers []nicTransfer
	srcs := make([][]BufRef, parts)
	for p := range srcs {
		for si, s := range c.Servers {
			srcs[p] = append(srcs[p], BufRef{g.rankBase[si] + roots[p][si], BufAcc})
			if s.NumGPUs == 1 {
				srcs[p][si].Tag = BufData
			}
			for di := 1; di < n; di++ {
				xfers = append(xfers, nicTransfer{src: si, dst: (si + di) % n, bytes: int64(ns[p]) * 4, group: p, off: offs[p], after: ready[si]})
			}
		}
	}
	delivered := g.nicExchange(xfers, parts, func(p, off, m int) Exec {
		kernels := []Exec{ReduceKernel(srcs[p], off, m, offs[p]+ns[p])}
		for _, dst := range srcs[p][1:] {
			kernels = append(kernels, CopyKernel(srcs[p][0].Dev, dst.Dev, BufAcc, BufAcc, off, m, offs[p]+ns[p]))
		}
		return inOrder(kernels)
	})
	g.mark(2)

	// Phase 3: the mirror broadcasts. They move the accumulator (the reduced
	// value phase 2 left at the local root), not the original input.
	for si := range c.Servers {
		for p := 0; p < parts; p++ {
			t, err := g.trees(si, packs[si][p], offs[p], ns[p], true)
			if err != nil {
				return nil, fmt.Errorf("core: server %d partition %d broadcast: %w", si, p, err)
			}
			t.broadcastAfter(delivered[p])
			g.add(si, t.plan(int64(ns[p])*4))
		}
	}
	g.plan.Partitions = parts
	return g.plan, nil
}

// BuildThreePhaseBroadcast compiles the multi-server broadcast from global
// rank root: the root's server pushes the payload over the NIC fabric to
// every other server's local root (phase 2), then each server broadcasts
// locally over its packed trees (phase 3), the root's own at once. There is
// no reduce phase.
func BuildThreePhaseBroadcast(c *topology.Cluster, fabrics []*simgpu.Fabric, wide *simgpu.Fabric, packFor PackFn, root int, bytes int64, opts PlanOptions) (*Plan, error) {
	g, err := newClusterGen(c, fabrics, wide, bytes, opts)
	if err != nil {
		return nil, err
	}
	if root < 0 || root >= g.total {
		return nil, fmt.Errorf("core: root %d out of range [0,%d)", root, g.total)
	}
	totalFloats := int(bytes / 4)
	if totalFloats < 1 {
		return nil, fmt.Errorf("core: payload too small (%d bytes)", bytes)
	}
	// Every server broadcasts from its local rank 0, the root's from the root.
	rootServer := 0
	roots := [][]int{make([]int, len(c.Servers))}
	for si, base := range g.rankBase {
		if root >= base {
			rootServer = si
		}
	}
	roots[0][rootServer] = root - g.rankBase[rootServer]
	packs, err := g.resolvePackings(packFor, roots)
	if err != nil {
		return nil, err
	}
	g.mark(1)

	// The transfers read the root's input, so they wait for nothing; in data
	// mode they deliver it to every other server's local root.
	var xfers []nicTransfer
	for dst := range c.Servers {
		if dst != rootServer {
			xfers = append(xfers, nicTransfer{src: rootServer, dst: dst, bytes: bytes, group: dst})
		}
	}
	delivered := g.nicExchange(xfers, len(c.Servers), func(dst, off, m int) Exec {
		return CopyKernel(root, g.rankBase[dst], BufData, BufData, off, m, totalFloats)
	})
	g.mark(2)

	for si := range c.Servers {
		t, err := g.trees(si, packs[si][0], 0, totalFloats, false)
		if err != nil {
			return nil, fmt.Errorf("core: server %d broadcast: %w", si, err)
		}
		t.broadcastAfter(delivered[si])
		g.add(si, t.plan(bytes))
	}
	g.plan.Partitions = 1
	return g.plan, nil
}

// BuildThreePhaseAllToAll compiles the cluster AllToAll. Every global rank
// owns one shard per global rank inside a totalRanks-shard buffer. Phase 1
// is each server's local AllToAll over that global buffer (destinations
// restricted to the server's own rank range); phase 2 ships each ordered
// server pair's shard block through the datacenter switch. There is no
// phase 3: remote shards land directly under the source's exchange tag at
// the receivers, exactly where local ones do.
func BuildThreePhaseAllToAll(c *topology.Cluster, fabrics []*simgpu.Fabric, wide *simgpu.Fabric, packFor PackFn, bytes int64, opts PlanOptions) (*Plan, error) {
	g, err := newClusterGen(c, fabrics, wide, bytes, opts)
	if err != nil {
		return nil, err
	}
	totalFloats := int(bytes / 4)
	if totalFloats < g.total {
		return nil, fmt.Errorf("core: payload %d too small for %d ranks", bytes, g.total)
	}
	shard := totalFloats / g.total
	for si := range c.Servers {
		si := si
		p1, err := g.builder(si, g.opts).allToAll(func(r int) (*Packing, error) { return packFor(si, r) }, shard, g.total)
		if err != nil {
			return nil, fmt.Errorf("core: server %d local alltoall: %w", si, err)
		}
		g.add(si, p1)
	}
	g.mark(1)

	// Phase 2: one transfer per ordered server pair carrying every shard
	// headed from si's ranks to sj's ranks. The transfers read inputs, so they
	// wait for nothing from phase 1. In data mode a transfer's last chunk
	// copies its shards straight from the senders' inputs into the receivers'
	// buffers under the sender's exchange tag (same-server shards were
	// delivered there by phase 1).
	var xfers []nicTransfer
	for si, s := range c.Servers {
		for sj, d := range c.Servers {
			if si != sj {
				xfers = append(xfers, nicTransfer{src: si, dst: sj, bytes: int64(s.NumGPUs) * int64(d.NumGPUs) * int64(shard) * 4, group: len(xfers)})
			}
		}
	}
	g.nicExchange(xfers, len(xfers), func(i, off, m int) Exec {
		x := xfers[i]
		if int64(off+m)*4 < x.bytes {
			return nil
		}
		var kernels []Exec
		for src := g.rankBase[x.src]; src < g.rankBase[x.src]+c.Servers[x.src].NumGPUs; src++ {
			for dst := g.rankBase[x.dst]; dst < g.rankBase[x.dst]+c.Servers[x.dst].NumGPUs; dst++ {
				kernels = append(kernels, CopyKernel(src, dst, BufData, ExchangeTag(src), dst*shard, shard, g.total*shard))
			}
		}
		return inOrder(kernels)
	})
	g.mark(2)
	g.plan.Partitions = g.total
	return g.plan, nil
}

// resolvePackings collects the packings of roots[p][s], partition p's local
// root on server s, substituting the trivial packing for single-GPU servers.
func (g *clusterGen) resolvePackings(packFor PackFn, roots [][]int) ([][]*Packing, error) {
	packs := make([][]*Packing, len(g.c.Servers))
	type task struct{ si, p int }
	var tasks []task
	for si, s := range g.c.Servers {
		packs[si] = make([]*Packing, len(roots))
		for p := range roots {
			if s.NumGPUs == 1 {
				packs[si][p] = trivialPacking(roots[p][si])
				continue
			}
			tasks = append(tasks, task{si, p})
		}
	}
	// Per-(server, partition) packings are independent — each server has its
	// own graph and packFor implementations cache per root — so fan them
	// across the worker pool. Results land at fixed indices, so the merge
	// (and everything compiled from it) is deterministic regardless of
	// worker count.
	err := ParallelMap(len(tasks), 0, func(i int) error {
		t := tasks[i]
		root := roots[t.p][t.si]
		pk, err := packFor(t.si, root)
		if err != nil {
			return fmt.Errorf("core: server %d root %d: %w", t.si, root, err)
		}
		packs[t.si][t.p] = pk
		return nil
	})
	if err != nil {
		return nil, err
	}
	return packs, nil
}

// nicTransfer is one cross-server payload movement in phase 2.
type nicTransfer struct {
	src, dst int
	bytes    int64
	group    int    // the exchange ops its chunks join (nicExchange)
	off      int    // the float its first byte stands for
	after    []span // what its chunks wait for at the source
}

// nicExchange emits phase 2: each transfer's chunks go up the source's NIC
// link and down the destination's through the datacenter switch. Chunk k's
// up-leg waits for the spans of x.after that overlap its floats (from
// x.off + k·chunk on), and the up-legs follow each other on their own stream,
// so a lone transfer keeps both legs busy; chunk k's down-leg waits for its
// up-leg. Chunk k of every transfer of a group is then joined by one
// zero-resource exchange op, which in data mode runs exec(group, off, n) — the
// data movement the chunk's legs stand for. It returns every group's
// exchange ops with their floats.
func (g *clusterGen) nicExchange(xfers []nicTransfer, groups int, exec func(group, off, n int) Exec) [][]span {
	plan, base := &Plan{Streams: groups}, len(g.plan.Ops)
	legs := make([][]span, groups) // legs[group][k]: chunk k's floats and down-legs
	for _, x := range xfers {
		up, down := plan.Streams, plan.Streams+1
		plan.Streams += 2
		for k, done := 0, int64(0); done < x.bytes; k++ {
			sz := min(g.opts.ChunkBytes, x.bytes-done)
			off, tag := x.off+int(done/4), opTag(tagNet, x.group, x.src, x.dst, k)
			done += sz
			upTag, downTag := tag, tag
			upTag.Leg, downTag.Leg = 1, 2
			plan.Ops = append(plan.Ops, // the up-leg is op base+len(plan.Ops), its down-leg the next
				&simgpu.Op{Stream: up, Link: g.nicUp[x.src], Bytes: sz, Overhead: g.plan.Fabric.Cfg.OpOverhead, Deps: after(x.after, off, int(sz/4)), Tag: upTag},
				&simgpu.Op{Stream: down, Link: g.nicDown[x.dst], Bytes: sz, Deps: []int{base + len(plan.Ops)}, Tag: downTag})
			if k == len(legs[x.group]) {
				legs[x.group] = append(legs[x.group], span{off: off, n: int(sz / 4)})
			}
			legs[x.group][k].ops = append(legs[x.group][k].ops, base+len(plan.Ops)-1)
		}
	}
	delivered := make([][]span, groups)
	for grp, chunks := range legs {
		for k, c := range chunks {
			op := &simgpu.Op{Stream: grp, Link: -1, Deps: c.ops, Tag: opTag(tagNetExchange, grp, k, 0, 0)}
			if g.opts.DataMode {
				op.Exec = exec(grp, c.off, c.n)
			}
			delivered[grp] = append(delivered[grp], span{c.off, c.n, []int{base + len(plan.Ops)}})
			plan.Ops = append(plan.Ops, op)
		}
	}
	g.add(len(g.c.Servers), plan)
	return delivered
}

// inOrder is the Exec running kernels one after another.
func inOrder(kernels []Exec) Exec {
	return func(bufs *simgpu.BufferSet, w simgpu.Window) {
		for _, k := range kernels {
			k(bufs, w)
		}
	}
}
