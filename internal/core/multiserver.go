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
// server's own fabric and appended with their op, stream and link indices
// shifted, as MergePlans and BuildHybridBroadcastPlan do, and their Exec
// closures address the call's one arena by global, server-major rank. The
// phases are joined by one zero-resource op per boundary. It waits for the
// phase before it through that phase's sinks — the ops that end a stream and
// that nothing waits for — and holds back the phase after it through that
// phase's sources, the ops that head a stream and wait for nothing: stream
// FIFO and the phase's own dependencies order every other op behind those,
// and so few edges are what keeps a warm replay at fewer allocations than
// the separate simulations it replaces. The joins are marked, so one run
// reports the makespan and when each phase ended. In data mode the join that
// closes phase 2 carries the cross-server data movement the NIC transfers
// stand for.
//
// The phases therefore still execute back to back (the paper pipelines chunks
// across them, but with commodity NICs phase 2 dominates end-to-end time,
// which is the behaviour Figures 22a/22b probe): pipelining is a change to
// which ops the phase-2 and phase-3 sources wait for.

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
	rankBase, relayBase, linkBase []int
	total                         int
	plan                          *Plan
	// gate is the join the phase being emitted waits for (-1 in the first
	// phase); sinks collects that phase's ops the join closing it waits for.
	gate  int
	sinks []int
}

func newClusterGen(c *topology.Cluster, fabrics []*simgpu.Fabric, wide *simgpu.Fabric, bytes int64, opts PlanOptions) (*clusterGen, error) {
	if len(c.Servers) < 2 {
		return nil, fmt.Errorf("core: need >= 2 servers")
	}
	if len(fabrics) != len(c.Servers) {
		return nil, fmt.Errorf("core: %d fabrics for %d servers", len(fabrics), len(c.Servers))
	}
	opts.setDefaults()
	g := &clusterGen{c: c, fabrics: fabrics, opts: opts, total: c.TotalGPUs(), gate: -1,
		plan: &Plan{Fabric: wide, TotalBytes: bytes / 4 * 4}}
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
	if wide.Graph != c.Net || link+len(c.Net.Edges)+c.Net.N != len(wide.Links) {
		return nil, fmt.Errorf("core: cluster fabric was not built over these servers (NewClusterFabric)")
	}
	return g, nil
}

// builder opens a CodeGen builder over server si's fabric whose Exec
// closures address the arena by global rank.
func (g *clusterGen) builder(si int, opts PlanOptions) *planBuilder {
	b := newBuilder(g.fabrics[si], opts)
	b.rankBase, b.relayBase = g.rankBase[si], g.relayBase[si]
	return b
}

// add appends a sub-plan to the phase being emitted. The sub-plan was
// generated over server si's fabric (si == len(servers): over the NIC
// fabric), so its ops, streams and links are numbered from zero. Its sources
// wait for the gate; its sinks are left for the next join. An op finishes no
// earlier than what it waits for or follows on its stream, so the last sink
// to finish is the last op to.
func (g *clusterGen) add(si int, p *Plan) {
	base := len(g.plan.Ops)
	last := make([]int, p.Streams)
	for s := range last {
		last[s] = -1
	}
	waited := make([]bool, len(p.Ops))
	for i, op := range p.Ops {
		deps := make([]int, 0, len(op.Deps)+1)
		for _, d := range op.Deps {
			deps = append(deps, base+d)
			waited[d] = true
		}
		if last[op.Stream] < 0 && len(deps) == 0 && g.gate >= 0 {
			deps = append(deps, g.gate)
		}
		last[op.Stream] = i
		op.Deps = deps
		op.Stream += g.plan.Streams
		if op.Link >= 0 {
			op.Link += g.linkBase[si]
		}
	}
	for _, i := range last {
		if !waited[i] {
			g.sinks = append(g.sinks, base+i)
		}
	}
	g.plan.Ops = append(g.plan.Ops, p.Ops...)
	g.plan.Streams += p.Streams
}

// join closes the phase being emitted with a marked zero-resource op that
// finishes when the phase's last op does, and opens the next phase behind
// it. exec, when set, runs once the closed phase has.
func (g *clusterGen) join(label string, exec Exec) {
	g.gate = len(g.plan.Ops)
	g.plan.Ops = append(g.plan.Ops, &simgpu.Op{Stream: g.plan.Streams, Link: -1, Deps: g.sinks, Exec: exec, Mark: true, Label: label})
	g.plan.Streams++
	g.sinks = nil
}

// partitionPayload splits totalFloats into one contiguous partition per
// local root; the last partition absorbs the remainder so the partitions
// exactly cover the payload (data mode depends on full coverage).
func partitionPayload(totalFloats, parts int) (offs, ns []int) {
	share := totalFloats / parts
	offs = make([]int, parts)
	ns = make([]int, parts)
	off := 0
	for p := 0; p < parts; p++ {
		n := share
		if p == parts-1 {
			n = totalFloats - off
		}
		offs[p], ns[p] = off, n
		off += n
	}
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
	// of them concurrently.
	for si := range c.Servers {
		for p := 0; p < parts; p++ {
			po := g.opts
			po.OffsetFloats = offs[p]
			rp, _, err := g.builder(si, po).reduce(packs[si][p], int64(ns[p])*4)
			if err != nil {
				return nil, fmt.Errorf("core: server %d partition %d reduce: %w", si, p, err)
			}
			g.add(si, rp)
		}
	}
	g.join("phase 1 done", nil)

	// Phase 2: each partition's n server-local roots exchange partials over
	// the NIC fabric (every root sends to the n-1 others through the
	// datacenter switch) and reduce what they receive.
	n := len(c.Servers)
	var xfers []nicTransfer
	for p := 0; p < parts; p++ {
		for src := 0; src < n; src++ {
			for di := 1; di < n; di++ {
				xfers = append(xfers, nicTransfer{src: src, dst: (src + di) % n, bytes: int64(ns[p]) * 4, group: p})
			}
		}
	}
	if err := g.nicExchange(xfers); err != nil {
		return nil, err
	}
	// What the transfers stand for in data mode: each partition's
	// server-local partials are summed across servers, in server order, into
	// the first server's root and copied from there to every other root, so
	// phase 3 broadcasts the same global result everywhere. Phase 1 left a
	// partial in each local root's accumulator, except on a one-GPU server,
	// which reduced nothing: its partial is its input.
	var exchange Exec
	if g.opts.DataMode {
		var kernels []Exec
		for p := range roots {
			srcs := make([]BufRef, n)
			for si, s := range c.Servers {
				srcs[si] = BufRef{g.rankBase[si] + roots[p][si], BufAcc}
				if s.NumGPUs == 1 {
					srcs[si].Tag = BufData
				}
			}
			end := offs[p] + ns[p]
			kernels = append(kernels, ReduceKernel(srcs, offs[p], ns[p], end))
			for _, dst := range srcs[1:] {
				kernels = append(kernels, CopyKernel(srcs[0].Dev, dst.Dev, BufAcc, BufAcc, offs[p], ns[p], end))
			}
		}
		exchange = func(bufs *simgpu.BufferSet, w simgpu.Window) {
			for _, k := range kernels {
				k(bufs, w)
			}
		}
	}
	g.join("phase 2 done", exchange)

	// Phase 3: the mirror broadcasts. They move the accumulator (the reduced
	// value phase 2 left at the local root), not the original input.
	for si := range c.Servers {
		for p := 0; p < parts; p++ {
			po := g.opts
			po.OffsetFloats, po.BroadcastAcc = offs[p], true
			bp, err := g.builder(si, po).broadcast(packs[si][p], int64(ns[p])*4)
			if err != nil {
				return nil, fmt.Errorf("core: server %d partition %d broadcast: %w", si, p, err)
			}
			g.add(si, bp)
		}
	}
	g.plan.Partitions = parts
	return g.plan, nil
}

// BuildThreePhaseBroadcast compiles the multi-server broadcast from global
// rank root: the root's server pushes the payload over the NIC fabric to
// every other server's local root (phase 2), then each server broadcasts
// locally over its packed trees (phase 3). There is no reduce phase.
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
	g.join("phase 1 done", nil)

	var xfers []nicTransfer
	for dst := range c.Servers {
		if dst != rootServer {
			xfers = append(xfers, nicTransfer{src: rootServer, dst: dst, bytes: bytes})
		}
	}
	if err := g.nicExchange(xfers); err != nil {
		return nil, err
	}
	// In data mode the transfers deliver the root's payload to every other
	// server's local root.
	var exchange Exec
	if g.opts.DataMode {
		rankBase := g.rankBase
		exchange = func(bufs *simgpu.BufferSet, w simgpu.Window) {
			lo, hi := w.Clip(0, totalFloats)
			src := bufs.Buffer(root, BufData, totalFloats)[lo:hi]
			for si, base := range rankBase {
				if si != rootServer {
					copy(bufs.Buffer(base, BufData, totalFloats)[lo:hi], src)
				}
			}
		}
	}
	g.join("phase 2 done", exchange)

	for si := range c.Servers {
		bp, err := g.builder(si, g.opts).broadcast(packs[si][0], bytes)
		if err != nil {
			return nil, fmt.Errorf("core: server %d broadcast: %w", si, err)
		}
		g.add(si, bp)
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
	g.join("phase 1 done", nil)

	// Phase 2: one transfer per ordered server pair carrying every shard
	// headed from si's ranks to sj's ranks.
	var xfers []nicTransfer
	serverOf := make([]int, 0, g.total)
	for si, s := range c.Servers {
		for l := 0; l < s.NumGPUs; l++ {
			serverOf = append(serverOf, si)
		}
		for sj, d := range c.Servers {
			if si != sj {
				xfers = append(xfers, nicTransfer{src: si, dst: sj, bytes: int64(s.NumGPUs) * int64(d.NumGPUs) * int64(shard) * 4, group: si})
			}
		}
	}
	if err := g.nicExchange(xfers); err != nil {
		return nil, err
	}
	// In data mode every shard headed off-server is copied straight from the
	// sender's input into the receiver's buffer under the sender's exchange
	// tag (same-server shards were delivered there by phase 1).
	var exchange Exec
	if g.opts.DataMode {
		bufLen := g.total * shard
		exchange = func(bufs *simgpu.BufferSet, w simgpu.Window) {
			for src, si := range serverOf {
				in := bufs.Buffer(src, BufData, bufLen)
				for dst, sj := range serverOf {
					if si != sj {
						lo, hi := w.Clip(dst*shard, (dst+1)*shard)
						copy(bufs.Buffer(dst, ExchangeTag(src), bufLen)[lo:hi], in[lo:hi])
					}
				}
			}
		}
	}
	g.join("phase 2 done", exchange)
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
	group    int // stream-separation tag (partition index)
}

// nicExchange emits phase 2: the chunked up-link/down-link op chains for a
// set of cross-server transfers through the datacenter switch. Each
// transfer pipelines its chunks: chunk k's down-leg depends on its up-leg,
// and chunk k+1's up-leg on chunk k's down-leg (store-and-forward at the
// switch with bounded buffering).
func (g *clusterGen) nicExchange(xfers []nicTransfer) error {
	n := len(g.c.Servers)
	netFab := g.plan.Fabric
	upE := make([]int, n)
	downE := make([]int, n)
	for i := range upE {
		upE[i], downE[i] = -1, -1
	}
	for _, e := range g.c.Net.Edges {
		if e.To == n {
			upE[e.From] = e.ID
		} else if e.From == n {
			downE[e.To] = e.ID
		}
	}
	for i := 0; i < n; i++ {
		if upE[i] < 0 || downE[i] < 0 {
			return fmt.Errorf("core: server %d lacks NIC edges", i)
		}
	}
	plan := &Plan{}
	for _, x := range xfers {
		upStream := plan.Streams
		downStream := plan.Streams + 1
		plan.Streams += 2
		remaining := x.bytes
		prev := -1
		ci := 0
		for remaining > 0 {
			sz := min(g.opts.ChunkBytes, remaining)
			up := &simgpu.Op{
				Stream:   upStream,
				Link:     netFab.EdgeLinks(upE[x.src])[0],
				Bytes:    sz,
				Overhead: netFab.Cfg.OpOverhead,
				Label:    fmt.Sprintf("net p%d %d->%d c%d up", x.group, x.src, x.dst, ci),
			}
			if prev >= 0 {
				up.Deps = []int{prev}
			}
			plan.Ops = append(plan.Ops, up)
			upIdx := len(plan.Ops) - 1
			down := &simgpu.Op{
				Stream: downStream,
				Link:   netFab.EdgeLinks(downE[x.dst])[0],
				Bytes:  sz,
				Deps:   []int{upIdx},
				Label:  fmt.Sprintf("net p%d %d->%d c%d down", x.group, x.src, x.dst, ci),
			}
			plan.Ops = append(plan.Ops, down)
			prev = len(plan.Ops) - 1
			remaining -= sz
			ci++
		}
	}
	g.add(n, plan)
	return nil
}
