package core

import (
	"fmt"

	"blink/internal/simgpu"
	"blink/internal/topology"
)

// Three-phase cross-machine AllReduce, §3.5 / Figure 10:
//
//	Phase 1: per-server reduction over local spanning trees. The payload is
//	         partitioned with a distinct server-local root per partition.
//	Phase 2: cross-server reduce-broadcast among the partition roots over
//	         the NIC fabric (one-hop cross-server trees).
//	Phase 3: per-server broadcast of the reduced partitions.
//
// Phases execute back-to-back here (the paper pipelines chunks across
// phases, but with commodity NICs phase 2 dominates end-to-end time, which
// is the behaviour Figures 22a/22b probe).

// PackFn supplies the spanning-tree packing for a (server, root) pair.
// The collective layer passes Engine.Packing so the per-server TreeGen work
// is cached and shared with single-machine dispatches; standalone callers
// pass a GenerateTrees wrapper.
type PackFn func(server, root int) (*Packing, error)

// ThreePhasePlans is a compiled multi-server schedule: per-server plans for
// the intra-machine phases plus one NIC-fabric plan for the cross-machine
// exchange. Each plan is independently freezable, which is what lets the
// collective layer cache whole cluster schedules.
type ThreePhasePlans struct {
	// Phase1[s] is server s's merged per-partition reduce plan (nil for a
	// broadcast, which has no reduce phase).
	Phase1 []*Plan
	// Phase2 is the NIC exchange over the cluster's switch fabric.
	Phase2 *Plan
	// Phase3[s] is server s's merged per-partition broadcast plan.
	Phase3 []*Plan
	// Partitions is the number of payload partitions (one local root each).
	Partitions int
	// PartOffFloats/PartFloats locate partition p inside the payload.
	PartOffFloats, PartFloats []int
	// Roots[p][s] is partition p's local root on server s.
	Roots [][]int
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
// `bytes` over a cluster. fabrics[s] is server s's intra-machine fabric and
// netFab the NIC fabric (one vertex per server plus the switch relay, as
// built by topology.NewCluster). packFor supplies per-server packings.
func BuildThreePhaseAllReduce(c *topology.Cluster, fabrics []*simgpu.Fabric, netFab *simgpu.Fabric, packFor PackFn, bytes int64, opts PlanOptions) (*ThreePhasePlans, error) {
	if len(c.Servers) < 2 {
		return nil, fmt.Errorf("core: need >= 2 servers")
	}
	if len(fabrics) != len(c.Servers) {
		return nil, fmt.Errorf("core: %d fabrics for %d servers", len(fabrics), len(c.Servers))
	}
	opts.SetDefaults()
	// One partition per GPU of the smallest server: every server can then
	// host a distinct local root per partition.
	parts := c.Servers[0].NumGPUs
	for _, s := range c.Servers {
		if s.NumGPUs < parts {
			parts = s.NumGPUs
		}
	}
	if parts < 1 {
		return nil, fmt.Errorf("core: empty server in cluster")
	}
	totalFloats := int(bytes / 4)
	if totalFloats < parts {
		return nil, fmt.Errorf("core: payload %d too small for %d partitions", bytes, parts)
	}
	tp := &ThreePhasePlans{Partitions: parts}
	tp.PartOffFloats, tp.PartFloats = partitionPayload(totalFloats, parts)
	tp.Roots = make([][]int, parts)
	for p := 0; p < parts; p++ {
		tp.Roots[p] = make([]int, len(c.Servers))
		for si, s := range c.Servers {
			tp.Roots[p][si] = p % s.NumGPUs
		}
	}

	packs, err := resolvePackings(c, packFor, tp)
	if err != nil {
		return nil, err
	}

	// Phases 1 and 3: merged per-partition reduce and broadcast plans. The
	// phase-3 broadcast moves the accumulator (the reduced value phase 2
	// left at the local root), not the original input.
	for si := range c.Servers {
		var p1, p3 []*Plan
		for p := 0; p < parts; p++ {
			po := opts
			po.OffsetFloats = tp.PartOffFloats[p]
			partBytes := int64(tp.PartFloats[p]) * 4
			rp, _, err := BuildReducePlan(fabrics[si], packs[si][p], partBytes, po)
			if err != nil {
				return nil, fmt.Errorf("core: server %d partition %d reduce: %w", si, p, err)
			}
			p1 = append(p1, rp)
			po.BroadcastAcc = true
			bp, err := BuildBroadcastPlan(fabrics[si], packs[si][p], partBytes, po)
			if err != nil {
				return nil, fmt.Errorf("core: server %d partition %d broadcast: %w", si, p, err)
			}
			p3 = append(p3, bp)
		}
		tp.Phase1 = append(tp.Phase1, MergePlans(fabrics[si], p1...))
		tp.Phase3 = append(tp.Phase3, MergePlans(fabrics[si], p3...))
	}

	// Phase 2: each partition's n server-local roots exchange partials over
	// the NIC fabric (every root sends to the n-1 others through the
	// datacenter switch) and reduce what they receive.
	n := len(c.Servers)
	var xfers []nicTransfer
	for p := 0; p < parts; p++ {
		for src := 0; src < n; src++ {
			for di := 1; di < n; di++ {
				xfers = append(xfers, nicTransfer{
					src:   src,
					dst:   (src + di) % n,
					bytes: int64(tp.PartFloats[p]) * 4,
					group: p,
				})
			}
		}
	}
	tp.Phase2, err = buildNICExchangePlan(c, netFab, xfers, opts)
	if err != nil {
		return nil, err
	}
	return tp, nil
}

// BuildThreePhaseBroadcast compiles the multi-server broadcast: the root
// server pushes the payload over the NIC fabric to every other server's
// local root (phase 2), then each server broadcasts locally over its packed
// trees (phase 3). There is no reduce phase.
func BuildThreePhaseBroadcast(c *topology.Cluster, fabrics []*simgpu.Fabric, netFab *simgpu.Fabric, packFor PackFn, rootServer, localRoot int, bytes int64, opts PlanOptions) (*ThreePhasePlans, error) {
	if len(c.Servers) < 2 {
		return nil, fmt.Errorf("core: need >= 2 servers")
	}
	if rootServer < 0 || rootServer >= len(c.Servers) {
		return nil, fmt.Errorf("core: root server %d out of range", rootServer)
	}
	if localRoot < 0 || localRoot >= c.Servers[rootServer].NumGPUs {
		return nil, fmt.Errorf("core: local root %d out of range on server %d", localRoot, rootServer)
	}
	opts.SetDefaults()
	totalFloats := int(bytes / 4)
	if totalFloats < 1 {
		return nil, fmt.Errorf("core: payload too small (%d bytes)", bytes)
	}
	tp := &ThreePhasePlans{Partitions: 1}
	tp.PartOffFloats, tp.PartFloats = []int{0}, []int{totalFloats}
	tp.Roots = [][]int{make([]int, len(c.Servers))}
	for si := range c.Servers {
		if si == rootServer {
			tp.Roots[0][si] = localRoot
		}
	}

	packs, err := resolvePackings(c, packFor, tp)
	if err != nil {
		return nil, err
	}
	for si := range c.Servers {
		bp, err := BuildBroadcastPlan(fabrics[si], packs[si][0], bytes, opts)
		if err != nil {
			return nil, fmt.Errorf("core: server %d broadcast: %w", si, err)
		}
		tp.Phase3 = append(tp.Phase3, MergePlans(fabrics[si], bp))
	}
	var xfers []nicTransfer
	for dst := range c.Servers {
		if dst != rootServer {
			xfers = append(xfers, nicTransfer{src: rootServer, dst: dst, bytes: bytes})
		}
	}
	tp.Phase2, err = buildNICExchangePlan(c, netFab, xfers, opts)
	if err != nil {
		return nil, err
	}
	return tp, nil
}

// BuildThreePhaseAllToAll compiles the cluster AllToAll. Every global rank
// owns one shard per global rank inside a totalRanks-shard buffer. Phase 1
// is each server's local AllToAll over that global buffer (destinations
// restricted to the server's own rank range); phase 2 ships each ordered
// server pair's shard block through the datacenter switch. There is no
// phase 3: remote shards land directly in the receivers' cluster exchange
// buffers (the data movement happens in the collective layer's exchange
// closure, timed here by the NIC plan).
func BuildThreePhaseAllToAll(c *topology.Cluster, fabrics []*simgpu.Fabric, netFab *simgpu.Fabric, packFor PackFn, bytes int64, opts PlanOptions) (*ThreePhasePlans, error) {
	if len(c.Servers) < 2 {
		return nil, fmt.Errorf("core: need >= 2 servers")
	}
	if len(fabrics) != len(c.Servers) {
		return nil, fmt.Errorf("core: %d fabrics for %d servers", len(fabrics), len(c.Servers))
	}
	opts.SetDefaults()
	total := 0
	rankBase := make([]int, len(c.Servers))
	for si, s := range c.Servers {
		rankBase[si] = total
		total += s.NumGPUs
	}
	totalFloats := int(bytes / 4)
	if totalFloats < total {
		return nil, fmt.Errorf("core: payload %d too small for %d ranks", bytes, total)
	}
	shard := totalFloats / total
	tp := &ThreePhasePlans{Partitions: total}
	tp.PartOffFloats = make([]int, total)
	tp.PartFloats = make([]int, total)
	for i := 0; i < total; i++ {
		tp.PartOffFloats[i], tp.PartFloats[i] = i*shard, shard
	}
	for si := range c.Servers {
		si := si
		p1, err := buildAllToAll(fabrics[si], func(r int) (*Packing, error) {
			return packFor(si, r)
		}, shard, rankBase[si], total, opts)
		if err != nil {
			return nil, fmt.Errorf("core: server %d local alltoall: %w", si, err)
		}
		tp.Phase1 = append(tp.Phase1, p1)
	}
	// Phase 2: one transfer per ordered server pair carrying every shard
	// headed from si's ranks to sj's ranks.
	var xfers []nicTransfer
	for si, s := range c.Servers {
		for sj, d := range c.Servers {
			if si == sj {
				continue
			}
			xfers = append(xfers, nicTransfer{
				src:   si,
				dst:   sj,
				bytes: int64(s.NumGPUs) * int64(d.NumGPUs) * int64(shard) * 4,
				group: si,
			})
		}
	}
	var err error
	tp.Phase2, err = buildNICExchangePlan(c, netFab, xfers, opts)
	if err != nil {
		return nil, err
	}
	return tp, nil
}

// resolvePackings collects the per-(server, partition-root) packings,
// substituting the trivial packing for single-GPU servers.
func resolvePackings(c *topology.Cluster, packFor PackFn, tp *ThreePhasePlans) ([][]*Packing, error) {
	packs := make([][]*Packing, len(c.Servers))
	type task struct{ si, p int }
	var tasks []task
	for si, s := range c.Servers {
		packs[si] = make([]*Packing, tp.Partitions)
		for p := 0; p < tp.Partitions; p++ {
			if s.NumGPUs == 1 {
				packs[si][p] = trivialPacking(tp.Roots[p][si])
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
		root := tp.Roots[t.p][t.si]
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

// buildNICExchangePlan emits the chunked up-link/down-link op chains for a
// set of cross-server transfers through the datacenter switch. Each
// transfer pipelines its chunks: chunk k's down-leg depends on its up-leg,
// and chunk k+1's up-leg on chunk k's down-leg (store-and-forward at the
// switch with bounded buffering).
func buildNICExchangePlan(c *topology.Cluster, netFab *simgpu.Fabric, xfers []nicTransfer, opts PlanOptions) (*Plan, error) {
	n := len(c.Servers)
	upE := make([]int, n)
	downE := make([]int, n)
	for i := range upE {
		upE[i], downE[i] = -1, -1
	}
	for _, e := range c.Net.Edges {
		if e.To == n {
			upE[e.From] = e.ID
		} else if e.From == n {
			downE[e.To] = e.ID
		}
	}
	for i := 0; i < n; i++ {
		if upE[i] < 0 || downE[i] < 0 {
			return nil, fmt.Errorf("core: server %d lacks NIC edges", i)
		}
	}
	chunk := opts.ChunkBytes
	if chunk <= 0 {
		chunk = 4 << 20
	}
	cfg := netFab.Cfg
	plan := &Plan{Fabric: netFab}
	streams := 0
	for _, x := range xfers {
		upStream := streams
		downStream := streams + 1
		streams += 2
		remaining := x.bytes
		prev := -1
		ci := 0
		for remaining > 0 {
			sz := chunk
			if sz > remaining {
				sz = remaining
			}
			up := &simgpu.Op{
				Stream:   upStream,
				Link:     netFab.EdgeLinks(upE[x.src])[0],
				Bytes:    sz,
				Overhead: cfg.OpOverhead,
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
		plan.TotalBytes += x.bytes
	}
	plan.Streams = streams
	return plan, nil
}
