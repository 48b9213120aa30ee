package collective

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"blink/internal/core"
	"blink/internal/ring"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

// ClusterEngine is the multi-server counterpart of Engine: it composes one
// engineState per server (whose fabrics and cached tree packings drive the
// intra-machine phases) with the cross-server NIC fabric into cached
// three-phase schedules (§3.5 / Figure 10). The Blink backend dispatches
// the three-phase protocol (per-server tree reduce → NIC exchange among
// partition roots → per-server tree broadcast); the NCCL backend dispatches
// the flat cross-machine ring baseline the paper compares against.
//
// Like Engine, a ClusterEngine is safe for concurrent use: compiled cluster
// schedules live in the plan cache as immutable frozen plans (a
// ClusterFrozenPlan for the three phases, a single FrozenPlan for the flat
// ring), and every data-mode call executes against its own ClusterBuffers
// context, so any number of data-mode replays may be in flight at once.
// Reconfigure and RemoveServer swap the whole cluster-derived state
// atomically, so collectives may keep flowing while a server drops out.
type ClusterEngine struct {
	engineShell
	Cfg simgpu.Config

	// st is the current cluster-derived state; Load it once per dispatch.
	st atomic.Pointer[clusterState]

	// reconfigMu serializes reconfigurations (see Engine.reconfigMu).
	reconfigMu sync.Mutex

	// pipe is the exact planner pipeline every server's packings compile
	// through; its stage latencies land in the cluster engine's registry.
	pipe *core.PlannerPipeline
}

// clusterState is everything a ClusterEngine derives from its cluster
// topology; the bundle is immutable once published except for the lazily
// built flat-ring fabric guarded by mu.
type clusterState struct {
	cluster *topology.Cluster
	// servers holds each member's topology-derived state (fabrics, per-root
	// packing slots), pinned with the rest of the bundle: nothing short of a
	// reconfiguration of the whole cluster changes a member.
	servers []*engineState
	netFab  *simgpu.Fabric
	// rankBase[s] is the global rank of server s's local rank 0
	// (server-major numbering, matching the flat-ring baseline).
	rankBase []int
	total    int

	fingerprint string

	// mu guards the lazily built flat-ring fabric.
	mu   sync.Mutex
	flat *ring.CrossMachineFabric
}

// ClusterBuffers is the per-call execution context of a cluster data-mode
// replay: one private simgpu.BufferSet per server for the three-phase
// protocol (Servers[si] holds server si's device buffers, locally numbered)
// or a single arena spanning all global ranks for the flat-ring baseline.
// Each *Data call builds its own ClusterBuffers, so concurrent calls never
// share any execution state.
type ClusterBuffers struct {
	Servers []*simgpu.BufferSet
	Flat    *simgpu.BufferSet
}

// newClusterState builds the per-server states and the NIC fabric for a
// cluster. reuse maps surviving server topologies to their existing states
// (nil for a fresh build): a reconfiguration that only removes a server
// keeps the survivors' states — and the tree packings they have already
// generated — instead of re-deriving them.
func newClusterState(c *topology.Cluster, cfg simgpu.Config, reuse map[*topology.Topology]*engineState) (*clusterState, error) {
	if len(c.Servers) < 2 {
		return nil, fmt.Errorf("collective: cluster needs >= 2 servers")
	}
	st := &clusterState{cluster: c, fingerprint: c.Fingerprint()}
	for si, s := range c.Servers {
		if s.Kind == topology.KindDGX2 || s.Kind == topology.KindCluster {
			return nil, fmt.Errorf("collective: server %d: cluster members must be point-to-point machines", si)
		}
		srv := reuse[s]
		if srv == nil {
			var err error
			srv, err = newEngineState(s, s.DevIDs, cfg)
			if err != nil {
				return nil, fmt.Errorf("collective: server %d: %w", si, err)
			}
		}
		st.rankBase = append(st.rankBase, st.total)
		st.total += s.NumGPUs
		st.servers = append(st.servers, srv)
	}
	st.netFab = simgpu.NewFabric(c.Servers[0], c.Net, cfg)
	return st, nil
}

// NewClusterEngine builds the per-server states and the NIC fabric for a
// cluster. Servers must be point-to-point machines (DGX-1 class or custom);
// the paper's multi-server protocol targets NIC-attached DGX-1V boxes.
func NewClusterEngine(c *topology.Cluster, cfg simgpu.Config) (*ClusterEngine, error) {
	e := &ClusterEngine{Cfg: cfg}
	e.init(cfg)
	e.pipe = core.NewPlannerPipeline(core.PipelineOptions{OnStage: e.observeStage})
	st, err := newClusterState(c, cfg, nil)
	if err != nil {
		return nil, err
	}
	e.st.Store(st)
	return e, nil
}

// Reconfigure swaps the engine onto a new cluster topology (typically one
// derived from the current one after a fault), preserving the shared plan
// cache. Dispatches in flight finish against the old state; plans cached
// under the old cluster fingerprint are dropped so the dead topology stops
// pinning LRU slots. On error the engine keeps its current state.
func (e *ClusterEngine) Reconfigure(c *topology.Cluster) error {
	e.reconfigMu.Lock()
	defer e.reconfigMu.Unlock()
	return e.reconfigureLocked(c)
}

func (e *ClusterEngine) reconfigureLocked(c *topology.Cluster) error {
	start := time.Now()
	old := e.st.Load()
	// Servers whose induced topology instance survives the reconfiguration
	// (e.g. everyone but the lost server) keep their states and therefore
	// their already-packed trees; only genuinely new servers re-probe.
	reuse := make(map[*topology.Topology]*engineState, len(old.servers))
	for si, srv := range old.servers {
		reuse[old.cluster.Servers[si]] = srv
	}
	st, err := newClusterState(c, e.Cfg, reuse)
	if err != nil {
		return err
	}
	e.st.Store(st)
	e.reconfigured(old.fingerprint, st.fingerprint, start)
	return nil
}

// RemoveServer shrinks the communicator after losing server si (indices
// follow the current server order): the surviving servers keep their ranks
// (renumbered server-major) and every later collective compiles schedules
// for the shrunken NIC fabric. At least two servers must survive.
func (e *ClusterEngine) RemoveServer(si int) error {
	e.reconfigMu.Lock()
	defer e.reconfigMu.Unlock()
	// Deriving the shrunken cluster from the current state happens under
	// the lock, so two concurrent losses compose instead of one winning.
	nc, err := e.st.Load().cluster.WithoutServer(si)
	if err != nil {
		return err
	}
	return e.reconfigureLocked(nc)
}

// Cluster returns the current cluster topology snapshot.
func (e *ClusterEngine) Cluster() *topology.Cluster { return e.st.Load().cluster }

// TotalRanks returns the number of GPUs across all servers.
func (e *ClusterEngine) TotalRanks() int { return e.st.Load().total }

// ServerSizes returns the per-server GPU counts.
func (e *ClusterEngine) ServerSizes() []int {
	st := e.st.Load()
	out := make([]int, len(st.servers))
	for i, srv := range st.servers {
		out[i] = srv.topo.NumGPUs
	}
	return out
}

// locate maps a global rank (server-major) to its (server, local rank).
func (st *clusterState) locate(rank int) (server, local int, err error) {
	if rank < 0 || rank >= st.total {
		return 0, 0, fmt.Errorf("collective: rank %d out of range [0,%d)", rank, st.total)
	}
	for si := len(st.rankBase) - 1; si >= 0; si-- {
		if rank >= st.rankBase[si] {
			return si, rank - st.rankBase[si], nil
		}
	}
	return 0, 0, fmt.Errorf("collective: rank %d unmapped", rank)
}

// Fingerprint returns the cluster's schedule-cache identity.
func (e *ClusterEngine) Fingerprint() string { return e.st.Load().fingerprint }

// ClusterTiming is the per-phase breakdown of one cluster replay. The flat
// NCCL ring has no phase structure; only Total is set.
type ClusterTiming struct {
	Phase1, Phase2, Phase3 float64
	Total                  float64
}

// ClusterFrozenPlan is the immutable, replayable three-phase multi-server
// schedule (§3.5): one frozen per-server plan per intra-machine phase and
// the single NIC exchange plan between them. Data-mode plans additionally
// carry the cross-server exchange closure that moves partial results
// between the per-server arenas in between phase replays; like every Exec
// closure, it resolves buffers through the per-call context, so the frozen
// plan itself is shareable across concurrent calls.
type ClusterFrozenPlan struct {
	// phases holds each phase's frozen plans: per server (indexed like
	// ClusterBuffers.Servers) for phases 1 and 3, the one NIC plan for 2.
	phases [3][]*core.FrozenPlan
	// exchange performs the data-mode cross-server movement (summing
	// partition partials across servers for AllReduce, seeding local roots
	// for Broadcast) through the call's per-server arenas. It runs after
	// phase 1 and before phase 3.
	exchange   func(servers []*simgpu.BufferSet)
	partitions int
}

// NumOps is the schedule's total op count across every phase, the
// denominator of a hooked replay's progress.
func (p *ClusterFrozenPlan) NumOps() int {
	n := 0
	for _, plans := range p.phases {
		for _, fp := range plans {
			n += fp.NumOps()
		}
	}
	return n
}

// replay executes the schedule against ctx, the call's private buffer
// context (nil degrades to timing-only execution): every per-server phase-1
// plan, the exchange closure, the NIC plan (timing only — the closure moved
// its data), and every phase-3 plan. A phase takes as long as its slowest
// plan. hook, when set, observes chunk-granular progress across all three
// phases against the schedule-wide op total.
func (p *ClusterFrozenPlan) replay(ctx *ClusterBuffers, hook core.ReplayHook) (ClusterTiming, error) {
	var t [3]float64
	base := 0
	var sub core.ReplayHook
	if hook != nil {
		total := p.NumOps()
		sub = func(done, _ int) { hook(base+done, total) }
	}
	for ph, plans := range p.phases {
		if ph == 1 && p.exchange != nil && ctx != nil {
			p.exchange(ctx.Servers)
		}
		for si, fp := range plans {
			var bufs *simgpu.BufferSet
			if ph != 1 && ctx != nil && si < len(ctx.Servers) {
				bufs = ctx.Servers[si]
			}
			r, err := fp.ReplayDataHooked(bufs, sub)
			if err != nil {
				return ClusterTiming{}, err
			}
			base += fp.NumOps()
			t[ph] = math.Max(t[ph], r.Makespan)
		}
	}
	return ClusterTiming{Phase1: t[0], Phase2: t[1], Phase3: t[2], Total: t[0] + t[1] + t[2]}, nil
}

// Run executes one cluster collective and returns its simulated timing.
// Supported ops are AllReduce, Broadcast and AllToAll (root is a global,
// server-major rank). The first call for a given (backend, op, root, bytes,
// chunk) key compiles the full multi-server pipeline — per-server TreeGen
// through the NIC exchange — and freezes it into the plan cache; later
// calls replay.
func (e *ClusterEngine) Run(b Backend, op Op, root int, bytes int64, opts Options) (ClusterResult, error) {
	return submit(&e.engineShell, e, e.st.Load(), request{b: b, op: op, root: root, bytes: bytes, opts: opts}, Inline).Wait()
}

// RunMany issues one cluster collective per payload size through the plan
// cache — the grouped entry point a multi-server training step uses for its
// gradient buckets.
func (e *ClusterEngine) RunMany(b Backend, op Op, root int, sizes []int64, opts Options) (GroupResult, error) {
	return runGroup(&e.engineShell, e, e.st.Load(), request{b: b, op: op, root: root, opts: opts}, sizes)
}

// lookupOrCompile resolves the cluster plan-cache key, compiling and
// inserting the frozen schedule on a miss (the ClusterEngine's half of the
// planner). Cluster plans are memory-only: they have no decoder and no
// serializable form.
func (e *ClusterEngine) lookupOrCompile(st *clusterState, rq request) (*CachedPlan, bool, error) {
	if rq.op != AllReduce && rq.op != Broadcast && rq.op != AllToAll {
		return nil, false, fmt.Errorf("collective: cluster collectives support AllReduce, Broadcast and AllToAll, not %v", rq.op)
	}
	if rq.op == AllToAll && rq.b != Blink {
		return nil, false, fmt.Errorf("collective: cluster AllToAll requires the Blink backend")
	}
	key := e.planKey(st.fingerprint, rq)
	return e.resolve(key, nil, e.Fingerprint, func() (*CachedPlan, bool, error) {
		cp := &CachedPlan{}
		var err error
		if rq.b == Blink {
			cp.ClusterPlan, cp.Strategy, err = compileThreePhase(e.pipe, st, rq.op, rq.root, rq.bytes, key.ChunkBytes, rq.opts)
		} else {
			cp.Strategy = "flat-ring"
			cp.Plan, err = compileFlatRing(st, rq.op, rq.root, rq.bytes, key.ChunkBytes, rq.opts, e.Cfg)
		}
		if err != nil {
			return nil, false, err
		}
		e.cache.Put(key, cp)
		return cp, false, nil
	})
}

// compileThreePhase builds and freezes the Blink three-phase schedule over
// each server's Blink data plane, reusing the packings the server states
// already hold and compiling the rest through pipe.
func compileThreePhase(pipe *core.PlannerPipeline, st *clusterState, op Op, root int, bytes int64, chunk int64, opts Options) (*ClusterFrozenPlan, string, error) {
	fabrics := make([]*simgpu.Fabric, len(st.servers))
	for si, srv := range st.servers {
		fabrics[si] = srv.fabrics[srv.plane(Blink)]
	}
	packFor := func(si, r int) (*core.Packing, error) {
		return st.servers[si].packing(pipe, st.servers[si].plane(Blink), r)
	}
	po := core.PlanOptions{ChunkBytes: chunk, DataMode: opts.DataMode, NoStreamReuse: true}

	var tp *core.ThreePhasePlans
	var err error
	rootServer := -1
	strategy := "3-phase"
	switch op {
	case AllReduce:
		tp, err = core.BuildThreePhaseAllReduce(st.cluster, fabrics, st.netFab, packFor, bytes, po)
	case Broadcast:
		var localRoot int
		rootServer, localRoot, err = st.locate(root)
		if err != nil {
			return nil, "", err
		}
		tp, err = core.BuildThreePhaseBroadcast(st.cluster, fabrics, st.netFab, packFor, rootServer, localRoot, bytes, po)
	case AllToAll:
		strategy = "3-phase+alltoall"
		tp, err = core.BuildThreePhaseAllToAll(st.cluster, fabrics, st.netFab, packFor, bytes, po)
	}
	if err != nil {
		return nil, "", err
	}
	plan := &ClusterFrozenPlan{partitions: tp.Partitions}
	for ph, plans := range [3][]*core.Plan{tp.Phase1, {tp.Phase2}, tp.Phase3} {
		for _, p := range plans {
			plan.phases[ph] = append(plan.phases[ph], p.Freeze())
		}
	}
	if opts.DataMode {
		switch op {
		case AllReduce:
			plan.exchange = allReduceExchange(tp)
		case Broadcast:
			plan.exchange = broadcastExchange(tp, rootServer, int(bytes/4))
		case AllToAll:
			plan.exchange = allToAllExchange(st, int(bytes/4)/st.total)
		}
	}
	return plan, strategy, nil
}

// allToAllExchange builds the data-mode cross-server glue phase 2's NIC
// transfers stand for in a cluster AllToAll: every shard headed off-server
// is copied straight from the sender's input buffer into the receiver's
// cluster exchange buffer, keyed by the global source rank. (Same-server
// shards were already delivered by phase 1's local AllToAll under the local
// exchange tags.) The closure captures only the frozen rank geometry.
func allToAllExchange(st *clusterState, shard int) func([]*simgpu.BufferSet) {
	bases := append([]int(nil), st.rankBase...)
	sizes := make([]int, len(st.cluster.Servers))
	for si, s := range st.cluster.Servers {
		sizes[si] = s.NumGPUs
	}
	bufLen := st.total * shard
	return func(servers []*simgpu.BufferSet) {
		for si := range servers {
			for l := 0; l < sizes[si]; l++ {
				gsrc := bases[si] + l
				src := servers[si].Buffer(l, core.BufData, bufLen)
				for sj := range servers {
					if sj == si {
						continue
					}
					for m := 0; m < sizes[sj]; m++ {
						gdst := bases[sj] + m
						dst := servers[sj].Buffer(m, core.ClusterExchangeTag(gsrc), bufLen)
						copy(dst[gdst*shard:(gdst+1)*shard], src[gdst*shard:(gdst+1)*shard])
					}
				}
			}
		}
	}
}

// allReduceExchange builds the data-mode cross-server glue phase 2's NIC
// transfers stand for: each partition's server-local partials (left in the
// local roots' accumulators by phase 1) are summed across servers and
// written back, so phase 3 broadcasts the global result. The closure
// captures only the frozen partition geometry; buffers resolve through the
// call's per-server arenas.
func allReduceExchange(tp *core.ThreePhasePlans) func([]*simgpu.BufferSet) {
	roots, offs, ns := tp.Roots, tp.PartOffFloats, tp.PartFloats
	return func(servers []*simgpu.BufferSet) {
		for p := range roots {
			off, n := offs[p], ns[p]
			sum := make([]float32, n)
			for si := range servers {
				acc := servers[si].Buffer(roots[p][si], core.BufAcc, off+n)
				for i := 0; i < n; i++ {
					sum[i] += acc[off+i]
				}
			}
			for si := range servers {
				acc := servers[si].Buffer(roots[p][si], core.BufAcc, off+n)
				copy(acc[off:off+n], sum)
			}
		}
	}
}

// broadcastExchange copies the root's payload from the root server's arena
// into every other server's receiving local root before the per-server
// broadcasts replay.
func broadcastExchange(tp *core.ThreePhasePlans, rootServer, totalFloats int) func([]*simgpu.BufferSet) {
	roots := tp.Roots[0]
	return func(servers []*simgpu.BufferSet) {
		src := servers[rootServer].Buffer(roots[rootServer], core.BufData, totalFloats)
		for si := range servers {
			if si == rootServer {
				continue
			}
			dst := servers[si].Buffer(roots[si], core.BufData, totalFloats)
			copy(dst[:totalFloats], src[:totalFloats])
		}
	}
}

// compileFlatRing builds and freezes the NCCL cross-machine baseline: one
// global ring over every GPU, PCIe within servers, NICs between them — a
// single-fabric schedule, replayed against ClusterBuffers.Flat.
func compileFlatRing(st *clusterState, op Op, root int, bytes int64, chunk int64, opts Options, cfg simgpu.Config) (*core.FrozenPlan, error) {
	cf, err := st.flatFabric(cfg)
	if err != nil {
		return nil, err
	}
	ro := core.PlanOptions{ChunkBytes: chunk, DataMode: opts.DataMode}
	var plan *core.Plan
	switch op {
	case AllReduce:
		plan, err = cf.BuildCrossMachineAllReducePlan(bytes, ro)
	case Broadcast:
		plan, err = cf.BuildCrossMachineBroadcastPlan(root, bytes, ro)
	}
	if err != nil {
		return nil, err
	}
	return plan.Freeze(), nil
}

// flatFabric lazily assembles the cross-machine ring fabric.
func (st *clusterState) flatFabric(cfg simgpu.Config) (*ring.CrossMachineFabric, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.flat == nil {
		cf, err := ring.NewCrossMachineFabric(st.cluster, st.cluster.NICGBs*8, cfg)
		if err != nil {
			return nil, err
		}
		st.flat = cf
	}
	return st.flat, nil
}

// clusterDataOp describes one cluster data-mode collective to runData: the
// collective that carries it, the inputs to validate and stage, and how each
// rank's result is read back.
type clusterDataOp struct {
	op Op
	// root is the global source rank of a single-source op (perRank false).
	root int
	// inputs holds one buffer per global rank when perRank, else just the
	// root's payload.
	inputs  [][]float32
	perRank bool
	// sharded requires the buffer length to be a multiple of the rank count.
	sharded bool
	// tag is the buffer every rank's result is read from; read, when set,
	// replaces that plain per-rank read-back.
	tag  int
	read func(st *clusterState, ctx *ClusterBuffers, n int) [][]float32
}

// runData is the one body under the cluster *Data entry points: validate
// the inputs against a pinned state, stage them into a fresh per-call
// buffer context, dispatch through the spine against that same state, and
// read every global rank's result back (server-major order).
func (e *ClusterEngine) runData(b Backend, opts Options, d clusterDataOp) ([][]float32, ClusterResult, error) {
	if !e.Cfg.DataMode {
		return nil, ClusterResult{}, fmt.Errorf("collective: cluster engine not in data mode")
	}
	st := e.st.Load()
	if d.perRank && len(d.inputs) != st.total {
		return nil, ClusterResult{}, fmt.Errorf("collective: %d inputs for %d ranks", len(d.inputs), st.total)
	}
	if _, _, err := st.locate(d.root); err != nil {
		return nil, ClusterResult{}, err
	}
	n := len(d.inputs[0])
	if n == 0 {
		return nil, ClusterResult{}, fmt.Errorf("collective: empty buffer")
	}
	if d.sharded && n%st.total != 0 {
		return nil, ClusterResult{}, fmt.Errorf("collective: buffer length %d not a multiple of %d ranks", n, st.total)
	}
	for i, in := range d.inputs {
		if len(in) != n {
			return nil, ClusterResult{}, fmt.Errorf("collective: rank %d buffer length %d != %d", i, len(in), n)
		}
	}
	opts.DataMode = true
	ctx, err := st.newBuffers(b, e.Cfg)
	if err != nil {
		return nil, ClusterResult{}, err
	}
	for i, in := range d.inputs {
		g := d.root
		if d.perRank {
			g = i
		}
		bs, local := st.arena(ctx, g)
		bs.SetBuffer(local, core.BufData, append([]float32(nil), in...))
	}
	// The flat ring is a single-fabric schedule and replays against the one
	// global arena (nil for Blink, whose three phases use ctx.Servers).
	opts.Buffers = ctx.Flat
	rq := request{b: b, op: d.op, root: d.root, bytes: int64(n) * 4, opts: opts, cluster: ctx}
	res, err := submit(&e.engineShell, e, st, rq, Inline).Wait()
	if err != nil {
		return nil, ClusterResult{}, err
	}
	if d.read != nil {
		return d.read(st, ctx, n), res, nil
	}
	out := make([][]float32, st.total)
	for g := range out {
		bs, local := st.arena(ctx, g)
		out[g] = append([]float32(nil), bs.Buffer(local, d.tag, n)...)
	}
	return out, res, nil
}

// AllReduceData sums the per-rank buffers elementwise across every server
// and returns each global rank's result (server-major order). The cluster
// engine must have been built with a DataMode config. Blink moves the data
// through the three-phase protocol (per-server tree reduce, cross-server
// root exchange, per-server tree broadcast); NCCL moves it around the flat
// global ring.
func (e *ClusterEngine) AllReduceData(b Backend, inputs [][]float32, opts Options) ([][]float32, ClusterResult, error) {
	return e.runData(b, opts, clusterDataOp{op: AllReduce, inputs: inputs, perRank: true, tag: core.BufAcc})
}

// BroadcastData sends root's buffer (root is a global rank) to every rank
// and returns each rank's received copy.
func (e *ClusterEngine) BroadcastData(b Backend, root int, data []float32, opts Options) ([][]float32, ClusterResult, error) {
	return e.runData(b, opts, clusterDataOp{op: Broadcast, root: root, inputs: [][]float32{data}, tag: core.BufData})
}

// AllToAllData exchanges per-rank shards across the whole cluster: rank g's
// input is totalRanks equal shards, shard r of which is delivered to global
// rank r; the returned out[g] concatenates what g received, ordered by
// source rank. Blink-only: phase 1 runs each server's local tree AllToAll
// while phase 2 ships the cross-server shard blocks through the NIC switch.
func (e *ClusterEngine) AllToAllData(b Backend, inputs [][]float32, opts Options) ([][]float32, ClusterResult, error) {
	return e.runData(b, opts, clusterDataOp{op: AllToAll, inputs: inputs, perRank: true, sharded: true, read: readAllToAll})
}

// readAllToAll gathers what every global rank received in a cluster
// AllToAll: same-server shards sit under the local exchange tags, shards
// from other servers under the cluster exchange tags keyed by source rank.
func readAllToAll(st *clusterState, ctx *ClusterBuffers, n int) [][]float32 {
	shard := n / st.total
	out := make([][]float32, st.total)
	for g := range out {
		sj, m, _ := st.locate(g)
		o := make([]float32, n)
		for r := 0; r < st.total; r++ {
			si, l, _ := st.locate(r)
			tag := core.ClusterExchangeTag(r)
			if si == sj {
				tag = core.ExchangeTag(l)
			}
			copy(o[r*shard:(r+1)*shard], ctx.Servers[sj].Buffer(m, tag, n)[g*shard:(g+1)*shard])
		}
		out[g] = o
	}
	return out
}

// newBuffers builds a fresh, empty per-call buffer context for the backend
// — there is no shared state to reset, which is exactly what lets concurrent
// *Data calls proceed without any serialization. The context is tied to
// this state's geometry; callers must dispatch it against the same state.
func (st *clusterState) newBuffers(b Backend, cfg simgpu.Config) (*ClusterBuffers, error) {
	if b != Blink {
		// The flat-ring fabric numbers GPUs globally, server-major, so one
		// arena spans every rank.
		if _, err := st.flatFabric(cfg); err != nil {
			return nil, err
		}
		return &ClusterBuffers{Flat: simgpu.NewBufferSet()}, nil
	}
	ctx := &ClusterBuffers{Servers: make([]*simgpu.BufferSet, len(st.servers))}
	for si := range ctx.Servers {
		ctx.Servers[si] = simgpu.NewBufferSet()
	}
	return ctx, nil
}

// arena maps a global rank to the arena and local vertex holding its
// buffers in ctx.
func (st *clusterState) arena(ctx *ClusterBuffers, rank int) (*simgpu.BufferSet, int) {
	if ctx.Flat != nil {
		return ctx.Flat, rank
	}
	si, local, _ := st.locate(rank)
	return ctx.Servers[si], local
}
