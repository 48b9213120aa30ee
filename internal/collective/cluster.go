package collective

import (
	"fmt"
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
// Like Engine, a ClusterEngine is safe for concurrent use: a compiled cluster
// schedule lives in the plan cache as one immutable FrozenPlan, whichever
// backend compiled it, and every data-mode call executes against its own
// arena, so any number of data-mode replays may be in flight at once.
// Reconfigure and RemoveServer swap the whole cluster-derived state
// atomically, so collectives may keep flowing while a server drops out.
type ClusterEngine struct {
	engineShell
	Cfg simgpu.Config

	// st is the current cluster-derived state; Load it once per dispatch.
	st atomic.Pointer[clusterState]

	// reconfigMu serializes reconfigurations (see Engine.reconfigMu).
	reconfigMu sync.Mutex
}

// clusterState is everything a ClusterEngine derives from its cluster
// topology; the bundle is immutable once published. Both backends number
// GPUs globally, server-major, so one arena serves a data-mode call of
// either.
type clusterState struct {
	cluster *topology.Cluster
	// servers holds each member's topology-derived state (fabrics, per-root
	// packing slots), pinned with the rest of the bundle: nothing short of a
	// reconfiguration of the whole cluster changes a member.
	servers []*engineState
	// fabrics holds each server's Blink data plane and wide the one fabric
	// the three-phase plans run over: those planes' link tables followed by
	// the NIC links (core.NewClusterFabric).
	fabrics []*simgpu.Fabric
	wide    *simgpu.Fabric
	// flat is the NCCL baseline's cross-machine ring fabric.
	flat  *ring.CrossMachineFabric
	total int

	fingerprint string
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
		st.total += s.NumGPUs
		st.servers = append(st.servers, srv)
		st.fabrics = append(st.fabrics, srv.fabrics[srv.plane(Blink)])
	}
	st.wide = core.NewClusterFabric(c, st.fabrics, cfg)
	var err error
	st.flat, err = ring.NewCrossMachineFabric(c, c.NICGBs*8, cfg)
	return st, err
}

// NewClusterEngine builds the per-server states and the NIC fabric for a
// cluster. Servers must be point-to-point machines (DGX-1 class or custom);
// the paper's multi-server protocol targets NIC-attached DGX-1V boxes.
func NewClusterEngine(c *topology.Cluster, cfg simgpu.Config) (*ClusterEngine, error) {
	e := &ClusterEngine{Cfg: cfg}
	e.init(cfg)
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

// Fingerprint returns the cluster's schedule-cache identity.
func (e *ClusterEngine) Fingerprint() string { return e.st.Load().fingerprint }

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
		plan, strategy, err := st.compile(e.pipe, rq, key.ChunkBytes)
		if err != nil {
			return nil, false, err
		}
		cp := &CachedPlan{Plan: plan.Freeze(), Strategy: strategy}
		e.cache.Put(key, cp)
		return cp, false, nil
	})
}

// compile builds the request's schedule as one plan over one fabric. Blink
// runs the three-phase protocol over each server's Blink data plane, reusing
// the packings the server states already hold and compiling the rest through
// pipe; NCCL runs the cross-machine baseline: one global ring over every
// GPU, PCIe within servers, NICs between them.
func (st *clusterState) compile(pipe *core.PlannerPipeline, rq request, chunk int64) (plan *core.Plan, strategy string, err error) {
	po := core.PlanOptions{ChunkBytes: chunk, DataMode: rq.opts.DataMode}
	if rq.b != Blink {
		if rq.op == AllReduce {
			plan, err = st.flat.BuildCrossMachineAllReducePlan(rq.bytes, po)
		} else {
			plan, err = st.flat.BuildCrossMachineBroadcastPlan(rq.root, rq.bytes, po)
		}
		return plan, "flat-ring", err
	}
	po.NoStreamReuse = true
	packFor := func(si, r int) (*core.Packing, error) {
		return st.servers[si].packing(pipe, st.servers[si].plane(Blink), r)
	}
	strategy = "3-phase"
	switch rq.op {
	case AllReduce:
		plan, err = core.BuildThreePhaseAllReduce(st.cluster, st.fabrics, st.wide, packFor, rq.bytes, po)
	case Broadcast:
		plan, err = core.BuildThreePhaseBroadcast(st.cluster, st.fabrics, st.wide, packFor, rq.root, rq.bytes, po)
	case AllToAll:
		strategy = "3-phase+alltoall"
		plan, err = core.BuildThreePhaseAllToAll(st.cluster, st.fabrics, st.wide, packFor, rq.bytes, po)
	}
	return plan, strategy, err
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
	// tag is the buffer every rank's result is read from. A sharded op (the
	// buffer length must be a multiple of the rank count) is instead read as
	// an exchange: source r's shard for rank g sits in g's slot under r's
	// exchange tag.
	tag     int
	sharded bool
}

// runData is the one body under the cluster *Data entry points: validate
// the inputs against a pinned state, stage them by global rank into a fresh
// per-call arena — there is no shared state to reset, which is what lets
// concurrent *Data calls proceed without any serialization — dispatch
// through the spine against that same state, and read every global rank's
// result back (server-major order). Inputs are staged by reference when the
// op only reads them (ReadsInputsOnly) and copied otherwise, so every result
// buffer is the call's own and is handed to the caller as it is; only the
// exchange's read-back assembles new rows.
func (e *ClusterEngine) runData(b Backend, opts Options, d clusterDataOp) ([][]float32, ClusterResult, error) {
	if !e.Cfg.DataMode {
		return nil, ClusterResult{}, fmt.Errorf("collective: cluster engine not in data mode")
	}
	st := e.st.Load()
	if d.perRank && len(d.inputs) != st.total {
		return nil, ClusterResult{}, fmt.Errorf("collective: %d inputs for %d ranks", len(d.inputs), st.total)
	}
	if d.root < 0 || d.root >= st.total {
		return nil, ClusterResult{}, fmt.Errorf("collective: rank %d out of range [0,%d)", d.root, st.total)
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
	arena := simgpu.NewBufferSet()
	for i, in := range d.inputs {
		g := d.root
		if d.perRank {
			g = i
		}
		if !ReadsInputsOnly(d.op) {
			in = append([]float32(nil), in...)
		}
		arena.SetBuffer(g, core.BufData, in)
	}
	opts.DataMode, opts.Buffers = true, arena
	rq := request{b: b, op: d.op, root: d.root, bytes: int64(n) * 4, opts: opts}
	res, err := submit(&e.engineShell, e, st, rq, Inline).Wait()
	if err != nil {
		return nil, ClusterResult{}, err
	}
	out := make([][]float32, st.total)
	shard := n / st.total
	for g := range out {
		if !d.sharded {
			out[g] = arena.Buffer(g, d.tag, n)
			continue
		}
		out[g] = make([]float32, n)
		for r := 0; r < st.total; r++ {
			copy(out[g][r*shard:(r+1)*shard], arena.Buffer(g, core.ExchangeTag(r), n)[g*shard:(g+1)*shard])
		}
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
	return e.runData(b, opts, clusterDataOp{op: AllToAll, inputs: inputs, perRank: true, sharded: true})
}
