package collective

import (
	"fmt"
	"time"

	"blink/internal/core"
	"blink/internal/ring"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

// A multi-server cluster is an engineState whose fabric has NIC links. Its
// topo is the flat cross-machine ring's, which numbers every GPU of every
// server server-major, so an Engine over a cluster dispatches, caches,
// observes and stages data exactly as one over a machine; only plan
// selection has a row of its own (clusterPlan). The Blink backend runs the
// three-phase protocol of §3.5 / Figure 10 — per-server tree reduce, NIC
// exchange among partition roots, per-server tree broadcast — as one plan
// over one cluster-wide fabric; the NCCL backend runs the flat cross-machine
// ring the paper compares against.

// ClusterEngine is Engine, under the name the benchmark harness in bench/
// still uses.
//
// Deprecated: use Engine.
type ClusterEngine = Engine

// NewClusterEngine builds an engine over a cluster. Servers must be
// point-to-point machines (DGX-1 class or custom); the paper's multi-server
// protocol targets NIC-attached DGX-1V boxes.
func NewClusterEngine(c *topology.Cluster, cfg simgpu.Config) (*Engine, error) {
	st, err := newClusterState(c, cfg, nil)
	if err != nil {
		return nil, err
	}
	return newEngine(st, cfg), nil
}

// newClusterState builds the per-server states and the NIC fabrics for a
// cluster. reuse maps surviving server topologies to their existing states
// (nil for a fresh build): a reconfiguration that only removes a server
// keeps the survivors' states — and the tree packings they have already
// generated — instead of re-deriving them.
func newClusterState(c *topology.Cluster, cfg simgpu.Config, reuse map[*topology.Topology]*engineState) (*engineState, error) {
	if len(c.Servers) < 2 {
		return nil, fmt.Errorf("collective: cluster needs >= 2 servers")
	}
	st := &engineState{cluster: c, fingerprint: c.Fingerprint()}
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
		st.servers = append(st.servers, srv)
		st.members = append(st.members, srv.fabrics[srv.plane(Blink)])
	}
	st.wide = core.NewClusterFabric(c, st.members, cfg)
	var err error
	if st.flat, err = ring.NewCrossMachineFabric(c, c.NICGBs*8, cfg); err != nil {
		return nil, err
	}
	st.topo = st.flat.Fabric.Topo
	return st, nil
}

// RemoveServer shrinks a cluster engine after losing server si (indices
// follow the current server order): the surviving servers keep their ranks
// (renumbered server-major) and their packings, and every later collective
// compiles schedules for the shrunken NIC fabric. At least two servers must
// survive. Dispatches in flight finish against the old state; plans cached
// under the old cluster fingerprint are dropped. On error the engine keeps
// its current state.
func (e *Engine) RemoveServer(si int) error {
	e.reconfigMu.Lock()
	defer e.reconfigMu.Unlock()
	start := time.Now()
	old := e.st.Load()
	if old.cluster == nil {
		return fmt.Errorf("collective: RemoveServer needs a cluster engine")
	}
	// Deriving the shrunken cluster from the current state happens under
	// the lock, so two concurrent losses compose instead of one winning.
	nc, err := old.cluster.WithoutServer(si)
	if err != nil {
		return err
	}
	reuse := make(map[*topology.Topology]*engineState, len(old.servers))
	for i, srv := range old.servers {
		reuse[old.cluster.Servers[i]] = srv
	}
	st, err := newClusterState(nc, e.Cfg, reuse)
	if err != nil {
		return err
	}
	e.st.Store(st)
	e.reconfigured(old.fingerprint, st.fingerprint, start)
	return nil
}

// ServerSizes returns the per-server GPU counts: one per server of a
// cluster, and the allocation's size alone on one machine.
func (e *Engine) ServerSizes() []int {
	st := e.st.Load()
	if st.cluster == nil {
		return []int{st.topo.NumGPUs}
	}
	out := make([]int, len(st.servers))
	for i, srv := range st.servers {
		out[i] = srv.topo.NumGPUs
	}
	return out
}

// clusterPlan is plan selection's cluster row. Blink builds the three-phase
// plan over each server's Blink data plane, reusing the packings the member
// states hold and compiling the rest through pipe; NCCL builds the flat
// ring over every GPU, PCIe within servers and NICs between them. Every
// other request — an op beyond AllReduce, Broadcast and AllToAll, AllToAll
// on the ring, the hybrid broadcast — has no cluster schedule and is
// refused.
func (st *engineState) clusterPlan(pipe *core.PlannerPipeline, key PlanKey, rq request, po core.PlanOptions) (plan *core.Plan, strategy string, err error) {
	switch {
	case key.Hybrid:
		return nil, "", fmt.Errorf("collective: hybrid broadcast spans one machine's two planes; a cluster has no hybrid schedule")
	case rq.op != AllReduce && rq.op != Broadcast && rq.op != AllToAll:
		return nil, "", fmt.Errorf("collective: cluster collectives support AllReduce, Broadcast and AllToAll, not %v", rq.op)
	case rq.b != Blink && rq.op == AllToAll:
		return nil, "", fmt.Errorf("collective: cluster AllToAll requires the Blink backend")
	case rq.b != Blink && rq.op == AllReduce:
		plan, err = st.flat.BuildCrossMachineAllReducePlan(rq.bytes, po)
		return plan, "flat-ring", err
	case rq.b != Blink:
		plan, err = st.flat.BuildCrossMachineBroadcastPlan(rq.root, rq.bytes, po)
		return plan, "flat-ring", err
	}
	packFor := func(si, r int) (*core.Packing, error) {
		return st.servers[si].packing(pipe, st.servers[si].plane(Blink), r)
	}
	switch rq.op {
	case AllReduce:
		plan, err = core.BuildThreePhaseAllReduce(st.cluster, st.members, st.wide, packFor, rq.bytes, po)
	case Broadcast:
		plan, err = core.BuildThreePhaseBroadcast(st.cluster, st.members, st.wide, packFor, rq.root, rq.bytes, po)
	default:
		plan, err = core.BuildThreePhaseAllToAll(st.cluster, st.members, st.wide, packFor, rq.bytes, po)
		return plan, "3-phase+alltoall", err
	}
	return plan, "3-phase", err
}
