package ring

import (
	"fmt"

	"blink/internal/core"
	"blink/internal/graph"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

// Simulated NCCL cross-machine AllReduce: one global ring over every GPU in
// the job, ordered server-major. Hops between GPUs on the same server ride
// PCIe peer-to-peer (NCCL cannot keep NVLink rings when the ring must exit
// through a PCIe-attached NIC); hops that cross servers traverse the
// sender's PCIe lane, the source NIC and the destination NIC. This is the
// full discrete-event counterpart of the analytic
// NCCLCrossMachineAllReduceGBs model, and reproduces the paper's
// observation that NCCL's multi-server throughput is bound by
// min(intra-server PCIe, NIC).

// CrossMachineFabric holds the combined multi-server ring fabric.
type CrossMachineFabric struct {
	Fabric *simgpu.Fabric
	Ring   logicalRing
	// TotalGPUs is the number of ranks on the global ring.
	TotalGPUs int
}

// pcieUnitsV100 mirrors the per-lane PCIe capacity used by the hub model
// (~5.5 GB/s over 24 GB/s NVLink units).
const pcieUnitsV100 = 0.23

// NewCrossMachineFabric assembles the fabric and the global ring for a
// cluster. nicGbps is the per-server NIC speed in Gbit/s.
func NewCrossMachineFabric(c *topology.Cluster, nicGbps float64, cfg simgpu.Config) (*CrossMachineFabric, error) {
	if len(c.Servers) < 2 {
		return nil, fmt.Errorf("ring: cross-machine fabric needs >= 2 servers")
	}
	total := c.TotalGPUs()
	if total < 2 {
		return nil, fmt.Errorf("ring: need >= 2 GPUs")
	}
	// Vertices: all GPUs server-major, then one NIC vertex per server.
	g := graph.New(total + len(c.Servers))
	gpuBase := make([]int, len(c.Servers))
	nicV := make([]int, len(c.Servers))
	v := 0
	for si, s := range c.Servers {
		gpuBase[si] = v
		v += s.NumGPUs
	}
	for si := range c.Servers {
		nicV[si] = total + si
	}

	unit := c.Servers[0].LinkBandwidthGBs(graph.NVLink)
	nicUnits := nicGbps / 8.0 / unit

	// Intra-server ring edges: consecutive GPUs p2p over the sender's PCIe
	// lane (single directed edge suffices; the ring fixes direction).
	type hopSpec struct {
		edges []int
	}
	lr := logicalRing{}
	var pendingHops []hopSpec
	for si, s := range c.Servers {
		for gi := 0; gi < s.NumGPUs; gi++ {
			src := gpuBase[si] + gi
			lr.verts = append(lr.verts, src)
			if gi+1 < s.NumGPUs {
				dst := src + 1
				id := g.AddEdge(src, dst, pcieUnitsV100, graph.PCIe)
				pendingHops = append(pendingHops, hopSpec{edges: []int{id}})
				continue
			}
			// Last GPU on this server: hop to the next server's first GPU
			// via PCIe lane -> NIC -> NIC -> (delivery occupies the remote
			// down path implicitly via the remote NIC edge).
			nsi := (si + 1) % len(c.Servers)
			dst := gpuBase[nsi]
			up := g.AddEdge(src, nicV[si], pcieUnitsV100, graph.PCIe)
			wire := g.AddEdge(nicV[si], nicV[nsi], nicUnits, graph.Net)
			down := g.AddEdge(nicV[nsi], dst, pcieUnitsV100, graph.PCIe)
			pendingHops = append(pendingHops, hopSpec{edges: []int{up, wire, down}})
		}
	}
	for _, h := range pendingHops {
		lr.hops = append(lr.hops, h.edges)
	}
	topo := &topology.Topology{
		Name:    fmt.Sprintf("cluster-ring-%dsrv", len(c.Servers)),
		Kind:    topology.KindCluster,
		Gen:     c.Servers[0].Gen,
		NumGPUs: total,
		G:       g,
		P:       graph.New(total + 1),
	}
	return &CrossMachineFabric{
		Fabric:    simgpu.NewFabric(topo, g, cfg),
		Ring:      lr,
		TotalGPUs: total,
	}, nil
}

// BuildCrossMachineAllReducePlan compiles the global-ring AllReduce.
func (cf *CrossMachineFabric) BuildCrossMachineAllReducePlan(bytes int64, opts core.PlanOptions) (*core.Plan, error) {
	return buildRingAllReduce(cf.Fabric, []logicalRing{cf.Ring}, bytes, opts)
}

// BuildCrossMachineBroadcastPlan compiles the global-ring broadcast from
// the given global rank (server-major numbering): the payload pipelines
// down the N-1 hop chain, crossing NICs wherever the ring exits a server.
func (cf *CrossMachineFabric) BuildCrossMachineBroadcastPlan(root int, bytes int64, opts core.PlanOptions) (*core.Plan, error) {
	return buildChainBroadcast(cf.Fabric, []logicalRing{cf.Ring}, root, bytes, opts)
}

// SimulatedCrossMachineAllReduceGBs runs the global-ring AllReduce and
// reports its throughput.
func SimulatedCrossMachineAllReduceGBs(c *topology.Cluster, nicGbps float64, bytes int64, cfg simgpu.Config) (float64, error) {
	cf, err := NewCrossMachineFabric(c, nicGbps, cfg)
	if err != nil {
		return 0, err
	}
	plan, err := cf.BuildCrossMachineAllReducePlan(bytes, core.PlanOptions{})
	if err != nil {
		return 0, err
	}
	return plan.ThroughputGBs()
}
