package core

import "blink/internal/graph"

// Theoretical rate models backing Figure 14: broadcast rates in link units
// (one NVLink direction == 1.0) for ring packing versus tree packing.

// PCIeRingUnits is the paper's Figure 14 approximation: a PCIe fallback
// ring is worth half an NVLink ring.
const PCIeRingUnits = 0.5

// TheoreticalRates returns the broadcast rate achieved by NCCL-style rings
// and by Blink's tree packing on graph g from the given root, in link
// units. When no NVLink ring exists, NCCL falls back to one PCIe ring.
func TheoreticalRates(g *graph.Graph, root int) (nccl, blink float64, err error) {
	rings := FindRings(g)
	if len(rings) > 0 {
		nccl = float64(len(rings))
	} else {
		nccl = PCIeRingUnits
	}
	p, err := GenerateTrees(g, root)
	if err != nil {
		return 0, 0, err
	}
	return nccl, p.Rate, nil
}

// LowerBoundMessages returns the minimum messages per process for
// broadcast and AllReduce over N processes (Patarasuk & Yuan, §3.3):
// ceil((N-1)/N) and 2*ceil((N-1)/N) respectively, in payload units.
func LowerBoundMessages(n int) (broadcast, allreduce float64) {
	if n <= 1 {
		return 0, 0
	}
	f := float64(n-1) / float64(n)
	return f, 2 * f
}

// NCCLCrossMachineAllReduceGBs models NCCL's multi-server AllReduce
// throughput (Figure 22b): a single global ring whose per-hop bandwidth is
// bottlenecked by min(NIC, intra-server PCIe), scaled by the ring
// AllReduce's N/(2(N-1)) algorithmic factor. NCCL crosses machines via
// PCIe-attached NICs, so faster NICs stop helping once PCIe binds.
func NCCLCrossMachineAllReduceGBs(nicGBs, pcieGBs float64, totalGPUs int) float64 {
	bw := nicGBs
	if pcieGBs < bw {
		bw = pcieGBs
	}
	if totalGPUs <= 1 {
		return bw
	}
	n := float64(totalGPUs)
	return bw * n / (2 * (n - 1))
}

// BlinkCrossMachineAllReduceGBs models Blink's three-phase AllReduce upper
// bound for the same projection: phase 2 moves (n-1)/n of the data over
// NICs while phases 1 and 3 ride NVLink; throughput approaches the NIC rate
// until intra-server spanning trees bind.
func BlinkCrossMachineAllReduceGBs(nicGBs, nvlinkTreeGBs float64, servers int) float64 {
	if servers <= 1 {
		return nvlinkTreeGBs
	}
	s := float64(servers)
	nic := nicGBs * s / (2 * (s - 1))
	if nvlinkTreeGBs < nic {
		return nvlinkTreeGBs
	}
	return nic
}
