package simgpu

import (
	"fmt"

	"blink/internal/graph"
	"blink/internal/topology"
)

// Config carries the hardware timing model. Zero values are replaced by
// DefaultConfig entries in NewFabric.
type Config struct {
	// OpOverhead is the fixed cost of issuing one copy op and its
	// completion event (CUDA launch + sync), seconds.
	OpOverhead float64
	// ReduceOverhead is the fixed cost of launching a reduction kernel.
	ReduceOverhead float64
	// ReduceBW is the on-GPU reduction bandwidth in GB/s (how fast a GPU
	// can combine a received chunk into its local buffer).
	ReduceBW float64
	// CopyEff derates nominal link bandwidth for protocol overheads.
	CopyEff float64
	// WireLatency is the per-transfer link/protocol latency in seconds
	// (charged on the link, unlike OpOverhead which is host-side).
	WireLatency float64
	// DisablePeerBase and DisablePeerPerGPU model the latency of
	// cudaDeviceDisablePeerAccess when switching between NVLink and PCIe
	// fabrics (Section 3.4): Tdpa = base + perGPU * nGPUs.
	DisablePeerBase   float64
	DisablePeerPerGPU float64
	// DataMode executes buffer movement (functional verification). When
	// false, ops are timed only.
	DataMode bool
}

// Normalized returns the config with zero fields replaced by their
// defaults, exactly as NewFabric applies them. Two configs with equal
// normalized forms build identical fabrics, so the normalized config is
// the right cache-key component for compiled schedules.
func (c Config) Normalized() Config {
	c.setDefaults()
	return c
}

// DefaultConfig returns the calibration in DESIGN.md §5.
func DefaultConfig() Config {
	return Config{
		OpOverhead:        6e-6,
		ReduceOverhead:    3e-6,
		ReduceBW:          300,
		CopyEff:           0.95,
		WireLatency:       1.5e-6,
		DisablePeerBase:   0.1e-3,
		DisablePeerPerGPU: 0.3e-3,
		DataMode:          false,
	}
}

func (c *Config) setDefaults() {
	d := DefaultConfig()
	if c.OpOverhead == 0 {
		c.OpOverhead = d.OpOverhead
	}
	if c.ReduceOverhead == 0 {
		c.ReduceOverhead = d.ReduceOverhead
	}
	if c.ReduceBW == 0 {
		c.ReduceBW = d.ReduceBW
	}
	if c.CopyEff == 0 {
		c.CopyEff = d.CopyEff
	}
	if c.WireLatency == 0 {
		c.WireLatency = d.WireLatency
	}
	if c.DisablePeerBase == 0 {
		c.DisablePeerBase = d.DisablePeerBase
	}
	if c.DisablePeerPerGPU == 0 {
		c.DisablePeerPerGPU = d.DisablePeerPerGPU
	}
}

// Fabric instantiates a topology as simulator resources: one Link per
// directed graph edge (bandwidth = capacity units x per-unit GB/s x
// efficiency) plus one compute Link per device for reduction kernels.
type Fabric struct {
	Topo *topology.Topology
	Cfg  Config
	// Links is indexed edges-first: Links[e] corresponds to graph edge e of
	// the source graph; Links[len(edges)+d] is device d's reduce engine.
	Links []Link
	// Graph is the graph the fabric was built over (NVLink or PCIe plane).
	Graph *graph.Graph

	// edgeLinks maps a graph edge to the link(s) it occupies. Point-to-point
	// fabrics are 1:1; switch fabrics map each logical edge to the source's
	// up-link and the destination's down-link.
	edgeLinks  [][]int
	reduceBase int
}

// NewFabric builds a fabric over one point-to-point interconnect plane of
// the topology: one link per directed graph edge plus one reduce engine per
// vertex.
func NewFabric(t *topology.Topology, g *graph.Graph, cfg Config) *Fabric {
	cfg.setDefaults()
	f := &Fabric{Topo: t, Cfg: cfg, Graph: g}
	f.edgeLinks = make([][]int, len(g.Edges))
	for _, e := range g.Edges {
		bw := e.Cap * t.LinkBandwidthGBs(e.Type) * cfg.CopyEff
		id := len(f.Links)
		f.Links = append(f.Links, Link{BW: bw, Latency: cfg.WireLatency, Label: fmt.Sprintf("%s %d->%d", e.Type, e.From, e.To)})
		f.edgeLinks[e.ID] = []int{id}
	}
	f.reduceBase = len(f.Links)
	for d := 0; d < g.N; d++ {
		f.Links = append(f.Links, Link{BW: cfg.ReduceBW, Label: fmt.Sprintf("reduce@%d", d)})
	}
	return f
}

// NewSwitchFabric builds a fabric for a switch-attached topology (DGX-2)
// over its logical all-to-all graph: each GPU gets an up-link and a
// down-link at its full attach bandwidth, and every logical edge (u, v)
// occupies both u's up-link and v's down-link, so concurrent transfers
// contend exactly as they do through a non-blocking NVSwitch.
func NewSwitchFabric(t *topology.Topology, lg *graph.Graph, attachUnits float64, cfg Config) *Fabric {
	cfg.setDefaults()
	f := &Fabric{Topo: t, Cfg: cfg, Graph: lg}
	bw := attachUnits * t.LinkBandwidthGBs(graph.NVSwitch) * cfg.CopyEff
	up := make([]int, lg.N)
	down := make([]int, lg.N)
	for d := 0; d < lg.N; d++ {
		up[d] = len(f.Links)
		f.Links = append(f.Links, Link{BW: bw, Latency: cfg.WireLatency, Label: fmt.Sprintf("up@%d", d)})
		down[d] = len(f.Links)
		f.Links = append(f.Links, Link{BW: bw, Latency: cfg.WireLatency, Label: fmt.Sprintf("down@%d", d)})
	}
	f.edgeLinks = make([][]int, len(lg.Edges))
	for _, e := range lg.Edges {
		f.edgeLinks[e.ID] = []int{up[e.From], down[e.To]}
	}
	f.reduceBase = len(f.Links)
	for d := 0; d < lg.N; d++ {
		f.Links = append(f.Links, Link{BW: cfg.ReduceBW, Label: fmt.Sprintf("reduce@%d", d)})
	}
	return f
}

// EdgeLinks returns the link indices occupied by graph edge id.
func (f *Fabric) EdgeLinks(edgeID int) []int { return f.edgeLinks[edgeID] }

// ReduceLink returns the compute-link index for device (vertex) v.
func (f *Fabric) ReduceLink(v int) int { return f.reduceBase + v }
