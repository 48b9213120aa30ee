// Package topology models the multi-GPU server fabrics Blink targets:
// DGX-1P (P100, hybrid cube-mesh, 4 NVLink ports per GPU), DGX-1V (V100,
// 6 ports with doubled edges), DGX-2 (16 V100s behind NVSwitch), the PCIe
// hub hierarchy shared by all of them, and multi-server clusters with NICs.
//
// A Topology couples a capacity graph (abstract units: one NVLink port
// == 1.0) with the hardware generation that determines the unit bandwidth,
// and supports inducing the sub-topology visible to a scheduler allocation,
// mirroring Blink's runtime topology probing.
package topology

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"blink/internal/graph"
)

// Gen identifies the NVLink hardware generation, which sets unit bandwidth.
type Gen uint8

const (
	// GenP100 is NVLink Gen1 (DGX-1P): ~20 GB/s per direction per link.
	GenP100 Gen = iota
	// GenV100 is NVLink Gen2 (DGX-1V, DGX-2): ~24 GB/s per direction.
	GenV100
)

// String names the generation.
func (g Gen) String() string {
	if g == GenP100 {
		return "P100"
	}
	return "V100"
}

// Kind distinguishes the fabric families with specialized handling.
type Kind uint8

const (
	// KindDGX1 is a point-to-point hybrid cube-mesh server.
	KindDGX1 Kind = iota
	// KindDGX2 is a switch-attached server (NVSwitch).
	KindDGX2
	// KindCluster is a multi-server topology with NIC links.
	KindCluster
	// KindCustom is anything user-assembled.
	KindCustom
)

// Topology is a hardware interconnect description. GPUs occupy vertices
// [0, NumGPUs); relay vertices (PCIe hubs, NVSwitch planes) follow.
type Topology struct {
	Name    string
	Kind    Kind
	Gen     Gen
	NumGPUs int
	// G holds NVLink/NVSwitch edges plus relay vertices. PCIe edges are kept
	// in a separate parallel graph (P) because Blink plans the two fabrics
	// independently (Section 3.4) and the NVIDIA driver cannot mix them.
	G *graph.Graph
	P *graph.Graph
	// DevIDs maps GPU vertex -> physical device ID (after Induce).
	DevIDs []int
}

// NVLinkCaps describes one undirected NVLink connection: endpoints and the
// number of physical links (capacity units) between them.
type NVLinkCaps struct {
	A, B  int
	Links float64
}

// dgx1PEdges returns the DGX-1P hybrid cube-mesh: two fully-connected quads
// {0..3} and {4..7} plus cross links i <-> i+4. Every GPU uses exactly its
// four NVLink Gen1 ports.
func dgx1PEdges() []NVLinkCaps {
	var es []NVLinkCaps
	for q := 0; q < 2; q++ {
		base := q * 4
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				es = append(es, NVLinkCaps{A: base + i, B: base + j, Links: 1})
			}
		}
	}
	for i := 0; i < 4; i++ {
		es = append(es, NVLinkCaps{A: i, B: i + 4, Links: 1})
	}
	return es
}

// dgx1VEdges returns the DGX-1V topology (as on AWS p3.16xlarge): the
// cube-mesh of the DGX-1P with six connections doubled so that every V100
// uses exactly its six NVLink Gen2 ports.
func dgx1VEdges() []NVLinkCaps {
	double := map[[2]int]bool{
		{0, 3}: true, {0, 4}: true,
		{1, 2}: true, {1, 5}: true,
		{2, 3}: true, {4, 7}: true,
		{5, 6}: true, {6, 7}: true,
	}
	var es []NVLinkCaps
	for _, e := range dgx1PEdges() {
		key := [2]int{e.A, e.B}
		links := 1.0
		if double[key] {
			links = 2.0
		}
		es = append(es, NVLinkCaps{A: e.A, B: e.B, Links: links})
	}
	return es
}

// buildDGX1 assembles a DGX-1 class topology from undirected NVLink specs
// plus the standard PCIe hub hierarchy.
func buildDGX1(name string, gen Gen, edges []NVLinkCaps) *Topology {
	const n = 8
	g := graph.New(n)
	for _, e := range edges {
		g.AddBiEdge(e.A, e.B, e.Links, graph.NVLink)
	}
	t := &Topology{Name: name, Kind: KindDGX1, Gen: gen, NumGPUs: n, G: g}
	t.P = pcieHub(n, gen)
	t.DevIDs = identityIDs(n)
	return t
}

// pcieHub models the PCIe/QPI complex as a relay vertex (index n) with
// bidirectional per-GPU links. Capacities are in NVLink units so that the
// packing and the simulator agree: with V100 NVLink at ~24 GB/s per
// direction and measured PCIe broadcast fallback around 5 GB/s, a PCIe path
// is worth roughly 0.25 units; the hub relay bounds total PCIe traffic.
func pcieHub(n int, gen Gen) *graph.Graph {
	p := graph.New(n + 1)
	hub := n
	p.Labels[hub] = -1
	unit := pcieUnits(gen)
	for i := 0; i < n; i++ {
		p.AddBiEdge(i, hub, unit, graph.PCIe)
	}
	return p
}

// pcieUnits converts PCIe bandwidth into NVLink capacity units for the
// given generation.
func pcieUnits(gen Gen) float64 {
	if gen == GenP100 {
		return 0.28 // ~5.5 GB/s over 20 GB/s links
	}
	return 0.23 // ~5.5 GB/s over 24 GB/s links
}

// DGX1P returns the 8-GPU DGX-1 (P100) topology.
func DGX1P() *Topology { return buildDGX1("DGX-1P", GenP100, dgx1PEdges()) }

// DGX1V returns the 8-GPU DGX-1 (V100) topology.
func DGX1V() *Topology { return buildDGX1("DGX-1V", GenV100, dgx1VEdges()) }

// DGX2LinksPerGPU is the number of NVLink ports each V100 uses to attach to
// the NVSwitch fabric on a DGX-2.
const DGX2LinksPerGPU = 6

// DGX2 returns the 16-GPU DGX-2: every GPU attaches to a non-blocking
// NVSwitch relay vertex with 6 NVLink Gen2 ports (~150 GB/s per direction).
func DGX2() *Topology {
	const n = 16
	g := graph.New(n + 1)
	sw := n
	g.Labels[sw] = -1
	for i := 0; i < n; i++ {
		g.AddBiEdge(i, sw, DGX2LinksPerGPU, graph.NVSwitch)
	}
	t := &Topology{Name: "DGX-2", Kind: KindDGX2, Gen: GenV100, NumGPUs: n, G: g}
	t.P = pcieHub(n, GenV100)
	t.DevIDs = identityIDs(n)
	return t
}

// DGX2Logical returns the DGX-2 fabric as the logical all-to-all graph the
// scheduler plans over: every ordered GPU pair is connected "through the
// switch" with the full per-GPU attach capacity. Physical contention (each
// GPU owns one 6-link up path and one 6-link down path) is enforced by the
// simulator's switch fabric, which maps each logical edge onto both attach
// links.
func DGX2Logical() *graph.Graph {
	const n = 16
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				g.AddEdge(i, j, DGX2LinksPerGPU, graph.NVSwitch)
			}
		}
	}
	return g
}

func identityIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// Induce returns the sub-topology visible to a job allocated the given
// physical GPU IDs, mirroring Blink's runtime topology probe: only links
// with both endpoints inside the allocation (plus relay vertices) remain.
// Device IDs are resolved through DevIDs, so Induce composes with derived
// topologies (WithoutDevice keeps the surviving physical IDs).
func (t *Topology) Induce(devs []int) (*Topology, error) {
	if len(devs) == 0 {
		return nil, fmt.Errorf("topology: empty allocation")
	}
	seen := map[int]bool{}
	verts := make([]int, 0, len(devs))
	for _, d := range devs {
		v, err := t.vertexOf(d)
		if err != nil {
			return nil, err
		}
		if seen[d] {
			return nil, fmt.Errorf("topology: duplicate device %d", d)
		}
		seen[d] = true
		verts = append(verts, v)
	}
	sort.Ints(verts)
	ids := make([]int, len(verts))
	for i, v := range verts {
		ids[i] = t.DevIDs[v]
	}

	ng, np := t.induceGPUs(verts)
	nt := &Topology{
		Name:    fmt.Sprintf("%s%v", t.Name, ids),
		Kind:    t.Kind,
		Gen:     t.Gen,
		NumGPUs: len(verts),
		G:       ng,
		P:       np,
		DevIDs:  ids,
	}
	return nt, nil
}

// induceGPUs returns both planes induced on the GPU vertices gpus and every
// relay vertex (PCIe hubs, CPUs), in that order.
func (t *Topology) induceGPUs(gpus []int) (g, p *graph.Graph) {
	plane := func(g *graph.Graph) *graph.Graph {
		keep := append([]int(nil), gpus...)
		for v := t.NumGPUs; v < g.N; v++ {
			keep = append(keep, v)
		}
		return g.InducedSubgraph(keep)
	}
	return plane(t.G), plane(t.P)
}

// Fingerprint returns a stable hash of everything that determines schedule
// generation for this topology: fabric kind, hardware generation, the
// allocated device set, and both interconnect planes' edge structure. Two
// topologies with equal fingerprints compile identical schedules, so the
// fingerprint is usable as a schedule-cache key component shared across
// communicators.
func (t *Topology) Fingerprint() string {
	h := fnv.New64a()
	w := func(vals ...int64) {
		var b [8]byte
		for _, v := range vals {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	w(int64(t.Kind), int64(t.Gen), int64(t.NumGPUs))
	for _, d := range t.DevIDs {
		w(int64(d))
	}
	for _, g := range []*graph.Graph{t.G, t.P} {
		if g == nil {
			w(-1)
			continue
		}
		w(int64(g.N), int64(len(g.Edges)))
		for _, e := range g.Edges {
			w(int64(e.From), int64(e.To), int64(e.Type), int64(math.Float64bits(e.Cap)))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// NVLinkGraph returns the point-to-point fabric restricted to GPU vertices
// and whatever relays it contains. For DGX-1 machines this has no relays.
func (t *Topology) NVLinkGraph() *graph.Graph { return t.G }

// PCIeGraph returns the PCIe hub fabric.
func (t *Topology) PCIeGraph() *graph.Graph { return t.P }

// GPUGraph returns only the GPU-to-GPU portion of G (dropping relay
// vertices), which is the graph NCCL's ring search operates on for DGX-1.
func (t *Topology) GPUGraph() *graph.Graph {
	verts := make([]int, t.NumGPUs)
	for i := range verts {
		verts[i] = i
	}
	return t.G.InducedSubgraph(verts)
}

// UniqueAllocationClasses bins all k-GPU allocations of this machine by
// induced-topology isomorphism, as the paper does when reporting "unique
// topology settings" (46 on DGX-1V, 14 on DGX-1P across 3..8 GPUs).
func (t *Topology) UniqueAllocationClasses(k int) []graph.UniqueClass {
	return graph.UniqueInducedClasses(t.GPUGraph(), k)
}

// UniqueConnectedAllocationClasses is UniqueAllocationClasses restricted to
// allocations whose induced NVLink graph is connected — the configurations
// the paper's Figures 15, 16 and 17 enumerate (disconnected allocations
// force both NCCL and Blink entirely onto PCIe, so the paper folds them
// out of the NVLink comparison).
func (t *Topology) UniqueConnectedAllocationClasses(k int) []graph.UniqueClass {
	gg := t.GPUGraph()
	all := t.UniqueAllocationClasses(k)
	out := all[:0]
	for _, c := range all {
		if gg.InducedSubgraph(c.Representative).Connected() {
			out = append(out, c)
		}
	}
	return out
}

// LinkBandwidthGBs returns the per-direction bandwidth (GB/s) of one
// capacity unit of the given edge type on this topology: 20 for a P100's
// NVLink and PCIe (its PCIe capacity units already scale PCIe down), 24 for
// every other unit, Net edges' included (their capacities are expressed in
// the same units).
func (t *Topology) LinkBandwidthGBs(ty graph.EdgeType) float64 {
	if t.Gen == GenP100 && (ty == graph.NVLink || ty == graph.NVSwitch || ty == graph.PCIe) {
		return 20
	}
	return 24
}
