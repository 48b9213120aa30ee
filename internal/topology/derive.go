package topology

import (
	"fmt"

	"blink/internal/graph"
)

// This file holds the derived-topology constructors behind Blink's
// fault-aware reconfiguration: the scheduler hands a job an allocation, and
// then the fabric underneath it changes — an NVLink link fails outright,
// degrades to fewer usable units, or a GPU is evicted mid-job. Each
// constructor returns a fresh, valid Topology whose Fingerprint differs
// from the source whenever the derived structure differs, so plan caches
// keyed on fingerprints turn over naturally after a reconfiguration.
//
// Derivations are deterministic and position-preserving: degrading a link
// and then restoring it to its original capacity yields a topology with the
// original fingerprint, so a healed flap compiles bit-identical schedules
// to the pristine fabric's and identical derivations on different machines
// hash identically. Note that cached plans under the pristine fingerprint
// do not survive a flap: the fault-time Reconfigure invalidates that
// fingerprint in the (possibly shared) plan cache, so the heal recompiles.

// vertexOf maps a physical device ID to its GPU vertex index.
func (t *Topology) vertexOf(dev int) (int, error) {
	for v := 0; v < t.NumGPUs && v < len(t.DevIDs); v++ {
		if t.DevIDs[v] == dev {
			return v, nil
		}
	}
	return 0, fmt.Errorf("topology: device %d not in %s", dev, t.Name)
}

// WithoutLink returns a copy of the topology with the NVLink connection
// between devices a and b removed entirely — the fabric after that link
// fails. It errors if the topology has no direct a<->b connection (on a
// switch fabric GPUs attach to the switch, not to each other).
func (t *Topology) WithoutLink(a, b int) (*Topology, error) {
	nt, err := t.WithLinkUnits(a, b, 0)
	if err != nil {
		return nil, err
	}
	nt.Name = fmt.Sprintf("%s-linkdown(%d,%d)", t.Name, a, b)
	return nt, nil
}

// WithLinkUnits returns a copy of the topology with the a<->b NVLink
// connection's capacity set to units per direction — a degraded (or, when
// raised back to the original capacity, restored) link. units == 0 removes
// the connection. The replacement happens in place in the edge list, so
// degrading and then restoring a link reproduces the original fingerprint.
func (t *Topology) WithLinkUnits(a, b int, units float64) (*Topology, error) {
	if t.Kind == KindCluster {
		return nil, fmt.Errorf("topology: derive per-server topologies of a cluster, not the cluster itself")
	}
	if units < 0 {
		return nil, fmt.Errorf("topology: negative link capacity %g", units)
	}
	va, err := t.vertexOf(a)
	if err != nil {
		return nil, err
	}
	vb, err := t.vertexOf(b)
	if err != nil {
		return nil, err
	}
	if va == vb {
		return nil, fmt.Errorf("topology: link endpoints are the same device %d", a)
	}
	ng := graph.New(t.G.N)
	copy(ng.Labels, t.G.Labels)
	replacedFwd, replacedRev := false, false
	found := false
	for _, e := range t.G.Edges {
		matchFwd := e.From == va && e.To == vb
		matchRev := e.From == vb && e.To == va
		if matchFwd || matchRev {
			found = true
			if units == 0 {
				continue // link gone
			}
			// Replace the first edge of each direction in place (keeping
			// edge order, and therefore fingerprints, stable under
			// degrade-then-restore); parallel duplicates fold into it.
			if matchFwd && !replacedFwd {
				replacedFwd = true
				ng.AddEdge(e.From, e.To, units, e.Type)
			} else if matchRev && !replacedRev {
				replacedRev = true
				ng.AddEdge(e.From, e.To, units, e.Type)
			}
			continue
		}
		ng.AddEdge(e.From, e.To, e.Cap, e.Type)
	}
	if !found {
		return nil, fmt.Errorf("topology: no link between device %d and %d on %s", a, b, t.Name)
	}
	nt := &Topology{
		Name:    fmt.Sprintf("%s-link(%d,%d,%g)", t.Name, a, b, units),
		Kind:    t.Kind,
		Gen:     t.Gen,
		NumGPUs: t.NumGPUs,
		G:       ng,
		P:       t.P, // PCIe plane unaffected by NVLink faults
		DevIDs:  append([]int(nil), t.DevIDs...),
	}
	return nt, nil
}

// WithoutDevice returns a copy of the topology with device d evicted: the
// GPU vertex and every edge touching it disappear from both interconnect
// planes, and DevIDs shrinks accordingly. It errors when fewer than two
// GPUs would remain (no collective is possible over one GPU).
func (t *Topology) WithoutDevice(d int) (*Topology, error) {
	if t.Kind == KindCluster {
		return nil, fmt.Errorf("topology: derive per-server topologies of a cluster, not the cluster itself")
	}
	if t.Kind == KindDGX2 {
		// The engine rebuilds switch fabrics from the pristine DGX-2
		// runtime and would silently ignore a derived one, scheduling over
		// the evicted GPU; fail loudly instead.
		return nil, fmt.Errorf("topology: switch fabrics (DGX-2) do not support device eviction")
	}
	v, err := t.vertexOf(d)
	if err != nil {
		return nil, err
	}
	if t.NumGPUs <= 2 {
		return nil, fmt.Errorf("topology: evicting device %d would leave fewer than 2 GPUs", d)
	}
	keepGPU := make([]int, 0, t.NumGPUs-1)
	devIDs := make([]int, 0, t.NumGPUs-1)
	for u := 0; u < t.NumGPUs; u++ {
		if u == v {
			continue
		}
		keepGPU = append(keepGPU, u)
		devIDs = append(devIDs, t.DevIDs[u])
	}
	g, p := t.induceGPUs(keepGPU)
	nt := &Topology{
		Name:    fmt.Sprintf("%s-evict(%d)", t.Name, d),
		Kind:    t.Kind,
		Gen:     t.Gen,
		NumGPUs: t.NumGPUs - 1,
		G:       g,
		P:       p,
		DevIDs:  devIDs,
	}
	return nt, nil
}

// WithoutServer returns the cluster after losing server si: the remaining
// induced per-server topologies keep their order, and the NIC fabric is
// rebuilt over them. It errors when fewer than two servers would remain
// (recreate a single-machine communicator instead).
func (c *Cluster) WithoutServer(si int) (*Cluster, error) {
	if si < 0 || si >= len(c.Servers) {
		return nil, fmt.Errorf("topology: server %d out of range [0,%d)", si, len(c.Servers))
	}
	if len(c.Servers) <= 2 {
		return nil, fmt.Errorf("topology: losing server %d would leave fewer than 2 servers; rebuild a single-machine communicator", si)
	}
	nc := &Cluster{NICGBs: c.NICGBs}
	for i, s := range c.Servers {
		if i == si {
			continue
		}
		nc.Servers = append(nc.Servers, s)
	}
	nc.Net = buildNICFabric(nc.Servers, nc.NICGBs)
	return nc, nil
}
