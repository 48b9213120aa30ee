package core

import (
	"fmt"

	"blink/internal/graph"
)

// The baseline Blink compares against: NCCL-style ring collectives. Ring
// search discovers edge-disjoint NVLink rings over the allocated topology
// (dropping links that do not fit any ring, exactly the under-utilization
// Figures 2 and 4 illustrate); the schedules fall back to PCIe when no
// NVLink ring exists, use double binary trees for small payloads on switch
// fabrics (dbtree.go), and compile onto the same simulated fabric Blink's
// plans run on.

// Ring is a directed Hamiltonian cycle: Verts[i] sends to Verts[i+1 mod n]
// over Edges[i].
type Ring struct {
	Verts []int
	Edges []int
}

// Next returns the successor of vertex v in the ring, with the edge used.
func (r Ring) Next(v int) (int, int, bool) {
	for i, u := range r.Verts {
		if u == v {
			j := (i + 1) % len(r.Verts)
			return r.Verts[j], r.Edges[i], true
		}
	}
	return 0, 0, false
}

// Validate checks ring structure against g.
func (r Ring) Validate(g *graph.Graph) error {
	n := len(r.Verts)
	if n < 2 || len(r.Edges) != n {
		return fmt.Errorf("ring: malformed ring (%d verts, %d edges)", n, len(r.Edges))
	}
	seen := map[int]bool{}
	for i, v := range r.Verts {
		if seen[v] {
			return fmt.Errorf("ring: vertex %d repeated", v)
		}
		seen[v] = true
		e := g.Edges[r.Edges[i]]
		if e.From != v || e.To != r.Verts[(i+1)%n] {
			return fmt.Errorf("ring: edge %d does not connect %d->%d", r.Edges[i], v, r.Verts[(i+1)%n])
		}
	}
	return nil
}

// FindRings greedily extracts a maximal set of edge-disjoint directed
// Hamiltonian cycles covering all vertices of g, respecting per-edge
// capacity (a doubled NVLink edge can host two ring directions). This
// models NCCL's ring construction: each extracted ring operates at one link
// unit; leftover links are simply unused.
func FindRings(g *graph.Graph) []Ring {
	if g.N < 2 {
		return nil
	}
	resid := make([]float64, len(g.Edges))
	for i, e := range g.Edges {
		resid[i] = e.Cap
	}
	var rings []Ring
	for {
		r, ok := findCycle(g, resid)
		if !ok {
			break
		}
		for _, id := range r.Edges {
			resid[id]--
		}
		rings = append(rings, r)
		if len(rings) >= 16 { // safety bound; real fabrics max out at 6
			break
		}
	}
	return rings
}

// findCycle backtracks for one directed Hamiltonian cycle over edges with
// residual capacity >= 1, starting (deterministically) at vertex 0.
func findCycle(g *graph.Graph, resid []float64) (Ring, bool) {
	n := g.N
	visited := make([]bool, n)
	verts := make([]int, 0, n)
	edges := make([]int, 0, n)

	var dfs func(v int) bool
	dfs = func(v int) bool {
		if len(verts) == n {
			// Close the cycle back to the start.
			for _, id := range g.Out(v) {
				if resid[id] >= 1 && g.Edges[id].To == verts[0] {
					edges = append(edges, id)
					return true
				}
			}
			return false
		}
		for _, id := range g.Out(v) {
			e := g.Edges[id]
			if resid[id] < 1 || visited[e.To] {
				continue
			}
			visited[e.To] = true
			verts = append(verts, e.To)
			edges = append(edges, id)
			if dfs(e.To) {
				return true
			}
			visited[e.To] = false
			verts = verts[:len(verts)-1]
			edges = edges[:len(edges)-1]
		}
		return false
	}

	visited[0] = true
	verts = append(verts, 0)
	if dfs(0) {
		return Ring{Verts: verts, Edges: edges}, true
	}
	return Ring{}, false
}
