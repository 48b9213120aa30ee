package core_test

import (
	"math/rand"
	"testing"

	"blink/internal/core"
	"blink/internal/topology"
	"blink/internal/verify"
)

// devVertexMap maps old GPU vertices to new ones through physical device
// IDs (-1 = evicted), mirroring what the collective layer hands
// RepairPacking after an eviction shifts the vertex numbering.
func devVertexMap(oldT, newT *topology.Topology) []int {
	pos := map[int]int{}
	for v, d := range newT.DevIDs {
		pos[d] = v
	}
	vmap := make([]int, oldT.NumGPUs)
	for v, d := range oldT.DevIDs {
		if nv, ok := pos[d]; ok {
			vmap[v] = nv
		} else {
			vmap[v] = -1
		}
	}
	return vmap
}

// Satellite equivalence property: across random fault sequences (link
// losses, link degradations, device evictions), an incrementally repaired
// packing must be capacity-valid on the new graph and achieve a rate no
// more than the §3.2.1 threshold (5%) below a from-scratch recompile — or
// report Repaired=false so the caller falls back cleanly. The repaired
// packing is carried into the next fault, compounding repairs the way a
// long-lived engine would.
func TestRepairEquivalenceRandomFaultSequences(t *testing.T) {
	const seeds = 12
	const stepsPerSeed = 4
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cur := topology.DGX1V()
		root := rng.Intn(cur.NumGPUs)
		p, err := core.GenerateTrees(cur.GPUGraph(), root)
		if err != nil {
			t.Fatalf("seed %d: initial packing: %v", seed, err)
		}
		for step := 0; step < stepsPerSeed; step++ {
			g := cur.GPUGraph()
			var next *topology.Topology
			kind := rng.Intn(4)
			switch {
			case kind == 3 && cur.NumGPUs > 4:
				// Evict a non-root device.
				d := cur.DevIDs[rng.Intn(cur.NumGPUs)]
				if d == cur.DevIDs[root] {
					continue
				}
				next, err = cur.WithoutDevice(d)
			case kind >= 1:
				// Degrade a random NVLink to one unit.
				e := g.Edges[rng.Intn(len(g.Edges))]
				next, err = cur.WithLinkUnits(cur.DevIDs[e.From], cur.DevIDs[e.To], 1)
			default:
				// Remove a random NVLink entirely.
				e := g.Edges[rng.Intn(len(g.Edges))]
				next, err = cur.WithoutLink(cur.DevIDs[e.From], cur.DevIDs[e.To])
			}
			if err != nil {
				continue // derivation rejected the fault (e.g. would disconnect PCIe)
			}
			vmap := devVertexMap(cur, next)
			newRoot := vmap[root]
			if newRoot < 0 {
				t.Fatalf("seed %d step %d: root evicted despite guard", seed, step)
			}
			ng := next.GPUGraph()
			if !ng.StronglyConnectedFrom(newRoot) {
				continue // NVLink plane no longer spans; repair out of scope
			}

			out, err := core.RepairPacking(g, ng, vmap, p, core.RepairOptions{})
			if err != nil {
				t.Fatalf("seed %d step %d: RepairPacking: %v", seed, step, err)
			}
			full, err := core.GenerateTrees(ng, newRoot)
			if err != nil {
				t.Fatalf("seed %d step %d: full recompile: %v", seed, step, err)
			}
			if out.Repaired {
				if err := verify.CheckPacking(ng, out.Packing); err != nil {
					t.Fatalf("seed %d step %d: repaired packing invalid: %v", seed, step, err)
				}
				if out.Packing.Root != newRoot {
					t.Fatalf("seed %d step %d: repaired root %d, want %d", seed, step, out.Packing.Root, newRoot)
				}
				// §3.2.1 threshold, relative to the from-scratch recompile.
				if out.Packing.Rate < full.Rate*(1-0.05)-1e-9 {
					t.Fatalf("seed %d step %d: repaired rate %v below 95%% of recompiled rate %v",
						seed, step, out.Packing.Rate, full.Rate)
				}
				p = out.Packing
			} else {
				// Clean fallback: the caller recompiles.
				p = full
			}
			cur, root = next, newRoot
		}
	}
}

// Repair after an identity-map fault that touches nothing must keep every
// tree (pure carry-over).
func TestRepairNoOpFaultKeepsAllTrees(t *testing.T) {
	m := topology.DGX1V()
	g := m.GPUGraph()
	p, err := core.GenerateTrees(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := core.RepairPacking(g, g, core.IdentityVertexMap(g.N), p, core.RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Repaired {
		t.Fatal("identity repair fell back")
	}
	if out.TreesKept != len(p.Trees) || out.TreesRepaired != 0 || out.TreesDropped != 0 {
		t.Fatalf("identity repair outcome %+v, want all %d trees kept", out, len(p.Trees))
	}
	if out.Packing.Rate < p.Rate-1e-9 {
		t.Fatalf("identity repair lost rate: %v -> %v", p.Rate, out.Packing.Rate)
	}
}
