package collective

import (
	"sort"
	"sync"
	"time"

	"blink/internal/core"
	"blink/internal/topology"
)

// This file is the collective-layer half of the staged planner pipeline
// (internal/core/pipeline.go): per-root packing slots with entry-level
// locking so cold compiles for distinct roots run in parallel, and
// incremental packing repair on reconfiguration. Every packing compiles
// once, on the goroutine that first asks for it.

// packEntry is one root's packing slot in an engineState. The entry-level
// mutex serializes the expensive compile for that root only — the
// state-level mu guards just the map — so cold compiles for different
// roots proceed concurrently, each on the goroutine that asked first.
type packEntry struct {
	mu  sync.Mutex
	p   *core.Packing
	err error
}

// observeStage records one compile-stage latency into the per-stage
// histogram family blink_compile_stage_seconds{stage=...}.
func (e *Engine) observeStage(stage string, seconds float64) {
	e.obsReg.Histogram(`blink_compile_stage_seconds{stage="`+stage+`"}`, nil).Observe(seconds)
}

// entryFor returns (creating) the packing slot for a root on the NVLink or
// PCIe plane.
func (st *engineState) entryFor(plane core.FabricSel, root int) *packEntry {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.packs[plane][root] == nil {
		st.packs[plane][root] = &packEntry{}
	}
	return st.packs[plane][root]
}

// packing resolves the root's packing on the NVLink or PCIe plane,
// compiling it through pipe on first use. It is the one per-root packing
// accessor: plan selection, Packing, Prewarm and cluster members all call it.
func (st *engineState) packing(pipe *core.PlannerPipeline, plane core.FabricSel, root int) (*core.Packing, error) {
	entry := st.entryFor(plane, root)
	entry.mu.Lock()
	defer entry.mu.Unlock()
	if entry.p == nil && entry.err == nil {
		entry.p, _, entry.err = pipe.PackRoot(st.fabrics[plane].Graph, root)
	}
	return entry.p, entry.err
}

// repairPackings seeds the post-fault state with incrementally repaired
// NVLink packings: only trees traversing the failed or degraded links (or
// the evicted device) are re-rooted and re-weighted, packings the fault
// left intact carry over untouched, and any root whose repair cannot reach
// the §3.2.1 rate threshold falls back cleanly to lazy full recompilation.
// Called under reconfigMu, before the new state is published.
func (e *Engine) repairPackings(old, st *engineState) {
	if old.switched() || st.switched() || !old.nvlConnected || !st.nvlConnected {
		return
	}
	vmap := deviceVertexMap(old.topo, st.topo)
	oldG, newG := old.topo.GPUGraph(), st.topo.GPUGraph()
	oldPacks := old.packs[core.FabricNVLink]

	old.mu.Lock()
	roots := make([]int, 0, len(oldPacks))
	for r := range oldPacks {
		roots = append(roots, r)
	}
	old.mu.Unlock()
	sort.Ints(roots)

	for _, root := range roots {
		old.mu.Lock()
		entry := oldPacks[root]
		old.mu.Unlock()
		// TryLock: a cold compile may still hold this root's slot; skip it
		// rather than stall the whole reconfiguration behind one compile.
		if !entry.mu.TryLock() {
			e.mRepairFallbacks.Inc()
			continue
		}
		p, perr := entry.p, entry.err
		entry.mu.Unlock()
		if p == nil || perr != nil {
			continue // nothing worth repairing
		}
		if vmap[root] < 0 {
			continue // root itself was evicted; survivors recompile lazily
		}
		t0 := time.Now()
		out, err := core.RepairPacking(oldG, newG, vmap, p, core.RepairOptions{})
		e.observeStage(core.StageRepair, time.Since(t0).Seconds())
		if err != nil || !out.Repaired {
			e.mRepairFallbacks.Inc()
			continue
		}
		st.mu.Lock()
		st.packs[core.FabricNVLink][vmap[root]] = &packEntry{p: out.Packing}
		st.mu.Unlock()
		e.mRepairs.Inc()
	}
}

// deviceVertexMap maps old-topology GPU vertices to new-topology vertices
// through physical device IDs (-1 = evicted). Link faults preserve the
// vertex set, so the map degenerates to the identity; evictions shift it.
func deviceVertexMap(oldT, newT *topology.Topology) []int {
	pos := make(map[int]int, len(newT.DevIDs))
	for v, d := range newT.DevIDs {
		pos[d] = v
	}
	vmap := make([]int, oldT.NumGPUs)
	for v := range vmap {
		vmap[v] = -1
		if v < len(oldT.DevIDs) {
			if nv, ok := pos[oldT.DevIDs[v]]; ok {
				vmap[v] = nv
			}
		}
	}
	return vmap
}

// Prewarm compiles the packings for the given roots in parallel through the
// pipeline's bounded worker pool (all roots when nil), so a service can pay
// the cold TreeGen cost at startup instead of on the first dispatch of each
// root. Results are identical to lazy compilation — only the latency moves.
func (e *Engine) Prewarm(roots []int) error {
	st := e.st.Load()
	if err := st.machineOnly("Prewarm"); err != nil {
		return err
	}
	if st.switched() {
		return nil // one-hop packings are built at construction
	}
	if roots == nil {
		roots = make([]int, st.topo.NumGPUs)
		for i := range roots {
			roots[i] = i
		}
	}
	plane := st.plane(Blink)
	return core.ParallelMap(len(roots), e.pipe.Workers(), func(i int) error {
		_, err := st.packing(e.pipe, plane, roots[i])
		return err
	})
}
