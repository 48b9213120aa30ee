package collective

import (
	"sort"
	"sync"
	"time"

	"blink/internal/core"
	"blink/internal/graph"
	"blink/internal/topology"
)

// This file is the collective-layer half of the staged planner pipeline
// (internal/core/pipeline.go): per-root packing slots with entry-level
// locking so cold compiles for distinct roots run in parallel, the
// approximate-first fast path with background exact refinement swapping
// better frozen plans in through the plan cache's atomic publish, and
// incremental packing repair on reconfiguration.

// rateTiny absorbs float noise when comparing packing rates.
const rateTiny = 1e-9

// packEntry is one root's packing slot in an engineState. The entry-level
// mutex serializes the expensive compile for that root only — the
// state-level mu guards just the map — so cold compiles for different
// roots proceed concurrently through the pipeline's worker pool.
type packEntry struct {
	mu  sync.Mutex
	p   *core.Packing
	err error
	// approx marks p as fast-path output whose exact refinement is still
	// pending or running.
	approx bool
	// pending lists cached plans compiled against the approximate packing;
	// the refinement recompiles and republishes them when its packing wins.
	pending []pendingSwap
}

// pendingSwap remembers everything needed to recompile one cached plan
// against a refined packing and swap the better FrozenPlan in.
type pendingSwap struct {
	key PlanKey
	rq  request
}

// SetFastCompile toggles the approximate-first fast path (default off).
// When on, a cold Blink compile publishes a plan built from the greedy
// ApproxPack packing immediately — typically well under half the exact
// compile latency — while the exact enumerate→minimize→fill pipeline runs
// in the background and swaps a better frozen plan into the cache when it
// wins. Replays in flight keep the plan they resolved; the swap is the
// cache's atomic publish.
func (e *Engine) SetFastCompile(on bool) { e.fastPath.Store(on) }

// WaitRefinements blocks until every scheduled background exact refinement
// has finished (including its plan swaps). Tests and benchmarks use it to
// observe the refined steady state deterministically; production callers
// never need it.
func (e *Engine) WaitRefinements() { e.refineWG.Wait() }

// observeStage records one compile-stage latency into the per-stage
// histogram family blink_compile_stage_seconds{stage=...}.
func (e *engineShell) observeStage(stage string, seconds float64) {
	e.obsReg.Histogram(`blink_compile_stage_seconds{stage="`+stage+`"}`, nil).Observe(seconds)
}

// entryFor returns (creating) the packing slot for a root on the NVLink or
// PCIe plane.
func (st *engineState) entryFor(plane core.FabricSel, root int) *packEntry {
	st.mu.Lock()
	defer st.mu.Unlock()
	m := st.packs[plane]
	entry, ok := m[root]
	if !ok {
		entry = &packEntry{}
		m[root] = entry
	}
	return entry
}

// packing resolves the root's packing on a plane through pipe, compiling it
// exactly on first use: the slot access of a cluster member, which has no
// fast path (packingOn is the Engine's own, with one).
func (st *engineState) packing(pipe *core.PlannerPipeline, plane core.FabricSel, root int) (*core.Packing, error) {
	entry := st.entryFor(plane, root)
	entry.mu.Lock()
	defer entry.mu.Unlock()
	if entry.p == nil && entry.err == nil {
		entry.p, _, entry.err = pipe.PackRoot(st.fabrics[plane].Graph, root)
	}
	return entry.p, entry.err
}

// packingOn resolves (compiling on first use) the tree packing for a root
// on the NVLink or PCIe plane. It reports whether the returned packing is
// fast-path output still awaiting exact refinement, so the caller can
// register compiled plans for the refinement swap.
func (e *Engine) packingOn(st *engineState, plane core.FabricSel, root int) (*core.Packing, bool, error) {
	entry := st.entryFor(plane, root)
	entry.mu.Lock()
	defer entry.mu.Unlock()
	if entry.p != nil || entry.err != nil {
		return entry.p, entry.approx, entry.err
	}
	g := st.fabrics[plane].Graph
	if e.fastPath.Load() && plane == core.FabricNVLink {
		if p, _, err := e.approxPipe.PackRoot(g, root); err == nil {
			entry.p, entry.approx = p, true
			e.mFastCompiles.Inc()
			e.refine(st, entry, g, root)
			return entry.p, true, nil
		}
		// Fast path failed (degenerate capacities, disconnected root): fall
		// through so the exact pipeline reports the authoritative error.
	}
	entry.p, _, entry.err = e.exactPipe.PackRoot(g, root)
	return entry.p, false, entry.err
}

// refine schedules the background exact compile for a fast-path packing.
// The caller holds entry.mu, so the approx flag is still set when the
// goroutine is registered; the refinement itself runs without locks and
// re-takes entry.mu only to swap.
func (e *Engine) refine(st *engineState, entry *packEntry, g *graph.Graph, root int) {
	e.refineWG.Add(1)
	go func() {
		defer e.refineWG.Done()
		e.refineSem <- struct{}{}
		defer func() { <-e.refineSem }()
		exact, _, err := e.exactPipe.PackRoot(g, root)

		entry.mu.Lock()
		cur := entry.p
		better := err == nil && (exact.Rate > cur.Rate+rateTiny ||
			(exact.Rate > cur.Rate-rateTiny && len(exact.Trees) < len(cur.Trees)))
		if better {
			entry.p = exact
		}
		// Refinement is done either way; plans compiled from here on see the
		// final packing, and pending swaps are consumed exactly once.
		entry.approx = false
		pend := entry.pending
		entry.pending = nil
		entry.mu.Unlock()

		if !better || e.st.Load() != st {
			// Greedy already optimal (common on pristine fabrics), or a
			// reconfiguration invalidated this state's plans wholesale.
			return
		}
		for _, ps := range pend {
			// The next dispatch replays the refined schedule, and the disk
			// tier is rewritten so other processes warm-start from the
			// refined packing too.
			if _, _, err := e.publish(st, ps.key, ps.rq); err == nil {
				e.mRefineSwaps.Inc()
			}
		}
	}()
}

// registerPendingSwap records a cached plan against one root's packing slot
// so its refinement republishes the plan. It reports false when the slot is
// no longer awaiting refinement — the caller must then recompile itself,
// because the refinement may already have published a refined plan that the
// caller's approx-derived Put just replaced.
func (e *Engine) registerPendingSwap(st *engineState, root int, ps pendingSwap) bool {
	// Only NVLink packings ever come from the fast path (packingOn).
	entry := st.entryFor(core.FabricNVLink, root)
	entry.mu.Lock()
	defer entry.mu.Unlock()
	if !entry.approx {
		return false
	}
	entry.pending = append(entry.pending, ps)
	return true
}

// finishFastPlan runs after a fast-path-derived plan was cached: it
// registers the plan for a refinement swap on every approximate packing
// that fed it, or — when every such refinement already completed —
// recompiles against the now-exact packings and republishes, so an
// approx-derived schedule can never outlive its refinement.
func (e *Engine) finishFastPlan(st *engineState, approxRoots []int, ps pendingSwap) *CachedPlan {
	registered := false
	for _, r := range approxRoots {
		if e.registerPendingSwap(st, r, ps) {
			registered = true
		}
	}
	if registered {
		return nil
	}
	cp, _, _ := e.publish(st, ps.key, ps.rq) // nil on error: the caller keeps its approx-derived plan
	return cp
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
		p, approx, perr := entry.p, entry.approx, entry.err
		entry.mu.Unlock()
		if p == nil || perr != nil || approx {
			continue // nothing worth repairing; fast-path packings recompile in ~ms
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
// root. With the fast path enabled the approximate packings land first and
// refinements stream in behind. Results are identical to lazy compilation —
// only the latency moves.
func (e *Engine) Prewarm(roots []int) error {
	st := e.st.Load()
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
	return core.ParallelMap(len(roots), e.exactPipe.Workers(), func(i int) error {
		_, _, err := e.packingOn(st, plane, roots[i])
		return err
	})
}
