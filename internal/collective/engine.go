// Package collective is the user-facing runtime of the reproduction: it
// wires topology probing, tree generation, schedule compilation and the
// simulated fabric into NCCL-style collective calls, for both the Blink
// backend (packed spanning trees, one-hop trees, hybrid transfers) and the
// NCCL baseline (NVLink rings with PCIe fallback, double binary trees).
package collective

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blink/internal/core"
	"blink/internal/obs"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

// Backend selects the scheduling strategy.
type Backend int

const (
	// Blink packs spanning trees (§3) and generates chunked pipelined
	// schedules (§4).
	Blink Backend = iota
	// NCCL models the ring/double-binary-tree baseline.
	NCCL
)

// String names the backend.
func (b Backend) String() string {
	if b == Blink {
		return "Blink"
	}
	return "NCCL"
}

// Op identifies a collective primitive.
type Op int

const (
	Broadcast Op = iota
	Gather
	AllReduce
	AllGather
	ReduceScatter
	Reduce
	Scatter
	// AllToAll exchanges a distinct bytes/N shard between every rank pair.
	AllToAll
	// SendRecv forwards one payload along an ordered chain of ranks
	// (Options.Chain), the building block of pipeline parallelism.
	SendRecv
	// NeighborExchange sends each rank's payload to its listed neighbors
	// (Options.Neighbors), the halo-exchange pattern.
	NeighborExchange
)

// String names the op.
func (o Op) String() string {
	names := [...]string{"Broadcast", "Gather", "AllReduce", "AllGather", "ReduceScatter", "Reduce", "Scatter", "AllToAll", "SendRecv", "NeighborExchange"}
	if o >= 0 && int(o) < len(names) {
		return names[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// DBTreeThresholdBytes is the payload size below which NCCL 2.4 prefers
// double binary trees over rings on switch fabrics.
const DBTreeThresholdBytes = 512 << 10

// Result reports one collective execution, on one machine or a cluster.
type Result struct {
	Seconds       float64
	Bytes         int64
	ThroughputGBs float64
	// Strategy describes what was actually scheduled ("trees", "rings",
	// "pcie-ring", "one-hop", "db-tree", "hybrid", "3-phase", "flat-ring");
	// "hybrid" is a Blink Broadcast whose trial kept the §3.4 split.
	Strategy string
	// Phase1..3 and Partitions are the three-phase timing breakdown of a
	// cluster collective under the Blink backend; zero on one machine and on
	// the flat NCCL ring, which have no phase structure. The phases overlap
	// chunk by chunk, so each boundary is when that phase's last op ended:
	// Phase1 is when phase 1's did, Phase1+Phase2 when phase 2's (or phase
	// 1's, if later) did, and Phase1+Phase2+Phase3 is Seconds.
	Phase1, Phase2, Phase3 float64
	Partitions             int
}

// Options tunes a collective call.
type Options struct {
	// ChunkBytes overrides the pipelining chunk. 0 is auto: Blink's tree
	// Broadcast, Reduce and AllReduce on NVLink or PCIe take the chunk that
	// pipelines their own trees fastest, modelled and then simulated. The
	// AllReduce then takes the rank-rooted shape, and a Broadcast on the
	// NVLink plane of a machine with a PCIe plane the §3.4 hybrid (PCIe
	// trees alongside the NVLink ones, split by Equation 8), if it
	// simulates faster still. Every other schedule takes a sixteenth of the
	// payload, at most 2 MiB (core.PlanOptions.ChunkBytes). An override
	// keeps the single-root NVLink-only schedule.
	ChunkBytes int64
	// DataMode moves real data (functional verification).
	DataMode bool
	// Chain is the ordered rank sequence of a SendRecv pipeline (required
	// for op SendRecv, ignored otherwise).
	Chain []int
	// Neighbors is the per-rank send list of a NeighborExchange (required
	// for op NeighborExchange, ignored otherwise): rank v sends its payload
	// to every rank in Neighbors[v].
	Neighbors [][]int
	// Buffers is the per-call buffer arena a data-mode dispatch executes
	// against: inputs are installed into it before the call and results read
	// from it after. It is not part of the plan-cache key — the same frozen
	// schedule serves every arena. Nil with DataMode falls back to a
	// throwaway arena (timing only).
	Buffers *simgpu.BufferSet
	// Tenant routes the dispatch through the tenant's QoS lane — admission
	// verdict, quotas, priority — and attributes it to the tenant's cache
	// ledger and cache partition (set by the tenant entry points; nil for
	// untenanted calls). Not part of the plan-cache key.
	Tenant *Tenant
}

// engineState is everything an Engine derives from its topology: fabrics,
// lazily built packings and rings, and the schedule-cache fingerprint. The
// whole bundle swaps atomically on Reconfigure, so dispatches in flight on
// the old state finish against a consistent snapshot while new dispatches
// compile against the post-fault fabric. A multi-server cluster is a state
// too (cluster.go): its topo numbers every GPU of every server, so ranks,
// range checks and data-mode staging are the same on one machine and many.
type engineState struct {
	topo *topology.Topology
	// machine/devs are what the state was probed from, kept so a
	// reconfiguration (a derived machine after a link fault, or a shrunken
	// device set after an eviction) can default the unchanged half.
	machine *topology.Topology
	devs    []int

	// mu guards the lazily built scheduling state below (packing slot maps,
	// rings). Concurrent cold calls for one root still do the expensive
	// packing work exactly once — that dedup moved to the per-root slot
	// locks in compile.go so it no longer serializes unrelated roots.
	mu sync.Mutex

	// fabrics holds the state's interconnect planes by selector: NVLink and
	// PCIe on a point-to-point machine (DGX-1 class), the switch fabric alone
	// on a DGX-2.
	fabrics [3]*simgpu.Fabric
	// packs holds the NVLink and PCIe planes' packings in per-root slots
	// with entry-level locks (compile.go), so st.mu is held only for map
	// access and cold compiles for distinct roots run in parallel.
	packs [2]map[int]*packEntry
	// und holds the NVLink and PCIe planes' undirected AllReduce packings.
	und       [2]core.Undirected
	rings     []core.Ring
	ringsDone bool
	// oneHop is the switch plane's precomputed per-root one-hop packing set.
	oneHop []*core.Packing

	// fingerprint is the induced topology's schedule-cache identity.
	fingerprint string
	// nvlConnected caches whether the allocation's NVLink subgraph is
	// connected (switch fabrics always are).
	nvlConnected bool

	// cluster is set on a multi-server state, whose planes are the fields
	// below instead of the machine planes above. servers holds each member's
	// state (planes, per-root packing slots), members their Blink data
	// planes, wide the one fabric the three-phase plans run over — those
	// planes' link tables followed by the NIC links (core.NewClusterFabric) —
	// and flat the NCCL baseline's cross-machine ring.
	cluster *topology.Cluster
	servers []*engineState
	members []*simgpu.Fabric
	wide    *simgpu.Fabric
	flat    *core.CrossMachineFabric
}

// Engine is a collective runtime bound to one induced topology or one
// multi-server cluster.
//
// An Engine is safe for concurrent use: any number of goroutines may call
// Run / RunMany / Packing simultaneously — including concurrently with
// Reconfigure, which swaps the engine onto a new (typically degraded)
// topology. All topology-derived state lives in an immutable-once-published
// engineState behind an atomic pointer; compiled schedules live in an LRU
// PlanCache as immutable FrozenPlans that replay without mutation. Data-
// mode dispatches run fully in parallel too: each call executes against its
// own simgpu.BufferSet (Options.Buffers), so no execution state is shared
// between calls.
type Engine struct {
	Cfg simgpu.Config

	// st is the current topology-derived state; Load it once per dispatch.
	st atomic.Pointer[engineState]

	// reconfigMu serializes reconfigurations: each one folds its change
	// into the state the previous one published, so concurrent faults
	// (link down + eviction) compose instead of the last write silently
	// discarding the others. Dispatches never take this lock.
	reconfigMu sync.Mutex

	// id uniquely identifies the engine; data-mode plan keys carry it
	// because their Exec closures encode this engine's geometry.
	id uint64
	// cfgKey is the normalized timing model, part of every plan key.
	cfgKey simgpu.Config
	// cache holds compiled schedules; replaceable via SetPlanCache so many
	// engines can share one cache.
	cache *PlanCache

	// svc is the optional remote planning service (blinkd) consulted after
	// both cache tiers miss and before compiling locally; a fetch or decode
	// failure falls back to the local compile, so the service can only ever
	// remove latency, not availability.
	svc PlanService

	// obsReg is the engine's metrics registry: cache, scheduler and dispatch
	// metrics all land here. It exists from construction — an unread
	// registry costs a few atomic adds per dispatch.
	obsReg *obs.Registry
	// tl is the optional per-op span timeline, nil until EnableTimeline;
	// Timeline.Begin is nil-safe and then returns a no-op recorder.
	tl atomic.Pointer[obs.Timeline]
	// Registry-resolved dispatch metric handles (hot path: pure atomics).
	mCompiles, mReplays, mReplans *obs.Counter
	mReplanSeconds                *obs.Histogram
	// opHists caches opHist's handle per op kind, filled on first use.
	opHists [NeighborExchange + 1]atomic.Pointer[obs.Histogram]
	// Repair-outcome counters (compile.go).
	mRepairs, mRepairFallbacks *obs.Counter
	// Remote-planner outcome counters.
	mServiceHits, mServiceErrors *obs.Counter
	// pipe is the planner pipeline every packing compiles through; its stage
	// latencies land in the engine's registry.
	pipe *core.PlannerPipeline

	// async is the scheduler's stream configuration behind RunAsync; qos its
	// lane configuration behind tenant dispatch. Both start on first use, so
	// engines that never go async or multi-tenant pay nothing.
	async lazy[asyncConfig]
	qos   lazy[QoSConfig]
}

// newEngineState probes the machine for the allocated devices and builds
// the full topology-derived state bundle. A communicator's allocation needs
// at least minGPUs = 2; only a member server of a cluster state (minGPUs 1)
// may hold a single GPU.
func newEngineState(machine *topology.Topology, devs []int, cfg simgpu.Config, minGPUs int) (*engineState, error) {
	st := &engineState{machine: machine, devs: append([]int(nil), devs...)}
	if machine.Kind == topology.KindDGX2 {
		t, _, packs, fab, err := core.NewDGX2Runtime(cfg)
		if err != nil {
			return nil, err
		}
		st.topo = t
		st.oneHop = packs
		st.fabrics[core.FabricSwitch] = fab
		st.fingerprint = t.Fingerprint()
		st.nvlConnected = true
		return st, nil
	}
	ind, err := machine.Induce(devs)
	if err != nil {
		return nil, err
	}
	if ind.NumGPUs < minGPUs {
		return nil, fmt.Errorf("collective: allocation has %d device(s); a communicator needs at least %d", ind.NumGPUs, minGPUs)
	}
	st.topo = ind
	st.fabrics[core.FabricNVLink] = simgpu.NewFabric(ind, ind.GPUGraph(), cfg)
	st.fabrics[core.FabricPCIe] = simgpu.NewFabric(ind, ind.PCIeGraph(), cfg)
	st.packs = [2]map[int]*packEntry{{}, {}}
	st.fingerprint = ind.Fingerprint()
	st.nvlConnected = ind.GPUGraph().Connected()
	return st, nil
}

// switched reports whether the state is a switch fabric (DGX-2 class).
func (st *engineState) switched() bool { return st.fabrics[core.FabricSwitch] != nil }

// plane selects the interconnect plane a backend's schedules run over: the
// switch fabric on a DGX-2; otherwise NVLink, unless the backend cannot use
// it — Blink needs the allocation's NVLink subgraph connected, NCCL needs an
// NVLink ring (Figure 2b) — and falls back to PCIe.
func (st *engineState) plane(b Backend) core.FabricSel {
	switch {
	case st.switched():
		return core.FabricSwitch
	case b == Blink && st.nvlConnected, b != Blink && len(st.ncclRings()) > 0:
		return core.FabricNVLink
	}
	return core.FabricPCIe
}

// NewEngine probes the machine for the allocated devices and prepares a
// runtime. For switch topologies devs must cover the full machine (partial
// DGX-2 allocations see a uniform fabric anyway). Like Reconfigure and
// ReconfigureExclude, it refuses an allocation of fewer than two devices.
func NewEngine(machine *topology.Topology, devs []int, cfg simgpu.Config) (*Engine, error) {
	st, err := newEngineState(machine, devs, cfg, 2)
	if err != nil {
		return nil, err
	}
	return newEngine(st, cfg), nil
}

// engineIDs hands every engine a distinct nonzero identity.
var engineIDs atomic.Uint64

// newEngine publishes st in a new engine with its identity, registry and
// dispatch metrics, its planner pipeline, and a private, instrumented plan
// cache of the default capacity.
func newEngine(st *engineState, cfg simgpu.Config) *Engine {
	e := &Engine{Cfg: cfg, id: engineIDs.Add(1), cfgKey: cfg.Normalized(), obsReg: obs.NewRegistry()}
	e.SetPlanCache(nil)
	e.mCompiles = e.obsReg.Counter("blink_plan_compiles_total")
	e.mReplays = e.obsReg.Counter("blink_plan_replays_total")
	e.mReplans = e.obsReg.Counter("blink_replans_total")
	e.mReplanSeconds = e.obsReg.Histogram("blink_replan_seconds", nil)
	e.mRepairs = e.obsReg.Counter("blink_repair_incremental_total")
	e.mRepairFallbacks = e.obsReg.Counter("blink_repair_fallback_total")
	e.mServiceHits = e.obsReg.Counter("blink_plan_service_hits_total")
	e.mServiceErrors = e.obsReg.Counter("blink_plan_service_errors_total")
	e.pipe = core.NewPlannerPipeline(core.PipelineOptions{OnStage: e.observeStage})
	e.st.Store(st)
	return e
}

// machineOnly refuses, on a cluster state, what only a single machine has:
// its own devices, links and packings.
func (st *engineState) machineOnly(what string) error {
	if st.cluster != nil {
		return fmt.Errorf("collective: %s needs a single-machine engine, not a cluster", what)
	}
	return nil
}

// Reconfigure re-probes and swaps the engine onto a new allocation — the
// fault-adaptation path: after a link fails or degrades, pass the derived
// machine (topology.WithoutLink / WithLinkUnits) and nil devs to keep the
// allocation; after an eviction, pass a nil machine and the shrunken device
// set. Dispatches already in flight finish against the old state; every
// later dispatch compiles schedules for the new fabric. Plans cached under
// the old fingerprint are dropped from the plan cache so dead topologies
// stop pinning LRU slots (in a shared cache this also costs other engines
// still on that fingerprint a recompile, never correctness).
//
// Reconfigure is atomic: on error (disconnected PCIe plane, unknown device,
// fewer than two devices) the engine keeps its current state. Concurrent
// reconfigurations serialize, each folding its change into the previously
// published state.
func (e *Engine) Reconfigure(machine *topology.Topology, devs []int) error {
	e.reconfigMu.Lock()
	defer e.reconfigMu.Unlock()
	return e.reconfigureLocked(machine, devs)
}

// ReconfigureExclude drops the listed physical devices from the allocation
// and re-probes the current machine over the survivors — the GPU-eviction
// path. The read-modify-write on the device set happens under the
// reconfiguration lock, so concurrent evictions and link faults compose.
func (e *Engine) ReconfigureExclude(evicted []int) error {
	if len(evicted) == 0 {
		return fmt.Errorf("collective: no devices to exclude")
	}
	e.reconfigMu.Lock()
	defer e.reconfigMu.Unlock()
	gone := map[int]bool{}
	for _, d := range evicted {
		gone[d] = true
	}
	var keep []int
	for _, d := range e.st.Load().devs {
		if gone[d] {
			delete(gone, d)
		} else {
			keep = append(keep, d)
		}
	}
	for d := range gone {
		return fmt.Errorf("collective: device %d not in the allocation", d)
	}
	if len(keep) < 2 {
		return fmt.Errorf("collective: eviction would leave %d device(s); a communicator needs at least 2", len(keep))
	}
	return e.reconfigureLocked(nil, keep)
}

// reconfigureLocked builds and publishes the post-fault state; the caller
// holds reconfigMu.
func (e *Engine) reconfigureLocked(machine *topology.Topology, devs []int) error {
	start := time.Now()
	old := e.st.Load()
	if err := old.machineOnly("Reconfigure"); err != nil {
		return err
	}
	if machine == nil {
		machine = old.machine
	}
	if devs == nil {
		devs = old.devs
	}
	if old.switched() || machine.Kind == topology.KindDGX2 {
		return fmt.Errorf("collective: switch-fabric engines do not support reconfiguration")
	}
	st, err := newEngineState(machine, devs, e.Cfg, 2)
	if err != nil {
		return err
	}
	// Seed the new state with incrementally repaired packings before it
	// becomes visible: roots the fault barely touched replan in microseconds
	// instead of recompiling from scratch (compile.go).
	e.repairPackings(old, st)
	e.st.Store(st)
	e.reconfigured(old.fingerprint, st.fingerprint, start)
	return nil
}

// Topo returns the currently induced topology (on a cluster, the flat
// cross-machine ring's, which numbers every GPU server-major). After a
// Reconfigure the returned snapshot reflects the post-fault allocation.
func (e *Engine) Topo() *topology.Topology { return e.st.Load().topo }

// AllocatedDevs returns the physical device IDs of the current allocation.
func (e *Engine) AllocatedDevs() []int { return append([]int(nil), e.st.Load().devs...) }

// Fingerprint returns the induced topology's schedule-cache identity.
func (e *Engine) Fingerprint() string { return e.st.Load().fingerprint }

// Switched reports whether the engine runs on a switch fabric.
func (e *Engine) Switched() bool { return e.st.Load().switched() }

// NVLinkConnected reports whether the allocation's NVLink subgraph is
// connected (Blink needs this to build NVLink trees; NCCL needs a full
// ring, which is stricter).
func (e *Engine) NVLinkConnected() bool { return e.st.Load().nvlConnected }

// ncclRings returns (caching) the NVLink rings NCCL would build.
func (st *engineState) ncclRings() []core.Ring {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.ringsDone {
		st.rings = core.FindRings(st.topo.GPUGraph())
		st.ringsDone = true
	}
	return st.rings
}

// Run executes one collective and returns its simulated timing.
//
// The first call for a given (op, root, bytes, chunk) key compiles the full
// TreeGen -> minimize -> CodeGen pipeline and freezes the result into the
// plan cache; subsequent calls replay the frozen schedule, which is the
// whole point of Blink's generate-once / run-thousands-of-iterations
// design. Run is safe for concurrent use.
func (e *Engine) Run(b Backend, op Op, root int, bytes int64, opts Options) (Result, error) {
	return e.Snapshot().Run(b, op, root, bytes, opts)
}

// Snapshot pins the engine's current topology state so a caller can run a
// consistent multi-step sequence — validate inputs against the rank count,
// stage buffers, dispatch, read results — that a concurrent Reconfigure
// cannot split across pre- and post-fault topologies.
type Snapshot struct {
	e  *Engine
	st *engineState
}

// Snapshot captures the engine's current topology state.
func (e *Engine) Snapshot() Snapshot { return Snapshot{e: e, st: e.st.Load()} }

// Topo returns the snapshot's induced topology.
func (s Snapshot) Topo() *topology.Topology { return s.st.topo }

// Run executes one collective against the snapshot's topology, regardless
// of any reconfiguration that happened after the snapshot was taken.
func (s Snapshot) Run(b Backend, op Op, root int, bytes int64, opts Options) (Result, error) {
	return s.Submit(b, op, root, bytes, opts, Inline).Wait()
}

// Submit is the entry every dispatch style reduces to: it submits one
// collective against the snapshot's topology and returns its handle. stream
// selects the admission stage of an untenanted call — Inline runs it on the
// calling goroutine and returns a resolved handle (Run is
// Submit(Inline).Wait()); any other value queues it on an async worker
// stream exactly as RunAsync does. A call carrying opts.Tenant is admitted
// through the tenant's QoS lane instead, whatever the stream.
func (s Snapshot) Submit(b Backend, op Op, root int, bytes int64, opts Options, stream int) *Handle {
	return s.e.submit(s.st, request{b: b, op: op, root: root, bytes: bytes, opts: opts}, stream)
}

// lookupOrCompile is the planner, for dispatch and for the blob blinkd
// serves alike: it validates the request, looks its plan-cache key up
// through the cache tiers and, on a miss, fetches the plan from the remote
// planner or compiles and publishes it. It reports whether the call hit the
// cache; a fetched plan counts as a hit. Two goroutines missing on the same
// key may both compile; both results are identical and the second publish
// simply replaces the first, so correctness is unaffected.
func (e *Engine) lookupOrCompile(st *engineState, rq request) (*CachedPlan, bool, error) {
	if err := rq.validate(); err != nil {
		return nil, false, err
	}
	// A root that was valid at construction can go stale after a
	// reconfiguration shrinks the allocation; fail cleanly, not with an
	// index panic deep in TreeGen.
	if rq.root < 0 || rq.root >= st.topo.NumGPUs {
		return nil, false, fmt.Errorf("collective: root %d out of range [0,%d)", rq.root, st.topo.NumGPUs)
	}
	key := e.planKey(st.fingerprint, rq)
	// With a PlanStore attached a disk hit decodes the stored IR, validates
	// its header against this engine's topology and regenerates the
	// schedule — the packing pipeline never runs, which is the whole point
	// of the tier.
	if cp, _, _ := e.cache.GetTiered(key, e.planDecoder(st)); cp != nil {
		return cp, true, nil
	}
	// Remote planner (blinkd), if configured: still cheaper than packing
	// locally, and its blob lands in both local tiers on success.
	cp := e.fetchFromService(st, key, rq.opts)
	var err error
	fetched := cp != nil
	if !fetched {
		cp, err = e.publish(st, key, rq)
	}
	// A Reconfigure may have swapped the engine and invalidated this
	// fingerprint while the plan was fetched or compiled; re-check so its
	// publish cannot resurrect a dead topology's plan that would pin an LRU
	// slot forever.
	if err == nil && e.Fingerprint() != key.Fingerprint {
		e.cache.InvalidateFingerprint(key.Fingerprint)
	}
	return cp, fetched, err
}

// publish is the one step from a request to a cached schedule: select and
// generate the plan, freeze it, and publish it to the cache tiers under key.
// The tiered Put is an atomic publish — replays in flight keep the frozen
// plan they already resolved.
func (e *Engine) publish(st *engineState, key PlanKey, rq request) (*CachedPlan, error) {
	t0 := time.Now()
	plan, strategy, err := e.selectPlan(st, key, rq)
	if err != nil {
		return nil, err
	}
	e.observeStage(core.StageCodegen, time.Since(t0).Seconds())
	cp := &CachedPlan{Plan: plan, Strategy: strategy}
	var owner uint64
	if rq.opts.Tenant != nil {
		// Tag the entry so partition fairness charges the insert against
		// this tenant's share of the memory tier.
		owner = rq.opts.Tenant.id
	}
	e.cache.PutTieredOwned(key, cp, encodeCachedPlan(cp), owner)
	return cp, nil
}

// RunMany issues one collective per payload size through the plan cache and
// returns the grouped result. This is the batched entry point a training
// step uses for its gradient buckets: a model reuses the same handful of
// bucket sizes every iteration, so after the first step every dispatch in
// the group is a warm replay.
func (e *Engine) RunMany(b Backend, op Op, root int, sizes []int64, opts Options) (GroupResult, error) {
	return e.runGroup(e.st.Load(), request{b: b, op: op, root: root, opts: opts}, sizes)
}

// p2pPairs expands a point-to-point op into the directed transfers (in IR
// form) the NCCL-style ring baseline schedules, plus whether the pairs form
// an ordered chain. Validation is shared with the core builders so both
// backends reject malformed shapes identically.
func p2pPairs(op Op, n int, bytes int64, opts Options) ([]core.IRPair, bool, error) {
	switch op {
	case AllToAll:
		perDest := (bytes / 4) / int64(n) * 4
		if perDest <= 0 {
			return nil, false, fmt.Errorf("collective: payload %d too small for %d ranks", bytes, n)
		}
		var pairs []core.IRPair
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s != d {
					pairs = append(pairs, core.IRPair{Src: s, Dst: d, Bytes: perDest})
				}
			}
		}
		return pairs, false, nil
	case SendRecv:
		if err := core.ValidateChain(n, opts.Chain); err != nil {
			return nil, false, err
		}
		var pairs []core.IRPair
		for i := 0; i+1 < len(opts.Chain); i++ {
			pairs = append(pairs, core.IRPair{Src: opts.Chain[i], Dst: opts.Chain[i+1], Bytes: bytes})
		}
		return pairs, true, nil
	case NeighborExchange:
		if err := core.ValidateNeighbors(n, opts.Neighbors); err != nil {
			return nil, false, err
		}
		var pairs []core.IRPair
		for v, row := range opts.Neighbors {
			for _, u := range row {
				pairs = append(pairs, core.IRPair{Src: v, Dst: u, Bytes: bytes})
			}
		}
		return pairs, false, nil
	default:
		return nil, false, fmt.Errorf("collective: %v is not a point-to-point op", op)
	}
}

// shapeKey canonicalizes the chain / neighbor-list identity of a
// point-to-point op for the plan cache ("" for shapeless ops): two calls
// with different shapes must never share a frozen schedule.
func shapeKey(op Op, opts Options) string {
	var sb strings.Builder
	switch op {
	case SendRecv:
		sb.WriteString("c:")
		for i, r := range opts.Chain {
			if i > 0 {
				sb.WriteByte('>')
			}
			sb.WriteString(strconv.Itoa(r))
		}
	case NeighborExchange:
		sb.WriteString("n:")
		for v, row := range opts.Neighbors {
			if v > 0 {
				sb.WriteByte(';')
			}
			for i, u := range row {
				if i > 0 {
					sb.WriteByte(',')
				}
				sb.WriteString(strconv.Itoa(u))
			}
		}
	}
	return sb.String()
}

// opClass groups the collectives by the schedule shape they share (the
// paper makes the same identifications): rooted ops stream between one root
// and everyone, reduce-class ops combine every rank's payload, and
// point-to-point ops move pairwise.
type opClass int

const (
	classRooted opClass = iota // Broadcast, Gather, Scatter
	classReduce                // AllReduce, AllGather, ReduceScatter, Reduce
	classP2P                   // AllToAll, SendRecv, NeighborExchange
)

func classOf(op Op) opClass {
	switch op {
	case Broadcast, Gather, Scatter:
		return classRooted
	case AllToAll, SendRecv, NeighborExchange:
		return classP2P
	}
	return classReduce
}

// ReadsInputsOnly reports whether op's data-mode schedules never write the
// staged inputs (core.BufData), so a *Data call may install its caller's
// buffers in the arena by reference instead of copying them. It holds for
// the reduce class: every one of its schedules — trees, one-hop, rings,
// three-phase — reads BufData in place, where a reduce combines a device's
// own input or a source that has reduced nothing yet, and writes only
// core.BufAcc. Rooted and point-to-point schedules may deliver into BufData.
func ReadsInputsOnly(op Op) bool { return classOf(op) == classReduce }

// planes is the per-plane half of plan selection: the strategy family each
// backend reports on the plane. The plane itself reaches codegen as
// PlanIR.Fabric, never as a kind.
var planes = [...]struct{ trees, ring string }{
	core.FabricNVLink: {"trees", "rings"},
	core.FabricPCIe:   {"pcie-trees", "pcie-ring"},
	core.FabricSwitch: {"one-hop", "ring"},
}

// ringKinds is the NCCL baseline's ring IR kind per op class, on every plane
// (the rings themselves are recomputed from the fabric at codegen).
var ringKinds = [3]core.IRKind{core.IRRingBroadcast, core.IRRingAllReduce, core.IRRingP2P}

// treeOp is one row of the per-op half of Blink's plan selection: the IR
// kind the op compiles to over the plane's trees, the suffix it appends to
// the plane's strategy family (AllGather shares AllReduce's transfer
// schedule; ReduceScatter and Reduce share the reduce schedule), and what
// the kind needs recorded beside it.
type treeOp struct {
	kind   core.IRKind
	suffix string
	needs  irNeeds
}

// irNeeds says what an IR kind needs recorded in the IR beyond its
// coordinates.
type irNeeds int

const (
	needRootPacking irNeeds = iota // the packing of the call's root
	needAllPackings                // every rank's packing, indexed by rank
	needChain                      // Options.Chain (routed over the fabric graph at codegen)
	needNeighbors                  // Options.Neighbors (likewise)
	needPairs                      // the op expanded into directed transfers (p2pPairs)
	needNothing                    // rings are recomputed from the fabric at codegen
)

var treeOps = map[Op]treeOp{
	Broadcast:        {kind: core.IRTreeBroadcast},
	Gather:           {kind: core.IRTreeGather},
	AllReduce:        {kind: core.IRTreeAllReduce},
	AllGather:        {kind: core.IRTreeAllGather, suffix: "+allgather"},
	ReduceScatter:    {kind: core.IRTreeReduceScatter, suffix: "+reducescatter"},
	Reduce:           {kind: core.IRTreeReduce, suffix: "+reduce"},
	Scatter:          {kind: core.IRTreeScatter, suffix: "+scatter"},
	AllToAll:         {kind: core.IRTreeAllToAll, suffix: "+alltoall", needs: needAllPackings},
	SendRecv:         {kind: core.IRSendRecvChain, suffix: "+sendrecv", needs: needChain},
	NeighborExchange: {kind: core.IRNeighborExchange, suffix: "+neighbor", needs: needNeighbors},
}

// switchReduce replaces the reduce-class rows on a switch: all four ops run
// the DGX-2 AllReduce merged from the full one-hop packing set.
var switchReduce = treeOp{kind: core.IRDGX2AllReduce, needs: needAllPackings}

// selectShape is plan selection proper, a pure function of the tables
// above: the IR kind and strategy label (plane, backend, op) compiles to,
// and what that kind needs recorded in its IR. The one size-dependent row is
// NCCL 2.4's preference for double binary trees over rings for small
// reductions on a switch. Backend and op are known ones: request.validate
// refused everything else before a planner ran.
func selectShape(plane core.FabricSel, b Backend, op Op, bytes int64) (core.IRKind, string, irNeeds) {
	class := classOf(op)
	switch {
	case b == Blink:
		row := treeOps[op]
		if plane == core.FabricSwitch && class == classReduce {
			row = switchReduce
		}
		return row.kind, planes[plane].trees + row.suffix, row.needs
	case class == classP2P:
		return ringKinds[class], planes[plane].ring, needPairs
	case plane == core.FabricSwitch && class == classReduce && bytes < DBTreeThresholdBytes:
		return core.IRDBTreeAllReduce, "db-tree", needNothing
	}
	return ringKinds[class], planes[plane].ring, needNothing
}

// selectPlan is the one step between a cache miss and a generated schedule.
// Its first row is a cluster's (clusterPlan). On one machine it records what
// selectShape chose — plus the packings, transfer pairs or op shape the kind
// needs — into a serializable PlanIR and hands the IR to core.Compile over
// the plane's fabric. An auto-chunk Blink Broadcast on the NVLink plane
// also carries its root's PCIe packing, so CodeGen can race the §3.4
// hybrid across both planes, and an auto-chunk Blink AllReduce the plane's
// undirected packing (core.Undirected), when it has one. Returned alongside
// the frozen plan is its strategy label, the IR's.
func (e *Engine) selectPlan(st *engineState, key PlanKey, rq request) (plan *core.FrozenPlan, strategy string, err error) {
	po := core.PlanOptions{
		ChunkBytes: core.ResolveChunk(rq.bytes, key.ChunkBytes),
		DataMode:   rq.opts.DataMode,
		// The simulator's per-link FIFO arbitration is already fair, so the
		// stream-reuse workaround for CUDA's unfair scheduling (§4.2.2) is not
		// needed here; separate streams let launch overheads overlap, matching
		// asynchronous CUDA stream issue.
		NoStreamReuse: true,
	}
	if st.cluster != nil {
		p, strategy, err := st.clusterPlan(e.pipe, key, rq, po)
		return p.Freeze(), strategy, err
	}
	plane := st.plane(rq.b)
	// packs resolves the packings of roots [from, to) on a plane: the
	// precomputed one-hop trees on a switch, the per-root packing slots
	// elsewhere.
	packs := func(on core.FabricSel, from, to int) (out []*core.Packing, err error) {
		if on == core.FabricSwitch {
			return st.oneHop[from:to:to], nil
		}
		out = make([]*core.Packing, to-from)
		for i := range out {
			if out[i], err = st.packing(e.pipe, on, from+i); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	// An IR keeps an auto chunk as 0: CodeGen sizes it for the kind.
	po.ChunkBytes = key.ChunkBytes
	kind, label, needs := selectShape(plane, rq.b, rq.op, rq.bytes)
	ir := &core.PlanIR{Kind: kind, Strategy: label, Fabric: plane, Root: rq.root, Bytes: rq.bytes, Opts: po}
	switch needs {
	case needRootPacking:
		ir.Packings, err = packs(plane, rq.root, rq.root+1)
		if err == nil && ir.Kind == core.IRTreeBroadcast && plane == core.FabricNVLink && key.ChunkBytes == 0 {
			// A PCIe plane that cannot be packed only rules the hybrid out.
			if pcie, perr := packs(core.FabricPCIe, rq.root, rq.root+1); perr == nil {
				ir.Packings = append(ir.Packings, pcie...)
			}
		}
		if err == nil && ir.Kind == core.IRTreeAllReduce && plane != core.FabricSwitch && key.ChunkBytes == 0 {
			ir.Packings = append(ir.Packings, st.und[plane].For(st.fabrics[plane].Graph, ir.Packings[0])...)
		}
	case needAllPackings:
		ir.Packings, err = packs(plane, 0, st.topo.NumGPUs)
	case needChain:
		// The frozen plan outlives the call: copy the caller's slices.
		ir.Chain = append([]int(nil), rq.opts.Chain...)
	case needNeighbors:
		ir.Neighbors = make([][]int, len(rq.opts.Neighbors))
		for v, row := range rq.opts.Neighbors {
			ir.Neighbors[v] = append([]int(nil), row...)
		}
	case needPairs:
		ir.Pairs, ir.Chained, err = p2pPairs(rq.op, st.topo.NumGPUs, rq.bytes, rq.opts)
	}
	if err != nil {
		return nil, "", err
	}
	if plan, err = core.Compile(ir, st.fabrics[plane]); err != nil {
		return nil, "", err
	}
	return plan, plan.IR().Strategy, nil
}

// FabricFor returns the fabric the given backend's plans move data over:
// the switch fabric on a DGX-2, otherwise the NVLink plane (or the PCIe
// plane when the backend must fall back to it); nil on a cluster, which has
// no machine plane.
func (e *Engine) FabricFor(b Backend) *simgpu.Fabric {
	st := e.st.Load()
	return st.fabrics[st.plane(b)]
}

// Packing exposes the minimized spanning-tree packing the Blink backend
// uses for the given root (one-hop trees on a DGX-2).
func (e *Engine) Packing(root int) (*core.Packing, error) {
	st := e.st.Load()
	if err := st.machineOnly("Packing"); err != nil {
		return nil, err
	}
	if root < 0 || root >= st.topo.NumGPUs {
		return nil, fmt.Errorf("collective: root %d out of range [0,%d)", root, st.topo.NumGPUs)
	}
	if st.switched() {
		return st.oneHop[root], nil
	}
	return st.packing(e.pipe, st.plane(Blink), root)
}
