// Package blink is a reproduction of "Blink: Fast and Generic Collectives
// for Distributed ML" (MLSYS 2020): a collective communication library that
// handles arbitrary GPU interconnect topologies by dynamically packing
// spanning trees instead of fixing ring schedules.
//
// Because no CUDA hardware is available, collectives execute on a
// deterministic discrete-event fabric simulator calibrated to the paper's
// measured link characteristics; schedules are the real Blink algorithms
// (multiplicative-weight-update packing, ILP tree minimization, chunked
// pipelined code generation, MIAD chunk tuning, hybrid PCIe+NVLink
// transfers, one-hop DGX-2 trees and the three-phase multi-server
// protocol), and data-mode runs move real float32 buffers so results are
// functionally verified.
//
// Quick start:
//
//	comm, err := blink.NewComm(blink.DGX1V(), []int{1, 4, 5, 6})
//	res, err := comm.AllReduce(100 << 20) // 100 MB of gradients
//	fmt.Printf("%.1f GB/s via %s\n", res.ThroughputGBs, res.Strategy)
package blink

import (
	"fmt"
	"io"

	"blink/internal/collective"
	"blink/internal/core"
	"blink/internal/obs"
	"blink/internal/plansvc"
	"blink/internal/simgpu"
	"blink/internal/topology"
	"blink/internal/trace"
)

// Machine is a hardware topology description (DGX-1P, DGX-1V, DGX-2 or a
// custom fabric).
type Machine = topology.Topology

// DGX1P returns the 8-GPU P100 machine (NVLink Gen1 hybrid cube-mesh).
func DGX1P() *Machine { return topology.DGX1P() }

// DGX1V returns the 8-GPU V100 machine (NVLink Gen2, doubled edges).
func DGX1V() *Machine { return topology.DGX1V() }

// DGX2 returns the 16-GPU NVSwitch machine.
func DGX2() *Machine { return topology.DGX2() }

// Backend selects the scheduling strategy.
type Backend = collective.Backend

// Backends.
const (
	// BackendBlink packs spanning trees (the paper's contribution).
	BackendBlink = collective.Blink
	// BackendNCCL models the ring / double-binary-tree baseline.
	BackendNCCL = collective.NCCL
)

// Result reports one collective execution.
type Result = collective.Result

// GroupResult reports one grouped collective dispatch (AllReduceMany).
type GroupResult = collective.GroupResult

// CacheStats snapshots a communicator's plan-cache counters.
type CacheStats = collective.CacheStats

// MetricsRegistry is a communicator's live metric registry: plan-cache
// attribution, compile/replay counts, replan latency, async stream gauges
// and per-op simulated-makespan histograms. Export with Snapshot(),
// WritePrometheus or WriteJSON.
type MetricsRegistry = obs.Registry

// MetricsSnapshot is a point-in-time copy of every metric in a registry.
type MetricsSnapshot = obs.Snapshot

// Timeline is a communicator's per-op span recorder (see EnableTimeline).
type Timeline = obs.Timeline

// Span is one op's structured timeline entry: queue → dispatch →
// chunk-progress events → completion, with cache attribution and the
// simulated makespan.
type Span = obs.Span

// WriteSpanTrace renders spans as Chrome trace-event JSON (open in
// chrome://tracing or Perfetto): one swimlane per async stream, sync
// dispatches on lane 0, with queue-wait and execution as separate events.
func WriteSpanTrace(w io.Writer, spans []Span) error {
	return trace.FromSpans(spans).Write(w)
}

// Option customizes a Comm.
type Option func(*commConfig)

type commConfig struct {
	sim         simgpu.Config
	backend     Backend
	cacheCap    *int
	cache       *PlanCache
	streams     int
	asyncWindow int64
	storeDir    string
	serviceAddr string
	qos         *QoSConfig
}

// WithBackend selects the default backend (BackendBlink if unset).
func WithBackend(b Backend) Option { return func(c *commConfig) { c.backend = b } }

// WithSimConfig overrides the hardware timing model.
func WithSimConfig(cfg simgpu.Config) Option { return func(c *commConfig) { c.sim = cfg } }

// WithDataMode makes collectives move real float32 data (see the *Data
// methods and the buffer contract on Comm), enabling functional
// verification at some simulation cost.
func WithDataMode() Option { return func(c *commConfig) { c.sim.DataMode = true } }

// WithPlanCacheCapacity bounds the number of compiled schedules the
// communicator keeps resident (default collective.DefaultPlanCacheCapacity).
// Zero or negative disables caching: every collective recompiles.
func WithPlanCacheCapacity(n int) Option {
	return func(c *commConfig) { c.cacheCap = &n }
}

// WithPlanCache shares an existing plan cache with this communicator.
// Cache keys carry the topology fingerprint, device set and timing model,
// so several communicators — even over different allocations — can pool
// one cache without ever satisfying each other incorrectly. Data-mode
// plans stay private to the communicator that compiled them (their
// schedules encode its fabric's layout); only timing plans are shared.
func WithPlanCache(pc *PlanCache) Option {
	return func(c *commConfig) { c.cache = pc }
}

// WithStreams sets how many FIFO worker streams the communicator's async
// collectives fan out over (default collective.DefaultAsyncStreams). Ops
// submitted to one stream execute in submission order; ops on different
// streams overlap, chunk-pipelined against each other — NCCL stream
// semantics.
func WithStreams(n int) Option { return func(c *commConfig) { c.streams = n } }

// WithAsyncWindow bounds the bytes in flight across all async streams:
// once exceeded, *Async submissions block until completions free space
// (default collective.DefaultAsyncWindowBytes; negative for unbounded).
func WithAsyncWindow(bytes int64) Option { return func(c *commConfig) { c.asyncWindow = bytes } }

// WithPlanStore persists compiled schedules under dir and warm-starts from
// it: plans are serialized to their IR on compile and regenerated (with the
// encoded header validated against the live topology) on the first dispatch
// of a later process, which skips the expensive tree packing entirely. The
// store is the middle tier of the plan cache — memory LRU, then disk, then
// compile — and is safe to share between concurrent processes: writes are
// atomic temp-file+rename, so readers never observe a torn plan.
// Single-machine communicators only: cluster schedules embed cross-server
// wiring with no serializable form, so NewClusterComm rejects the option.
func WithPlanStore(dir string) Option { return func(c *commConfig) { c.storeDir = dir } }

// WithPlanService consults a blinkd planning daemon (cmd/blinkd) at addr
// ("host:port" or a full URL) whenever both cache tiers miss, before
// compiling locally. Any service failure — unreachable daemon, topology
// fingerprint mismatch, malformed blob — silently falls back to the local
// compile, so the daemon removes cold-start latency but never gates
// availability. Single-machine communicators only.
func WithPlanService(addr string) Option { return func(c *commConfig) { c.serviceAddr = addr } }

// WithQoS tunes the communicator's multi-tenant lane scheduler — per-lane
// queue bounds, byte watermarks, worker parallelism and the
// starvation-avoidance aging knob — before the first tenant dispatch (see
// QoSConfig; zero fields take the documented defaults). Only tenant
// traffic (NewTenant) rides the lanes; untenanted calls are unaffected.
func WithQoS(cfg QoSConfig) Option { return func(c *commConfig) { c.qos = &cfg } }

// PlanCache is a concurrency-safe LRU of compiled schedules, shareable
// across communicators.
type PlanCache = collective.PlanCache

// NewPlanCache returns a plan cache holding at most capacity schedules.
func NewPlanCache(capacity int) *PlanCache { return collective.NewPlanCache(capacity) }

// Comm is a communicator over an allocated set of GPUs, analogous to an
// NCCL communicator: on one machine (NewComm) or across the servers of a
// cluster (NewClusterComm). It probes the interconnect restricted to the
// allocation and generates schedules on demand (TreeGen + CodeGen); each
// compiled schedule is frozen into an LRU plan cache, so the first
// collective of a given shape pays for tree packing, minimization and
// code generation once and every later iteration replays the plan.
//
// A Comm is safe for concurrent use by multiple goroutines, in both
// timing and data mode: every data-mode call executes against its own
// per-call buffer arena (a simgpu.BufferSet), so any number of *Data calls
// may replay cached schedules simultaneously.
//
// The *Data methods share one buffer contract. Inputs are lent to the call:
// they must not be modified until it returns, and no call ever writes them,
// so concurrent calls may pass the same inputs. Outputs are fresh and owned
// by the caller: no returned buffer aliases an input, another returned
// buffer or anything a later call returns.
type Comm struct {
	eng     *collective.Engine
	backend Backend
	// tn is set on tenant views (NewTenant): every dispatch through such a
	// view rides the tenant's QoS lane and is attributed to its ledger.
	tn *collective.Tenant
}

// resolveOptions folds the options over the defaults.
func resolveOptions(opts []Option) commConfig {
	cfg := commConfig{backend: BackendBlink}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// NewComm probes the machine for the allocated device IDs and returns a
// communicator. For the DGX-2, devs may be nil (all 16 GPUs).
func NewComm(machine *Machine, devs []int, opts ...Option) (*Comm, error) {
	cfg := resolveOptions(opts)
	eng, err := collective.NewEngine(machine, devs, cfg.sim)
	if err != nil {
		return nil, err
	}
	return cfg.comm(eng)
}

// comm configures eng with the resolved options — the plan cache (shared,
// or private at a chosen capacity), the async stream layer, the plan store
// and service, the QoS lanes — and wraps it in a communicator.
func (cfg commConfig) comm(eng *collective.Engine) (*Comm, error) {
	if cfg.cache != nil {
		eng.SetPlanCache(cfg.cache)
	} else if cfg.cacheCap != nil {
		eng.SetPlanCache(collective.NewPlanCache(*cfg.cacheCap))
	}
	eng.ConfigureAsync(cfg.streams, cfg.asyncWindow)
	if cfg.storeDir != "" {
		store, err := collective.NewPlanStore(cfg.storeDir)
		if err != nil {
			return nil, fmt.Errorf("blink: open plan store: %w", err)
		}
		eng.SetPlanStore(store)
	}
	if cfg.serviceAddr != "" {
		eng.SetPlanService(plansvc.NewClient(cfg.serviceAddr))
	}
	if cfg.qos != nil {
		eng.ConfigureQoS(*cfg.qos)
	}
	return &Comm{eng: eng, backend: cfg.backend}, nil
}

// Size returns the number of ranks in the communicator. After a
// reconfiguration that evicted GPUs, Size reflects the surviving ranks.
func (c *Comm) Size() int { return c.eng.Topo().NumGPUs }

// Devices returns the physical GPU IDs of the allocation (nil on a cluster,
// whose ranks span several machines; see ServerSizes).
func (c *Comm) Devices() []int { return append([]int(nil), c.eng.Topo().DevIDs...) }

// Backend returns the communicator's scheduling backend.
func (c *Comm) Backend() Backend { return c.backend }

// Reconfigure re-probes the communicator against a changed machine — the
// fault-adaptation entry point. Derive the post-fault fabric with the
// Machine's WithoutLink / WithLinkUnits constructors and pass it here; the
// allocation's device set is kept (for GPU evictions use
// ReconfigureExclude, which shrinks it). Collectives issued
// concurrently with Reconfigure finish on the pre-fault topology; every
// later collective compiles schedules for the new one. Plans for the dead
// topology are dropped from the plan cache so they stop pinning LRU slots.
func (c *Comm) Reconfigure(newMachine *Machine) error {
	if newMachine == nil {
		// A nil machine here is almost always a derivation whose error was
		// ignored; silently re-probing the pre-fault fabric would leave
		// the job scheduling over the dead link.
		return fmt.Errorf("blink: nil machine (did the topology derivation fail?)")
	}
	return c.eng.Reconfigure(newMachine, nil)
}

// ReconfigureExclude shrinks the allocation after the scheduler evicts
// GPUs: the listed physical device IDs leave the communicator and the
// topology is re-probed over the survivors. At least two devices must
// remain; on error the communicator is unchanged.
func (c *Comm) ReconfigureExclude(evicted ...int) error {
	return c.eng.ReconfigureExclude(evicted)
}

// submit is the communicator's one route into the engine. It stamps the
// view's tenant on the call and lets the engine's dispatch spine pick the
// admission stage: none for a synchronous untenanted call (stream ==
// collective.Inline, the handle comes back resolved), the stream
// scheduler's byte window for an untenanted async one, and on a tenant view
// the tenant's QoS lane — priority against other lanes, watermark
// admission, quota enforcement; OnStream is ignored there (lane priority
// supersedes stream pinning) and an overloaded lane or exhausted quota
// resolves the handle with an error wrapping ErrAdmissionRejected. snap is
// the topology state the caller pinned: the current one for a timing call,
// the one a data-mode call validated and staged against.
func (c *Comm) submit(snap collective.Snapshot, stream int, op collective.Op, root int, bytes int64, opts collective.Options) *Handle {
	opts.Tenant = c.tn
	return snap.Submit(c.backend, op, root, bytes, opts, stream)
}

// Broadcast sends bytes from rank root to all ranks.
func (c *Comm) Broadcast(root int, bytes int64) (Result, error) {
	return c.submit(c.eng.Snapshot(), collective.Inline, collective.Broadcast, root, bytes, collective.Options{}).Wait()
}

// Gather collects bytes/Size() from every rank at root.
func (c *Comm) Gather(root int, bytes int64) (Result, error) {
	return c.submit(c.eng.Snapshot(), collective.Inline, collective.Gather, root, bytes, collective.Options{}).Wait()
}

// AllReduce sums bytes of float32 gradients across all ranks.
func (c *Comm) AllReduce(bytes int64) (Result, error) {
	return c.submit(c.eng.Snapshot(), collective.Inline, collective.AllReduce, 0, bytes, collective.Options{}).Wait()
}

// AllReduceMany issues one AllReduce per tensor size as a single grouped
// dispatch — the multi-tensor gradient buckets of one training step. Every
// distinct size compiles once; a steady-state training loop replays frozen
// plans for the whole group (see GroupResult.CacheHits).
func (c *Comm) AllReduceMany(sizes []int64) (GroupResult, error) {
	return c.eng.RunMany(c.backend, collective.AllReduce, 0, sizes, collective.Options{Tenant: c.tn})
}

// CacheStats snapshots the communicator's plan-cache counters: hits are
// collectives that skipped TreeGen/minimize/CodeGen and replayed a frozen
// schedule.
func (c *Comm) CacheStats() CacheStats { return c.eng.CacheStats() }

// Metrics returns the communicator's live metric registry. Reading it is
// always safe; metrics are recorded whether or not anyone looks.
func (c *Comm) Metrics() *MetricsRegistry { return c.eng.Metrics() }

// MetricsSnapshot copies every metric's current value, for export via
// WritePrometheus (Prometheus text exposition) or WriteJSON.
func (c *Comm) MetricsSnapshot() MetricsSnapshot { return c.eng.Metrics().Snapshot() }

// EnableTimeline switches on per-op span recording (off by default — spans
// accumulate in memory for the life of the communicator) and returns the
// timeline. Idempotent; dispatches before the first call are not recorded.
func (c *Comm) EnableTimeline() *Timeline { return c.eng.EnableTimeline() }

// Timeline returns the communicator's span timeline, nil unless
// EnableTimeline was called.
func (c *Comm) Timeline() *Timeline { return c.eng.Timeline() }

// AllGather concatenates every rank's share on all ranks.
func (c *Comm) AllGather(bytes int64) (Result, error) {
	return c.submit(c.eng.Snapshot(), collective.Inline, collective.AllGather, 0, bytes, collective.Options{}).Wait()
}

// ReduceScatter reduces and leaves each rank with one shard.
func (c *Comm) ReduceScatter(bytes int64) (Result, error) {
	return c.submit(c.eng.Snapshot(), collective.Inline, collective.ReduceScatter, 0, bytes, collective.Options{}).Wait()
}

// Reduce sums every rank's buffer at rank root (the first half of an
// AllReduce).
func (c *Comm) Reduce(root int, bytes int64) (Result, error) {
	return c.submit(c.eng.Snapshot(), collective.Inline, collective.Reduce, root, bytes, collective.Options{}).Wait()
}

// Scatter distributes a distinct bytes/Size() shard from root to every
// rank (the inverse of Gather).
func (c *Comm) Scatter(root int, bytes int64) (Result, error) {
	return c.submit(c.eng.Snapshot(), collective.Inline, collective.Scatter, root, bytes, collective.Options{}).Wait()
}

// HybridBroadcast runs Blink's combined PCIe+NVLink broadcast (§3.4): the
// split between the fabrics is calibrated once, when the schedule compiles,
// and every later call of the same shape replays the cached plan like any
// other collective.
func (c *Comm) HybridBroadcast(root int, bytes int64) (Result, error) {
	return c.submit(c.eng.Snapshot(), collective.Inline, collective.Broadcast, root, bytes, collective.Options{Hybrid: true}).Wait()
}

// AllToAll exchanges a distinct bytes/Size() shard between every pair of
// ranks (the dispatch/combine primitive of expert-parallel MoE layers).
// Under BackendBlink each source scatters its shards over its own packed
// spanning trees; under BackendNCCL pairs move store-and-forward along the
// baseline rings.
func (c *Comm) AllToAll(bytes int64) (Result, error) {
	return c.submit(c.eng.Snapshot(), collective.Inline, collective.AllToAll, 0, bytes, collective.Options{}).Wait()
}

// SendRecv forwards one bytes-sized payload stage by stage along the given
// rank chain (a pipeline-parallel activation hand-off): chain[0] sends to
// chain[1], which forwards to chain[2], and so on, each stage chunk-
// pipelined against the next. Non-adjacent stages are routed over relay
// ranks. The chain must name at least two distinct in-range ranks.
func (c *Comm) SendRecv(chain []int, bytes int64) (Result, error) {
	return c.submit(c.eng.Snapshot(), collective.Inline, collective.SendRecv, 0, bytes, collective.Options{Chain: chain}).Wait()
}

// NeighborExchange sends each rank's bytes-sized payload to every rank on
// its neighbor list (a halo exchange). neighbors must hold exactly Size()
// rows; row v lists the ranks v sends to. Self-loops and duplicate targets
// are rejected.
func (c *Comm) NeighborExchange(neighbors [][]int, bytes int64) (Result, error) {
	return c.submit(c.eng.Snapshot(), collective.Inline, collective.NeighborExchange, 0, bytes, collective.Options{Neighbors: neighbors}).Wait()
}

// Handle is the caller's reference to one in-flight async collective: wait
// with Wait (or select on Done), peek failures with Err, watch
// chunk-granular progress with Progress.
type Handle = collective.Handle

// AsyncOpt tunes one async submission.
type AsyncOpt func(*asyncCfg)

type asyncCfg struct {
	stream int
}

// OnStream pins the submission to worker stream s (ops on one stream
// execute FIFO, in submission order; out-of-range indices wrap). Without
// it, submissions round-robin across the communicator's streams.
func OnStream(s int) AsyncOpt { return func(a *asyncCfg) { a.stream = s } }

// asyncStream resolves the stream an async call targets (-1 = auto).
func asyncStream(opts []AsyncOpt) int {
	a := asyncCfg{stream: -1}
	for _, o := range opts {
		o(&a)
	}
	return a.stream
}

// BroadcastAsync is the nonblocking Broadcast: it submits the collective
// to one of the communicator's worker streams and returns immediately
// (blocking only when the in-flight byte window is full). A training step
// uses the async variants to overlap gradient communication with backward
// compute and Wait on the handles before the optimizer step.
//
// The topology state is pinned at submission: work in flight completes on
// its snapshot even if the communicator is Reconfigured mid-op, while
// every later submission sees the post-fault state.
func (c *Comm) BroadcastAsync(root int, bytes int64, opts ...AsyncOpt) *Handle {
	return c.submit(c.eng.Snapshot(), asyncStream(opts), collective.Broadcast, root, bytes, collective.Options{})
}

// AllReduceAsync is the nonblocking AllReduce (see BroadcastAsync for the
// shared async semantics).
func (c *Comm) AllReduceAsync(bytes int64, opts ...AsyncOpt) *Handle {
	return c.submit(c.eng.Snapshot(), asyncStream(opts), collective.AllReduce, 0, bytes, collective.Options{})
}

// ReduceAsync is the nonblocking Reduce.
func (c *Comm) ReduceAsync(root int, bytes int64, opts ...AsyncOpt) *Handle {
	return c.submit(c.eng.Snapshot(), asyncStream(opts), collective.Reduce, root, bytes, collective.Options{})
}

// GatherAsync is the nonblocking Gather.
func (c *Comm) GatherAsync(root int, bytes int64, opts ...AsyncOpt) *Handle {
	return c.submit(c.eng.Snapshot(), asyncStream(opts), collective.Gather, root, bytes, collective.Options{})
}

// ScatterAsync is the nonblocking Scatter.
func (c *Comm) ScatterAsync(root int, bytes int64, opts ...AsyncOpt) *Handle {
	return c.submit(c.eng.Snapshot(), asyncStream(opts), collective.Scatter, root, bytes, collective.Options{})
}

// AllGatherAsync is the nonblocking AllGather.
func (c *Comm) AllGatherAsync(bytes int64, opts ...AsyncOpt) *Handle {
	return c.submit(c.eng.Snapshot(), asyncStream(opts), collective.AllGather, 0, bytes, collective.Options{})
}

// ReduceScatterAsync is the nonblocking ReduceScatter.
func (c *Comm) ReduceScatterAsync(bytes int64, opts ...AsyncOpt) *Handle {
	return c.submit(c.eng.Snapshot(), asyncStream(opts), collective.ReduceScatter, 0, bytes, collective.Options{})
}

// AllToAllAsync is the nonblocking AllToAll (see BroadcastAsync for the
// shared async semantics).
func (c *Comm) AllToAllAsync(bytes int64, opts ...AsyncOpt) *Handle {
	return c.submit(c.eng.Snapshot(), asyncStream(opts), collective.AllToAll, 0, bytes, collective.Options{})
}

// SendRecvAsync is the nonblocking SendRecv along the given rank chain.
func (c *Comm) SendRecvAsync(chain []int, bytes int64, opts ...AsyncOpt) *Handle {
	return c.submit(c.eng.Snapshot(), asyncStream(opts), collective.SendRecv, 0, bytes,
		collective.Options{Chain: append([]int(nil), chain...)})
}

// NeighborExchangeAsync is the nonblocking NeighborExchange.
func (c *Comm) NeighborExchangeAsync(neighbors [][]int, bytes int64, opts ...AsyncOpt) *Handle {
	return c.submit(c.eng.Snapshot(), asyncStream(opts), collective.NeighborExchange, 0, bytes,
		collective.Options{Neighbors: copyRows(neighbors)})
}

// dataOp describes one data-mode collective to runData: which collective
// carries it, what its inputs must look like, and how they are staged into
// the call's arena. Reading results back stays with the entry point, whose
// return shape it is.
type dataOp struct {
	op   collective.Op
	root int
	// opts carries the point-to-point shape (Chain / Neighbors), if any.
	opts collective.Options
	// blinkOnly names the op when only BackendBlink has a data-carrying
	// schedule for it (the NCCL baselines for these are timing-only).
	blinkOnly string
	// inputs holds one equal-length non-empty buffer per rank, or — for a
	// single-source op — just the payload staged at rank src.
	inputs [][]float32
	single bool
	src    int
	// sharded requires the buffer length to be a multiple of the rank count.
	sharded bool
	// padded stages rank v's input as shard v of a zeroed Size()-shard
	// buffer (summing or gathering such buffers concatenates exactly).
	padded bool
}

// runData is the one body under the *Data entry points. It pins the
// engine's topology state for the whole call — so input validation, buffer
// staging, the dispatch and the caller's result reads all see the same rank
// count even if another goroutine Reconfigures the communicator mid-call —
// validates and stages the inputs into a fresh per-call arena, and
// dispatches through submit. It returns the arena, the pinned rank count and
// the staged per-rank buffer length in floats.
//
// Inputs are staged by reference when the op's schedules only read them
// (collective.ReadsInputsOnly) and copied otherwise, so every other buffer
// in the arena is the call's own: the entry points hand those to the caller
// as they are.
func (c *Comm) runData(d dataOp) (bs *simgpu.BufferSet, ranks, n int, err error) {
	if !c.eng.Cfg.DataMode {
		return nil, 0, 0, fmt.Errorf("blink: communicator not created WithDataMode")
	}
	if d.blinkOnly != "" && c.backend != BackendBlink {
		return nil, 0, 0, fmt.Errorf("blink: data-mode %s requires BackendBlink", d.blinkOnly)
	}
	snap := c.eng.Snapshot()
	ranks = snap.Topo().NumGPUs
	if !d.single && len(d.inputs) != ranks {
		return nil, 0, 0, fmt.Errorf("blink: %d inputs for %d ranks", len(d.inputs), ranks)
	}
	if n = len(d.inputs[0]); n == 0 {
		return nil, 0, 0, fmt.Errorf("blink: empty buffer")
	}
	for i, in := range d.inputs {
		if len(in) != n {
			return nil, 0, 0, fmt.Errorf("blink: rank %d buffer length %d != %d", i, len(in), n)
		}
	}
	if d.sharded && n%ranks != 0 {
		return nil, 0, 0, fmt.Errorf("blink: buffer length %d not a multiple of %d ranks", n, ranks)
	}
	bs = simgpu.NewBufferSet()
	for v, in := range d.inputs {
		buf := in
		switch {
		case d.padded:
			buf = make([]float32, n*ranks)
			copy(buf[v*n:], in)
		case !collective.ReadsInputsOnly(d.op):
			buf = append([]float32(nil), in...)
		}
		if d.single {
			v = d.src
		}
		bs.SetBuffer(v, core.BufData, buf)
	}
	if d.padded {
		n *= ranks
	}
	d.opts.DataMode, d.opts.Buffers = true, bs
	_, err = c.submit(snap, collective.Inline, d.op, d.root, int64(n)*4, d.opts).Wait()
	return bs, ranks, n, err
}

// runDataRanks is runData plus the common read-back: every rank's buffer
// under tag, handed over as it is, or — when keepShard is set — a copy of
// rank v's own 1/Size() shard of it.
func (c *Comm) runDataRanks(d dataOp, tag int, keepShard bool) ([][]float32, error) {
	bs, ranks, n, err := c.runData(d)
	if err != nil {
		return nil, err
	}
	out := make([][]float32, ranks)
	for v := range out {
		out[v] = bs.Buffer(v, tag, n)
		if keepShard {
			out[v] = append([]float32(nil), out[v][v*(n/ranks):(v+1)*(n/ranks)]...)
		}
	}
	return out, nil
}

// copyRows deep-copies a neighbor list so a queued or cached dispatch never
// aliases the caller's slices.
func copyRows(rows [][]int) [][]int {
	out := make([][]int, len(rows))
	for i, r := range rows {
		out[i] = append([]int(nil), r...)
	}
	return out
}

// BroadcastData broadcasts root's buffer to every rank and returns each
// rank's received copy. The communicator must be created WithDataMode.
func (c *Comm) BroadcastData(root int, data []float32) ([][]float32, error) {
	return c.runDataRanks(dataOp{op: collective.Broadcast, root: root, inputs: [][]float32{data}, single: true, src: root}, core.BufData, false)
}

// AllReduceData sums the per-rank buffers elementwise and returns each
// rank's result. All buffers must share a length. The communicator must be
// created WithDataMode.
func (c *Comm) AllReduceData(inputs [][]float32) ([][]float32, error) {
	return c.runDataRanks(dataOp{op: collective.AllReduce, inputs: inputs}, core.BufAcc, false)
}

// GatherData collects every rank's buffer at rank root and returns the
// concatenation in rank order. All buffers must share a length. Data-mode
// Gather rides Blink's spanning trees; the NCCL baseline has no
// data-carrying gather schedule, so BackendNCCL is rejected.
func (c *Comm) GatherData(root int, inputs [][]float32) ([]float32, error) {
	bs, _, total, err := c.runData(dataOp{op: collective.Gather, root: root, blinkOnly: "Gather", inputs: inputs, padded: true})
	if err != nil {
		return nil, err
	}
	return bs.Buffer(root, core.BufData, total), nil
}

// ReduceData sums the per-rank buffers elementwise at rank root (the first
// half of an AllReduce) and returns root's result.
func (c *Comm) ReduceData(root int, inputs [][]float32) ([]float32, error) {
	bs, _, n, err := c.runData(dataOp{op: collective.Reduce, root: root, inputs: inputs})
	if err != nil {
		return nil, err
	}
	return bs.Buffer(root, core.BufAcc, n), nil
}

// ScatterData splits root's buffer into Size() equal shards and delivers
// shard v to rank v (the inverse of Gather). len(data) must be a multiple
// of Size(). Like GatherData, it requires BackendBlink.
func (c *Comm) ScatterData(root int, data []float32) ([][]float32, error) {
	return c.runDataRanks(dataOp{op: collective.Scatter, root: root, blinkOnly: "Scatter",
		inputs: [][]float32{data}, single: true, src: root, sharded: true}, core.BufData, true)
}

// AllGatherData concatenates every rank's buffer on all ranks. The schedule
// is the AllReduce transfer schedule over zero-padded inputs (summing a
// buffer that is zero outside each rank's own shard concatenates exactly),
// the same identification the paper makes for timing.
func (c *Comm) AllGatherData(inputs [][]float32) ([][]float32, error) {
	return c.runDataRanks(dataOp{op: collective.AllGather, inputs: inputs, padded: true}, core.BufAcc, false)
}

// ReduceScatterData sums the per-rank buffers elementwise and leaves rank v
// with shard v of the result. Buffer lengths must be a multiple of Size().
// The data movement is the AllReduce schedule; each rank keeps only its
// shard of the reduction.
func (c *Comm) ReduceScatterData(inputs [][]float32) ([][]float32, error) {
	return c.runDataRanks(dataOp{op: collective.AllReduce, inputs: inputs, sharded: true}, core.BufAcc, true)
}

// AllToAllData exchanges real data between every pair of ranks: rank v's
// input is split into Size() equal shards and shard d is delivered to rank
// d, so out[d] is the rank-order concatenation of every rank's d-th shard.
// Buffer lengths must be a positive multiple of Size(). Like GatherData, it
// requires BackendBlink (the NCCL ring baseline is timing-only).
func (c *Comm) AllToAllData(inputs [][]float32) ([][]float32, error) {
	bs, ranks, n, err := c.runData(dataOp{op: collective.AllToAll, blinkOnly: "AllToAll", inputs: inputs, sharded: true})
	if err != nil {
		return nil, err
	}
	shard := n / ranks
	out := make([][]float32, ranks)
	for d := range out {
		out[d] = make([]float32, n)
		for r := 0; r < ranks; r++ {
			copy(out[d][r*shard:(r+1)*shard], bs.Buffer(d, core.ExchangeTag(r), n)[d*shard:(d+1)*shard])
		}
	}
	return out, nil
}

// SendRecvData forwards chain[0]'s payload stage by stage along the rank
// chain and returns each chain member's received copy, in chain order
// (out[0] is the sender's own buffer). Requires BackendBlink.
func (c *Comm) SendRecvData(chain []int, data []float32) ([][]float32, error) {
	if len(chain) == 0 {
		return nil, fmt.Errorf("blink: empty chain")
	}
	chain = append([]int(nil), chain...)
	bs, _, n, err := c.runData(dataOp{op: collective.SendRecv, blinkOnly: "SendRecv", opts: collective.Options{Chain: chain},
		inputs: [][]float32{data}, single: true, src: chain[0]})
	if err != nil {
		return nil, err
	}
	out := make([][]float32, len(chain))
	for i, v := range chain {
		out[i] = bs.Buffer(v, core.BufData, n)
	}
	return out, nil
}

// NeighborExchangeData sends each rank's buffer to every rank on its
// neighbor list and returns what each rank received: out[u][v] is rank v's
// payload as received by rank u, present exactly when u is on v's list.
// All buffers must share a length. Requires BackendBlink.
func (c *Comm) NeighborExchangeData(neighbors [][]int, inputs [][]float32) ([]map[int][]float32, error) {
	rows := copyRows(neighbors)
	bs, ranks, n, err := c.runData(dataOp{op: collective.NeighborExchange, blinkOnly: "NeighborExchange",
		opts: collective.Options{Neighbors: rows}, inputs: inputs})
	if err != nil {
		return nil, err
	}
	out := make([]map[int][]float32, ranks)
	for u := range out {
		out[u] = map[int][]float32{}
	}
	for v, row := range rows {
		for _, u := range row {
			out[u][v] = bs.Buffer(u, core.ExchangeTag(v), n)
		}
	}
	return out, nil
}

// Trees returns the minimized spanning-tree packing Blink generated for
// broadcasts from root, for introspection and debugging.
func (c *Comm) Trees(root int) (*core.Packing, error) { return c.eng.Packing(root) }

// ServerSpec names one machine of a multi-server job and the GPUs the
// scheduler allocated on it.
type ServerSpec = topology.Server

// Cluster is a multi-server allocation connected by NICs through a
// non-blocking datacenter switch.
type Cluster = topology.Cluster

// NewCluster induces each server's sub-topology and assembles the NIC
// fabric. nicGbps is the per-server NIC speed in Gbit/s (e.g. 40, 100, 400).
func NewCluster(servers []ServerSpec, nicGbps float64) (*Cluster, error) {
	return topology.NewCluster(servers, nicGbps)
}

// ClusterComm is Comm, under the name the benchmark harness in bench/ still
// uses.
//
// Deprecated: use Comm; NewClusterComm returns one.
type ClusterComm = Comm

// NewClusterComm builds a communicator spanning every GPU of a multi-server
// cluster. Ranks are numbered server-major (server 0's GPUs first). With
// the default Blink backend, collectives run the paper's §3.5 three-phase
// protocol: per-server spanning-tree reduce, cross-server exchange among
// partition roots over the NICs, per-server tree broadcast; Result carries
// the three phases' durations. With BackendNCCL they run the flat
// cross-machine ring baseline. Either way the first dispatch of a shape
// compiles the full multi-server schedule and freezes it into the plan
// cache; every later dispatch is a warm replay.
//
// A cluster communicator serves AllReduce, Broadcast and AllToAll (the last
// under BackendBlink only) in every form — synchronous, grouped, async,
// tenant views and the matching *Data methods, including ReduceScatterData,
// which rides the AllReduce schedule — plus ServerSizes and
// ReconfigureWithoutServer. Every other collective, HybridBroadcast, Trees,
// Reconfigure and ReconfigureExclude return an error. Options are
// NewComm's, except WithPlanStore and WithPlanService: cluster schedules
// embed cross-server wiring with no serializable form, so neither the disk
// tier nor the planning service can hold one, and the options fail loudly
// instead of being silently ignored.
func NewClusterComm(cluster *Cluster, opts ...Option) (*Comm, error) {
	cfg := resolveOptions(opts)
	switch {
	case cfg.serviceAddr != "":
		return nil, fmt.Errorf("blink: WithPlanService is single-machine only (cluster plans are not remotely servable)")
	case cfg.storeDir != "":
		return nil, fmt.Errorf("blink: WithPlanStore is single-machine only (cluster plans are not serializable)")
	}
	eng, err := collective.NewClusterEngine(cluster, cfg.sim)
	if err != nil {
		return nil, err
	}
	return cfg.comm(eng)
}

// ServerSizes returns the per-server GPU counts, in rank order: one per
// server of a cluster communicator, and Size() alone on one machine.
func (c *Comm) ServerSizes() []int { return c.eng.ServerSizes() }

// ReconfigureWithoutServer shrinks a cluster communicator after losing a
// whole server (index into the current server order): the survivors keep
// their server-major rank order and every later collective compiles
// three-phase (or flat-ring) schedules for the shrunken NIC fabric. At least
// two servers must remain; on error the communicator is unchanged.
// Collectives issued concurrently finish on the pre-loss cluster. On a
// single-machine communicator it returns an error.
func (c *Comm) ReconfigureWithoutServer(server int) error {
	return c.eng.RemoveServer(server)
}
