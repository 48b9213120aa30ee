package collective

import (
	"fmt"
	"math"
	"time"

	"blink/internal/core"
	"blink/internal/obs"
	"blink/internal/simgpu"
)

// This file is the dispatch spine: the one path every collective call takes,
// on one machine or a cluster, however it was issued.
//
//	entry point → pin state → submit: admission {none | stream window | lane verdict}
//	            → dispatch → lookupOrCompile → CachedPlan.replay → observe
//
// Engine's exported Run / RunMany / RunAsync / *Tenant methods and
// Snapshot.Submit are thin entry points that build a request, pin the state
// and call submit.

// Metrics returns the engine's metrics registry: plan-cache activity,
// compile/replay counters, replan latency, async stream gauges and per-op
// simulated-makespan histograms, exportable via Snapshot/WritePrometheus.
func (e *Engine) Metrics() *obs.Registry { return e.obsReg }

// EnableTimeline switches on per-op span recording and returns the
// timeline. Idempotent: later calls return the same timeline. Dispatches
// before the first call are simply not recorded.
func (e *Engine) EnableTimeline() *obs.Timeline {
	if t := e.tl.Load(); t != nil {
		return t
	}
	e.tl.CompareAndSwap(nil, obs.NewTimeline())
	return e.tl.Load()
}

// Timeline returns the engine's span timeline (nil unless EnableTimeline
// was called).
func (e *Engine) Timeline() *obs.Timeline { return e.tl.Load() }

// opHist resolves the per-op simulated-makespan histogram, creating the
// series on the op kind's first dispatch (an op never issued exports no
// empty series) and remembering the handle, so a warm dispatch neither
// builds the series name nor looks it up. op has passed request.validate.
func (e *Engine) opHist(op Op) *obs.Histogram {
	h := e.opHists[op].Load()
	if h == nil {
		h = e.obsReg.Histogram(`blink_op_sim_seconds{op="`+op.String()+`"}`, nil)
		e.opHists[op].Store(h)
	}
	return h
}

// SetPlanCache replaces the engine's plan cache, e.g. with one shared by
// several communicators (keys carry the topology or cluster fingerprint, so
// entries never collide across allocations). A nil cache resets to a private
// cache of the default capacity. A cache that mirrors into no registry yet —
// a fresh private one, or a shared one no engine has adopted — is
// instrumented into this engine's registry; a shared cache another engine
// already instrumented keeps reporting there.
func (e *Engine) SetPlanCache(c *PlanCache) {
	if c == nil {
		c = NewPlanCache(DefaultPlanCacheCapacity)
	}
	if !c.instrumented() {
		c.Instrument(e.obsReg)
	}
	e.cache = c
}

// PlanCacheHandle returns the engine's plan cache (for sharing or
// inspection).
func (e *Engine) PlanCacheHandle() *PlanCache { return e.cache }

// CacheStats snapshots the engine's plan-cache counters.
func (e *Engine) CacheStats() CacheStats { return e.cache.Stats() }

// ConfigureAsync tunes the engine's async stream layer before first use:
// streams is the number of FIFO worker streams (DefaultAsyncStreams if 0),
// windowBytes the in-flight byte window before submissions block
// (DefaultAsyncWindowBytes if 0, negative for unbounded). Once async ops
// have been issued the scheduler is live and the call no longer affects it
// (streams are a construction-time choice, as in NCCL).
func (e *Engine) ConfigureAsync(streams int, windowBytes int64) {
	e.async.configure(func(c *asyncConfig) {
		if streams > 0 {
			c.streams = streams
		}
		if windowBytes != 0 {
			c.window = windowBytes
		}
	})
}

// streams returns the live stream scheduler, starting it on first use.
func (e *Engine) streams() *streamScheduler {
	return e.async.get(func(c asyncConfig) *streamScheduler {
		c = c.normalized()
		return newStreamScheduler(c.streams, c.window, e.obsReg)
	})
}

// lanes returns the live lane scheduler, starting it on first use.
func (e *Engine) lanes() *laneScheduler {
	return e.qos.get(func(c QoSConfig) *laneScheduler { return newLaneScheduler(c, e.obsReg) })
}

// reconfigured is the tail of every reconfiguration, run after the new
// state is published: plans cached under the old fingerprint are dropped so
// a dead topology stops pinning LRU slots (in a shared cache this also
// costs other engines still on that fingerprint a recompile, never
// correctness), and the replan is counted and timed.
func (e *Engine) reconfigured(oldFP, newFP string, start time.Time) {
	if newFP != oldFP {
		e.cache.InvalidateFingerprint(oldFP)
	}
	e.mReplans.Inc()
	e.mReplanSeconds.Observe(time.Since(start).Seconds())
}

// request is one collective call as the spine sees it: the plan coordinates
// plus the per-call execution context that is not part of the plan key.
type request struct {
	b     Backend
	op    Op
	root  int
	bytes int64
	opts  Options
}

// maxPlanChunks bounds a request's bytes/chunk ratio (2 TiB at the auto
// chunk). A schedule's op count — and the memory its generation takes — is
// linear in that ratio, and blinkd takes bytes and chunkBytes straight off
// the network.
const maxPlanChunks = 1 << 20

// validate refuses a request no schedule can be generated for: a backend or
// op outside the known ones (which plan selection would otherwise read as
// NCCL, or as reduce-class), a payload below one float32, or more chunks
// than a schedule may have.
func (rq request) validate() error {
	switch {
	case rq.b != Blink && rq.b != NCCL:
		return fmt.Errorf("collective: unknown backend %d", int(rq.b))
	case rq.op < Broadcast || rq.op > NeighborExchange:
		return fmt.Errorf("collective: unknown op %v", rq.op)
	case rq.bytes < 4:
		return fmt.Errorf("collective: payload %d too small", rq.bytes)
	}
	if chunk := chunkFor(rq.bytes, rq.opts.ChunkBytes); rq.bytes/chunk > maxPlanChunks {
		return fmt.Errorf("collective: %d bytes in %d-byte chunks is %d chunks; a schedule may have at most %d",
			rq.bytes, chunk, rq.bytes/chunk, maxPlanChunks)
	}
	return nil
}

// planKey completes the request's plan-cache key against a topology (or
// cluster) fingerprint.
func (e *Engine) planKey(fp string, rq request) PlanKey {
	key := PlanKey{
		Fingerprint: fp,
		Config:      e.cfgKey,
		Backend:     rq.b,
		Op:          rq.op,
		Root:        rq.root,
		Bytes:       rq.bytes,
		ChunkBytes:  chunkFor(rq.bytes, rq.opts.ChunkBytes),
		DataMode:    rq.opts.DataMode,
		// Hybrid selects a schedule only for broadcasts; normalising it out
		// elsewhere keeps a stray flag from duplicating cache entries.
		Hybrid: rq.opts.Hybrid && rq.op == Broadcast,
		Shape:  shapeKey(rq.op, rq.opts),
	}
	if rq.opts.DataMode {
		// Data-mode Exec closures encode the compiling engine's geometry
		// (fabric layout, rank→server mapping); the plan must never be
		// replayed from another engine.
		key.EngineID = e.id
	}
	return key
}

// replay executes the frozen schedule against the call's arena and returns
// the simulated run. Every schedule — tree, ring, hybrid, flat ring,
// three-phase — is one FrozenPlan, simulated once when it was frozen, and
// one arena.
func (cp *CachedPlan) replay(rq request, hook core.ReplayHook) (simgpu.Result, error) {
	return cp.Plan.ReplayDataHooked(rq.opts.Buffers, hook)
}

// dispatch is the one instrumented dispatch body: plan lookup, replay, and
// everything observed about them. It owns the span's lifecycle from
// dispatch to completion (rec is nil when no timeline is enabled — every
// recorder method is nil-safe), the tenant's cache ledger, the
// compile/replay counters and the per-op makespan histogram. hook is the
// optional chunk-granular progress hook threaded into the replay (nil for
// synchronous calls; async handles use it to publish progress and yield
// between chunks). The whole dispatch runs against one pinned state, so a
// concurrent Reconfigure never mixes pre- and post-fault scheduling state
// within a call.
func (e *Engine) dispatch(st *engineState, rq request, hook core.ReplayHook, rec *obs.SpanRecorder) (Result, bool, error) {
	rec.Dispatch()
	cp, hit, err := e.lookupOrCompile(st, rq)
	// A refused or failed lookup still counts as a miss (hit is false on
	// error) so a tenant's ledger keeps Lookups == Hits + Misses exact.
	rq.opts.Tenant.noteLookup(hit)
	if err != nil {
		rec.Complete("", false, 0, err)
		return Result{}, false, err
	}
	if hit {
		e.mReplays.Inc()
	} else {
		e.mCompiles.Inc()
	}
	r, err := cp.replay(rq, chainHooks(hook, rec.ChunkHook()))
	if err != nil {
		rec.Complete(cp.Strategy, hit, 0, err)
		return Result{}, hit, err
	}
	e.opHist(rq.op).Observe(r.Makespan)
	rec.Complete(cp.Strategy, hit, r.Makespan, nil)
	out := Result{Seconds: r.Makespan, Bytes: rq.bytes, Strategy: cp.Strategy, Partitions: cp.Plan.Partitions()}
	if len(r.Marks) == 2 {
		// A three-phase schedule marks the two joins between its phases.
		out.Phase1, out.Phase2, out.Phase3 = r.Marks[0], r.Marks[1]-r.Marks[0], r.Makespan-r.Marks[1]
	}
	if r.Makespan > 0 {
		out.ThroughputGBs = float64(rq.bytes) / r.Makespan / 1e9
	}
	return out, hit, nil
}

// chainHooks composes two replay hooks into one (either may be nil).
func chainHooks(a, b core.ReplayHook) core.ReplayHook {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return func(done, total int) {
		a(done, total)
		b(done, total)
	}
}

// Inline is the stream value of a synchronous submission: no admission
// stage, the dispatch runs on the calling goroutine (see Snapshot.Submit).
const Inline = math.MinInt

// submit is the single route from every entry point into dispatch. It picks
// the admission stage from what the request carries:
//
//   - a tenant (rq.opts.Tenant): the lane scheduler's non-blocking verdict.
//     A rejected op never runs — its handle is already resolved with an
//     error wrapping ErrAdmissionRejected; stream is ignored, lane priority
//     supersedes stream pinning;
//   - no tenant, stream == Inline: none — the synchronous path, run here
//     and now, with no goroutine hand-off and a handle that is born
//     resolved;
//   - no tenant, any other stream: the stream scheduler's byte window,
//     which blocks the submitter for backpressure (stream < 0
//     round-robins, out-of-range indices wrap).
//
// st was pinned by the caller: a Reconfigure that lands while the op is
// queued or executing does not affect it. Errors, including compile
// failures, resolve through the handle. The span's stream field is -1 for
// synchronous calls, the resolved stream for async ones and the lane index
// for tenants.
func (e *Engine) submit(st *engineState, rq request, stream int) *Handle {
	name, backend := rq.op.String(), rq.b.String()
	if tn := rq.opts.Tenant; tn != nil {
		h := newHandle()
		rec := e.tl.Load().Begin(name, backend, int(tn.class), rq.bytes)
		h.verdict = e.lanes().submit(laneSub{class: tn.class, tenant: tn, bytes: rq.bytes, run: func() {
			h.complete(e.dispatch(st, rq, h.hook(), rec))
		}})
		if h.verdict == VerdictReject {
			rec.Complete("", false, 0, ErrAdmissionRejected)
			h.complete(Result{}, false, fmt.Errorf("%w: tenant %s class %s (%d bytes)",
				ErrAdmissionRejected, tn.name, tn.class, rq.bytes))
		}
		return h
	}
	if stream == Inline {
		h := &Handle{done: resolved}
		h.res, h.hit, h.err = e.dispatch(st, rq, nil, e.tl.Load().Begin(name, backend, -1, rq.bytes))
		return h
	}
	h := newHandle()
	rec := e.tl.Load().Begin(name, backend, stream, rq.bytes)
	e.streams().submit(stream, rq.bytes, func(actual int) {
		rec.SetStream(actual)
		h.complete(e.dispatch(st, rq, h.hook(), rec))
	})
	return h
}

// GroupResult reports one grouped collective dispatch (RunMany).
type GroupResult struct {
	// Results holds the per-tensor outcomes in issue order.
	Results []Result
	// Seconds is the channel-serialized total: collectives issued on one
	// communicator execute back-to-back (FIFO), as on a real NCCL
	// communicator's stream.
	Seconds float64
	// Bytes is the total payload across the group.
	Bytes int64
	// ThroughputGBs is Bytes/Seconds.
	ThroughputGBs float64
	// CacheHits / CacheMisses count this group's own plan-cache activity:
	// every dispatch reports whether it replayed a cached plan or compiled
	// one, so the counts are exact no matter how many other goroutines
	// dispatch concurrently.
	CacheHits   uint64
	CacheMisses uint64
}

// runGroup submits one collective per payload size, in order, against one
// pinned state — a Reconfigure landing mid-group must not split the buckets
// across topologies — and aggregates the grouped totals plus the group's own
// cache activity. On a tenant request every bucket is admitted through the
// tenant's lane in turn; a rejected bucket fails the group with its
// ErrAdmissionRejected error.
func (e *Engine) runGroup(st *engineState, rq request, sizes []int64) (GroupResult, error) {
	if len(sizes) == 0 {
		return GroupResult{}, fmt.Errorf("collective: empty group")
	}
	g := GroupResult{Results: make([]Result, 0, len(sizes))}
	for _, sz := range sizes {
		rq.bytes = sz
		h := e.submit(st, rq, Inline)
		res, err := h.Wait()
		if err != nil {
			return GroupResult{}, err
		}
		if h.CacheHit() {
			g.CacheHits++
		} else {
			g.CacheMisses++
		}
		g.Results = append(g.Results, res)
		g.Seconds += res.Seconds
		g.Bytes += sz
	}
	if g.Seconds > 0 {
		g.ThroughputGBs = float64(g.Bytes) / g.Seconds / 1e9
	}
	return g, nil
}
