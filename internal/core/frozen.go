package core

import (
	"runtime"
	"sync"

	"blink/internal/simgpu"
)

// FrozenPlan is an immutable, replayable form of a compiled schedule — the
// unit the collective layer's plan cache stores. Freezing decouples the
// expensive TreeGen -> minimize -> CodeGen pipeline (run once per unique
// schedule) from execution (run every training iteration), and the event
// simulation is on the once-per-schedule side of that line: Freeze runs it
// and keeps its result, its error and the order it launched the ops in, so
// a replay is a lookup. A timing replay returns the stored result, hooked or
// not; only a data-mode replay walks the stored order. The plan is never
// mutated after Freeze, so any number of goroutines may replay it
// concurrently; the Result's Marks slice is shared by every replay and is
// read-only.
//
// Data-mode plans are templates too: their Exec closures resolve every
// buffer through the simgpu.BufferSet a caller passes to ReplayData, so
// concurrent data-mode replays are safe as long as each call supplies its
// own arena. One data replay is itself concurrent: its stripes share the
// call's arena over disjoint float windows (ReplayDataHooked).
type FrozenPlan struct {
	// execs holds each op's data-movement closure, by op index (nil for a
	// timing plan). It is all a replay needs of the ops: their timing is in
	// the memo below.
	execs      []Exec
	ops        int
	fabric     *simgpu.Fabric
	partitions int
	hasExec    bool
	// ir is the serializable IR the plan was generated from, nil when the
	// plan was built outside CodeGen. Plans with an IR round-trip through
	// EncodePlan/DecodePlan; data-mode Exec closures are regenerated from
	// the IR on decode.
	ir *PlanIR
	// res, err and order are the memo of the one simulation Freeze ran:
	// what it returned, and the op indices in the order it launched them
	// (a prefix of them when it failed; no replay walks it then).
	res   simgpu.Result
	err   error
	order []int32
	// manifest is every buffer the Exec closures name, recorded once at
	// Freeze for a data-mode plan that runs: what a data replay puts in its
	// arena before any stripe walks.
	manifest simgpu.Manifest
}

// Freeze converts a freshly built plan into its immutable, replayable form
// and simulates it once. The simulator reads the plan's ops in place and
// skips their Exec closures, so freezing a data-mode plan moves no data.
// The plan's ops must not be mutated afterwards; the frozen plan is the
// canonical artifact. A nil plan freezes to nil, so a builder's result can
// be frozen as it is returned, error or not.
func (p *Plan) Freeze() *FrozenPlan {
	if p == nil {
		return nil
	}
	fp := &FrozenPlan{
		fabric:     p.Fabric,
		partitions: p.Partitions,
		ir:         p.IR,
	}
	for _, op := range p.Ops {
		fp.hasExec = fp.hasExec || op.Exec != nil
	}
	if fp.hasExec {
		fp.execs = make([]Exec, len(p.Ops))
		for i, op := range p.Ops {
			fp.execs[i] = op.Exec
		}
	}
	run := p.memo
	if run == nil {
		sim := sims.Get().(*simgpu.Sim)
		r := p.run(sim, make([]int32, 0, len(p.Ops)))
		sims.Put(sim)
		run = &r
	}
	fp.res, fp.err, fp.order, fp.ops = run.res, run.err, run.order, run.ops
	if fp.hasExec && fp.err == nil {
		fp.manifest = simgpu.RecordManifest(func(s *simgpu.BufferSet) { fp.walk(s, simgpu.Window{}, nil) })
	}
	return fp
}

// simRun is one simulation of a plan: what it returned, the op indices in
// the order it launched them, and how many ops the plan has.
type simRun struct {
	res   simgpu.Result
	err   error
	order []int32
	ops   int
}

// run simulates the plan on sim, appending its launch order to order.
func (p *Plan) run(sim *simgpu.Sim, order []int32) simRun {
	res, err := sim.Run(p.Fabric.Links, p.Ops, nil, func(i int, _ *simgpu.Op) { order = append(order, int32(i)) })
	return simRun{res, err, order, len(p.Ops)}
}

// sims holds simulators between Freezes, so a compile reuses the dense
// arrays an earlier one sized instead of allocating its own.
var sims = sync.Pool{New: func() any { return &simgpu.Sim{SkipExec: true} }}

// Replay returns the schedule's simulated run for timing. Exec closures, if
// present, run against a throwaway arena; use ReplayData to move data a
// caller can observe.
func (fp *FrozenPlan) Replay() (simgpu.Result, error) { return fp.ReplayData(nil) }

// ReplayData executes the schedule against ctx, the call's private buffer
// arena: Exec closures read their inputs from and leave their results in
// ctx, so any number of goroutines may replay one frozen plan concurrently,
// each with its own arena.
func (fp *FrozenPlan) ReplayData(ctx *simgpu.BufferSet) (simgpu.Result, error) {
	return fp.ReplayDataHooked(ctx, nil)
}

// ReplayHook observes replay progress with the number of scheduled ops
// (pipelined chunk transfers and reductions) completed so far and the
// schedule's total. A data replay calls it after each op, in launch order; a
// timing replay moves nothing and calls it once, with (total, total). Hooks
// run on the replaying goroutine and must be cheap; an async stream
// scheduler uses them to publish in-flight progress and to yield between
// data chunks so replays on concurrent streams interleave.
type ReplayHook func(done, total int)

// ReplayDataHooked is ReplayData with a progress hook; a nil hook is
// ReplayData. It never simulates. A schedule Freeze could not run returns
// that error and runs nothing. A timing plan returns the stored result at
// once, calling hook(n, n) first, n being its op count: with nothing to
// move there is no progress in between to report. A data-mode plan runs its
// Exec closures against ctx (a throwaway arena when ctx is nil) in striped
// walks of the stored launch order (replayStripes), the calling goroutine's
// stripe calling hook(done, total) after each op for done = 1..total — the
// sequence the simulator's own hook produced.
func (fp *FrozenPlan) ReplayDataHooked(ctx *simgpu.BufferSet, hook ReplayHook) (simgpu.Result, error) {
	switch {
	case fp.err != nil:
		return fp.res, fp.err
	case !fp.hasExec:
		if hook != nil {
			hook(len(fp.order), len(fp.order))
		}
	default:
		if ctx == nil {
			ctx = simgpu.NewBufferSet()
		}
		fp.replayStripes(ctx, hook, nil)
	}
	return fp.res, nil
}

// minStripeFloats is the smallest float window worth a stripe of its own.
// Every stripe walks the whole launch order, resolving each Exec's buffers,
// and all but one cost a goroutine start, so a stripe must carry enough
// memory traffic to pay for that. BenchmarkWarmReplayData on a 2-vCPU Xeon
// (8-rank DGX-1V AllReduce, GOMAXPROCS 2): at 64 KB per rank two 8K-float
// stripes bought nothing over the serial walk (0.26–0.31 ms either way), at
// 256 KB two 32K-float stripes cut 0.87–0.92 ms to 0.65–0.70, at 1 MB two
// stripes cut 4.1–5.6 ms to 2.4–3.1 and at 16 MB 76–89 ms to 47–60.
const minStripeFloats = 32 << 10

// replayStripes is a data replay in k stripes, stripe s over floats
// [cuts[s], cuts[s+1]): stripe 0 on the calling goroutine with the hook, the
// others on goroutines that have finished when it returns. Each stripe first
// allocates its share of the buffers the manifest names and ctx lacks
// (simgpu.BufferSet.Reserve); once every stripe has, each walks the launch
// order over its own window. Every Exec is index-aligned (simgpu.Op.Exec),
// so each float sees exactly the operations of a serial walk, in the same
// order, from one goroutine: the arena ends bit-identical to it. Nil cuts
// split the manifest's span, below which lies every float an Exec touches,
// evenly into min(GOMAXPROCS, span/minStripeFloats) stripes, at least one —
// one stripe is the serial walk.
func (fp *FrozenPlan) replayStripes(ctx *simgpu.BufferSet, hook ReplayHook, cuts []int) {
	k, cut := len(cuts)-1, func(s int) int { return cuts[s] }
	if cuts == nil {
		span := fp.manifest.Span()
		k = max(1, min(runtime.GOMAXPROCS(0), span/minStripeFloats))
		cut = func(s int) int { return s * span / k }
	}
	b := &stripeBarrier{}
	b.reserved.Add(k)
	b.walked.Add(k - 1)
	for s := 1; s < k; s++ {
		s, w := s, simgpu.Window{Lo: cut(s), Hi: cut(s + 1)}
		go func() {
			defer b.walked.Done()
			fp.stripe(ctx, b, s, k, w, nil)
		}()
	}
	fp.stripe(ctx, b, 0, k, simgpu.Window{Lo: cut(0), Hi: cut(1)}, hook)
	b.walked.Wait()
}

// stripeBarrier is one data replay's synchronisation: reserved holds every
// stripe until all have reserved their share of the arena, and walked holds
// the calling goroutine until the other stripes have walked.
type stripeBarrier struct{ reserved, walked sync.WaitGroup }

// stripe is stripe s of k: its share of the arena's allocation, the barrier,
// then its walk over window w.
func (fp *FrozenPlan) stripe(ctx *simgpu.BufferSet, b *stripeBarrier, s, k int, w simgpu.Window, hook ReplayHook) {
	ctx.Reserve(&fp.manifest, s, k)
	b.reserved.Done()
	b.reserved.Wait()
	fp.walk(ctx, w, hook)
}

// walk runs the launch order once: each op's Exec over window w of ctx,
// then hook(done, total).
func (fp *FrozenPlan) walk(ctx *simgpu.BufferSet, w simgpu.Window, hook ReplayHook) {
	for done, i := range fp.order {
		if exec := fp.execs[i]; exec != nil {
			exec(ctx, w)
		}
		if hook != nil {
			hook(done+1, len(fp.order))
		}
	}
}

// Partitions is the partition count of a three-phase cluster schedule, zero
// for every other.
func (fp *FrozenPlan) Partitions() int { return fp.partitions }

// NumOps is the schedule's op count.
func (fp *FrozenPlan) NumOps() int { return fp.ops }

// HasExec reports whether the schedule moves real data (data mode); such
// plans need a ReplayData arena for their results to be observable.
func (fp *FrozenPlan) HasExec() bool { return fp.hasExec }

// Fabric returns the fabric the schedule replays over.
func (fp *FrozenPlan) Fabric() *simgpu.Fabric { return fp.fabric }

// IR returns the serializable intermediate representation the schedule was
// generated from, or nil when the plan was built outside CodeGen (cluster
// plans); only plans with an IR can be encoded.
func (fp *FrozenPlan) IR() *PlanIR { return fp.ir }
