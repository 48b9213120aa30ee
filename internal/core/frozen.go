package core

import (
	"blink/internal/simgpu"
)

// FrozenPlan is an immutable, replayable form of a compiled schedule — the
// unit the collective layer's plan cache stores. Freezing decouples the
// expensive TreeGen -> minimize -> CodeGen pipeline (run once per unique
// schedule) from execution (run every training iteration), and the event
// simulation is on the once-per-schedule side of that line: Freeze runs it
// and keeps its result, its error and the order it launched the ops in, so
// a replay is a lookup. A timing replay returns the stored result; a
// data-mode or hooked replay walks the stored order. The plan is never
// mutated after Freeze, so any number of goroutines may replay it
// concurrently; the Result's Marks slice is shared by every replay and is
// read-only.
//
// Data-mode plans are templates too: their Exec closures resolve every
// buffer through the simgpu.BufferSet a caller passes to ReplayData, so
// concurrent data-mode replays are safe as long as each call supplies its
// own arena.
type FrozenPlan struct {
	// execs holds each op's data-movement closure, by op index (all nil for
	// a timing plan). It is all a replay needs of the ops: their timing is
	// in the memo below.
	execs      []func(*simgpu.BufferSet)
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
}

// Freeze converts a freshly built plan into its immutable, replayable form
// and simulates it once, over private copies of the ops with Exec stripped
// so that freezing a data-mode plan moves no data. The plan's op pointers
// must not be executed or mutated afterwards; the frozen copy is the
// canonical artifact.
func (p *Plan) Freeze() *FrozenPlan {
	fp := &FrozenPlan{
		execs:      make([]func(*simgpu.BufferSet), len(p.Ops)),
		fabric:     p.Fabric,
		partitions: p.Partitions,
		ir:         p.IR,
		order:      make([]int32, 0, len(p.Ops)),
	}
	timed := make([]simgpu.Op, len(p.Ops))
	sim := make([]*simgpu.Op, len(p.Ops))
	for i, op := range p.Ops {
		timed[i], sim[i], fp.execs[i] = *op, &timed[i], op.Exec
		timed[i].Exec = nil
		fp.hasExec = fp.hasExec || op.Exec != nil
	}
	fp.res, fp.err = simgpu.RunHooked(p.Fabric.Links, sim, nil, func(i int, _ *simgpu.Op) {
		fp.order = append(fp.order, int32(i))
	})
	return fp
}

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

// ReplayHook observes chunk-granular replay progress: it is called after
// each scheduled op (one pipelined chunk transfer or reduction) with the
// number of ops completed so far and the schedule's total. Hooks run on the
// replaying goroutine and must be cheap; an async stream scheduler uses
// them to publish in-flight progress and to yield between chunks so
// replays on concurrent streams interleave.
type ReplayHook func(done, total int)

// ReplayDataHooked is ReplayData with a chunk-granular progress hook; a nil
// hook is ReplayData. It never simulates. A schedule Freeze could not run
// returns that error and runs nothing; a timing plan with no hook returns
// the stored result at once; otherwise the stored launch order is walked,
// running each op's Exec against ctx (a throwaway arena when the plan has
// Exec closures and ctx is nil) and calling hook(done, total) after each op
// for done = 1..total — the sequence the simulator's own hook produced.
func (fp *FrozenPlan) ReplayDataHooked(ctx *simgpu.BufferSet, hook ReplayHook) (simgpu.Result, error) {
	if fp.err != nil || (!fp.hasExec && hook == nil) {
		return fp.res, fp.err
	}
	if fp.hasExec && ctx == nil {
		ctx = simgpu.NewBufferSet()
	}
	for done, i := range fp.order {
		if exec := fp.execs[i]; exec != nil {
			exec(ctx)
		}
		if hook != nil {
			hook(done+1, len(fp.order))
		}
	}
	return fp.res, nil
}

// Partitions is the partition count of a three-phase cluster schedule, zero
// for every other.
func (fp *FrozenPlan) Partitions() int { return fp.partitions }

// NumOps is the schedule's op count.
func (fp *FrozenPlan) NumOps() int { return len(fp.execs) }

// HasExec reports whether the schedule moves real data (data mode); such
// plans need a ReplayData arena for their results to be observable.
func (fp *FrozenPlan) HasExec() bool { return fp.hasExec }

// Fabric returns the fabric the schedule replays over.
func (fp *FrozenPlan) Fabric() *simgpu.Fabric { return fp.fabric }

// IR returns the serializable intermediate representation the schedule was
// generated from, or nil when the plan was built outside CodeGen (hybrid
// and cluster plans); only plans with an IR can be encoded.
func (fp *FrozenPlan) IR() *PlanIR { return fp.ir }
