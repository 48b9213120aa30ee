package core

import (
	"blink/internal/simgpu"
)

// FrozenPlan is an immutable, replayable form of a compiled schedule — the
// unit the collective layer's plan cache stores. Freezing decouples the
// expensive TreeGen -> minimize -> CodeGen pipeline (run once per unique
// schedule) from execution (run every training iteration): Replay
// instantiates fresh simulator ops from the frozen templates, so the shared
// plan is never mutated and any number of goroutines may replay the same
// plan concurrently over the same fabric.
//
// Data-mode plans are templates too: their Exec closures resolve every
// buffer through the simgpu.BufferSet a caller passes to ReplayData, so
// concurrent data-mode replays are safe as long as each call supplies its
// own arena. Nothing about execution is shared between calls.
type FrozenPlan struct {
	ops        []simgpu.Op // value templates; Deps/Links slices shared read-only
	totalBytes int64
	fabric     *simgpu.Fabric
	streams    int
	partitions int
	hasExec    bool
	// ir is the serializable IR the plan was generated from, nil when the
	// plan was built outside CodeGen. Plans with an IR round-trip through
	// EncodePlan/DecodePlan; data-mode Exec closures are regenerated from
	// the IR on decode.
	ir *PlanIR
}

// Freeze converts a freshly built plan into its immutable, replayable form.
// The plan's op pointers must not be executed or mutated afterwards; the
// frozen copy is the canonical artifact.
func (p *Plan) Freeze() *FrozenPlan {
	fp := &FrozenPlan{
		ops:        make([]simgpu.Op, len(p.Ops)),
		totalBytes: p.TotalBytes,
		fabric:     p.Fabric,
		streams:    p.Streams,
		partitions: p.Partitions,
		ir:         p.IR,
	}
	for i, op := range p.Ops {
		fp.ops[i] = *op
		if op.Exec != nil {
			fp.hasExec = true
		}
	}
	return fp
}

// Replay executes the schedule on its fabric for timing. Each call
// materializes fresh ops from the templates, so concurrent replays of the
// same FrozenPlan are always safe. Exec closures, if present, run against a
// throwaway arena; use ReplayData to move data a caller can observe.
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

// ReplayDataHooked is ReplayData with a chunk-granular progress hook. A nil
// hook is ReplayData.
func (fp *FrozenPlan) ReplayDataHooked(ctx *simgpu.BufferSet, hook ReplayHook) (simgpu.Result, error) {
	ops := make([]*simgpu.Op, len(fp.ops))
	for i := range fp.ops {
		op := fp.ops[i]
		ops[i] = &op
	}
	if hook == nil {
		return fp.fabric.Run(ops, ctx)
	}
	total := len(ops)
	done := 0
	return fp.fabric.RunHooked(ops, ctx, func(int, *simgpu.Op) {
		done++
		hook(done, total)
	})
}

// TotalBytes is the collective payload the schedule moves.
func (fp *FrozenPlan) TotalBytes() int64 { return fp.totalBytes }

// Streams is the number of distinct streams the schedule occupies.
func (fp *FrozenPlan) Streams() int { return fp.streams }

// Partitions is the partition count of a three-phase cluster schedule, zero
// for every other.
func (fp *FrozenPlan) Partitions() int { return fp.partitions }

// NumOps is the schedule's op count.
func (fp *FrozenPlan) NumOps() int { return len(fp.ops) }

// HasExec reports whether the schedule moves real data (data mode); such
// plans need a ReplayData arena for their results to be observable.
func (fp *FrozenPlan) HasExec() bool { return fp.hasExec }

// Fabric returns the fabric the schedule replays over.
func (fp *FrozenPlan) Fabric() *simgpu.Fabric { return fp.fabric }

// IR returns the serializable intermediate representation the schedule was
// generated from, or nil when the plan was built outside CodeGen (hybrid
// and cluster plans); only plans with an IR can be encoded.
func (fp *FrozenPlan) IR() *PlanIR { return fp.ir }
