// Package simgpu is the execution substrate substituting for CUDA in this
// reproduction: a deterministic discrete-event simulator of GPUs, links and
// streams. Collective schedules compile to ops (copies, reductions) placed
// on streams; the engine enforces CUDA-like semantics — FIFO execution
// within a stream, event dependencies across streams, serialization of
// concurrent transfers that share a link — and charges per-op launch
// overheads plus size/bandwidth transfer times. Ops may carry closures that
// move real data between device buffers, so the same schedule that is timed
// is also verified for functional correctness.
package simgpu

import (
	"container/heap"
	"fmt"
	"math"
)

// Link is a directed communication or compute resource. Concurrent ops on
// the same link serialize in ready-time order (FIFO arbitration). Only wire
// time (Latency + Bytes/BW) occupies the link; op launch overhead is
// host-side and serializes per stream instead, so independent streams can
// overlap their launch costs exactly as CUDA streams do.
type Link struct {
	// BW is the service rate in GB/s (1e9 bytes per second).
	BW float64
	// Latency is the per-transfer wire/protocol latency in seconds.
	Latency float64
	// Label is used in traces and error messages.
	Label string
}

// Op is one scheduled operation.
type Op struct {
	// Stream identifies the ordered queue this op belongs to. Ops sharing a
	// stream execute in the order they appear in the op slice.
	Stream int
	// Link indexes the engine's link table, or -1 for zero-resource ops
	// (pure synchronization points).
	Link int
	// Links, when non-empty, lists ALL links the op occupies for its
	// duration (e.g. a switch-fabric transfer holds the sender's up-link
	// and the receiver's down-link). It takes precedence over Link; the
	// service rate is the slowest listed link.
	Links []int
	// Bytes is the payload size; transfer time is Bytes / (BW*1e9).
	Bytes int64
	// Overhead is a fixed launch/sync cost in seconds.
	Overhead float64
	// Deps lists op indices that must finish before this op starts.
	Deps []int
	// Exec, if non-nil, runs when the op is scheduled (all deps complete),
	// performing the actual data movement against the per-call buffer arena
	// passed to Run, over the floats of window w (Run passes every float).
	// Closures must resolve every buffer through that arena — never through
	// captured state — so one schedule can serve any number of concurrent
	// calls. A replay walks the schedule once per window, concurrently, so a
	// closure must be index-aligned: it reads float i of a buffer only to
	// write float i, touches only floats inside w, and resolves every buffer
	// it names, at the same length, even when its range clips to nothing
	// (RecordManifest learns a schedule's buffers from an empty-window walk,
	// and a replay allocates exactly those before any stripe runs).
	Exec func(bufs *BufferSet, w Window)
	// Label annotates traces.
	Label string

	start, finish float64
	scheduled     bool
	// Mark reports the op's finish time in Result.Marks. A schedule with
	// phases marks one zero-resource op per phase boundary that waits for
	// the phase's ops, so one run yields the makespan and where inside it
	// each phase ended.
	Mark bool
}

// linkSet returns the links the op occupies.
func (o *Op) linkSet() []int {
	if len(o.Links) > 0 {
		return o.Links
	}
	if o.Link >= 0 {
		return []int{o.Link}
	}
	return nil
}

// Start returns the op's simulated start time (valid after Run).
func (o *Op) Start() float64 { return o.start }

// Finish returns the op's simulated finish time (valid after Run).
func (o *Op) Finish() float64 { return o.finish }

// Scheduled reports whether the op has been executed by a completed Run:
// false on a freshly built plan, true for every op after the run finishes
// (Run clears the flag on entry, so a re-run starts from false again).
// Tracing uses it to tell whether a plan already carries timings.
func (o *Op) Scheduled() bool { return o.scheduled }

// Result summarizes one engine run.
type Result struct {
	// Makespan is the time the last op finishes.
	Makespan float64
	// Ops is the number of ops executed.
	Ops int
	// BusiestLink and BusiestLinkTime identify the most occupied link.
	BusiestLink     int
	BusiestLinkTime float64
	// Marks holds the finish times of the ops flagged Mark, in op order (nil
	// when the schedule marks none).
	Marks []float64
}

type pqItem struct {
	op    int
	ready float64
}

type opPQ []pqItem

func (q opPQ) Len() int { return len(q) }
func (q opPQ) Less(i, j int) bool {
	if q[i].ready != q[j].ready {
		return q[i].ready < q[j].ready
	}
	return q[i].op < q[j].op
}
func (q opPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *opPQ) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *opPQ) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// Run simulates the op set over the link table and returns the makespan.
// It mutates the ops (recording start/finish) and invokes Exec closures in
// dependency order against bufs, the call's private buffer arena, over the
// window of every float. A nil bufs is replaced by a fresh throwaway arena,
// so timing-only executions of Exec-carrying schedules stay safe (the moved
// data is simply discarded).
// Deterministic: ties break on op index.
func Run(links []Link, ops []*Op, bufs *BufferSet) (Result, error) {
	return RunHooked(links, ops, bufs, nil)
}

// RunHooked is Run plus a per-op completion hook: onOp fires after each op
// is scheduled (its Exec closure, if any, has already run), in dependency
// order. A nil hook is Run. It has exactly one product caller,
// core.Plan.Freeze, and the hook is how the launch order leaves a run:
// Freeze records it once, and every replay — its data movement, progress
// reports and between-chunk yields — walks that record instead of
// simulating again.
func RunHooked(links []Link, ops []*Op, bufs *BufferSet, onOp func(i int, op *Op)) (Result, error) {
	n := len(ops)
	res := Result{Ops: n, BusiestLink: -1}
	if n == 0 {
		return res, nil
	}
	for i, op := range ops {
		for _, l := range op.linkSet() {
			if l >= len(links) || l < 0 {
				return res, fmt.Errorf("simgpu: op %d references unknown link %d", i, l)
			}
			if links[l].BW <= 0 {
				return res, fmt.Errorf("simgpu: op %d uses link %d with bw %v", i, l, links[l].BW)
			}
		}
		op.scheduled = false
	}

	// Per-stream FIFO: streamNext[s] is the index into streamOps[s] of the
	// next op allowed to start.
	streamOps := map[int][]int{}
	for i, op := range ops {
		streamOps[op.Stream] = append(streamOps[op.Stream], i)
	}
	streamNext := map[int]int{}
	streamFree := map[int]float64{}

	pending := make([]int, n) // unmet dep count
	dependents := make([][]int, n)
	for i, op := range ops {
		pending[i] = len(op.Deps)
		for _, d := range op.Deps {
			if d < 0 || d >= n {
				return res, fmt.Errorf("simgpu: op %d has invalid dep %d", i, d)
			}
			dependents[d] = append(dependents[d], i)
		}
	}
	depReady := make([]float64, n) // max finish over deps seen so far

	linkFree := make([]float64, len(links))
	linkBusy := make([]float64, len(links))

	pq := &opPQ{}
	// tryEnqueue inserts op i if it is at the front of its stream and all
	// deps are met.
	tryEnqueue := func(i int) {
		op := ops[i]
		q := streamOps[op.Stream]
		if q[streamNext[op.Stream]] != i {
			return
		}
		if pending[i] > 0 {
			return
		}
		ready := math.Max(depReady[i], streamFree[op.Stream])
		heap.Push(pq, pqItem{op: i, ready: ready})
	}
	for s := range streamOps {
		streamNext[s] = 0
	}
	for i := range ops {
		tryEnqueue(i)
	}

	done := 0
	for pq.Len() > 0 {
		it := heap.Pop(pq).(pqItem)
		i := it.op
		op := ops[i]
		if op.scheduled {
			continue
		}
		op.scheduled = true
		ls := op.linkSet()
		wire := 0.0
		if len(ls) > 0 {
			rate := math.Inf(1)
			for _, l := range ls {
				if links[l].BW < rate {
					rate = links[l].BW
				}
				if links[l].Latency > wire {
					wire = links[l].Latency
				}
			}
			wire += float64(op.Bytes) / (rate * 1e9)
		}
		// Launch overhead is charged on the stream (it.ready already folds
		// in the stream's previous finish); the wire portion must then find
		// a free slot on every link.
		finish := it.ready + op.Overhead + wire
		for _, l := range ls {
			if f := linkFree[l] + wire; f > finish {
				finish = f
			}
		}
		op.start = finish - wire - op.Overhead
		if op.start < it.ready { // guard FP rounding
			op.start = it.ready
		}
		op.finish = finish
		for _, l := range ls {
			linkFree[l] = finish
			linkBusy[l] += wire
		}
		if op.Exec != nil {
			if bufs == nil {
				bufs = NewBufferSet()
			}
			op.Exec(bufs, Window{Hi: math.MaxInt})
		}
		done++
		if op.finish > res.Makespan {
			res.Makespan = op.finish
		}
		if onOp != nil {
			onOp(i, op)
		}

		// Advance the stream and release dependents.
		s := op.Stream
		streamNext[s]++
		if streamFree[s] < op.finish {
			streamFree[s] = op.finish
		}
		if streamNext[s] < len(streamOps[s]) {
			tryEnqueue(streamOps[s][streamNext[s]])
		}
		for _, d := range dependents[i] {
			pending[d]--
			if depReady[d] < op.finish {
				depReady[d] = op.finish
			}
			tryEnqueue(d)
		}
	}
	if done != n {
		return res, fmt.Errorf("simgpu: deadlock: %d of %d ops executed (cyclic deps or stream order conflict)", done, n)
	}
	for _, op := range ops {
		if op.Mark {
			res.Marks = append(res.Marks, op.finish)
		}
	}
	for l, b := range linkBusy {
		if b > res.BusiestLinkTime {
			res.BusiestLinkTime = b
			res.BusiestLink = l
		}
	}
	return res, nil
}
