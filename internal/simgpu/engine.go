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
	// Tag names the op in traces.
	Tag Tag
	// Mark reports the op's finish time in Result.Marks. A schedule with
	// phases marks one zero-resource op per phase boundary that waits for
	// the phase's ops, so one run yields the makespan and where inside it
	// each phase ended.
	Mark bool
}

// Tag is an op's trace name in compact form: a kind, a transfer leg and up
// to four small integers, which the schedule's builder formats into a label
// only when a trace asks for one (core.OpLabel).
type Tag struct {
	Kind, Leg  uint8
	A, B, C, D int32
}

// Result summarizes one engine run.
type Result struct {
	// Makespan is the time the last op finishes.
	Makespan float64
	// Ops is the number of ops executed.
	Ops int
	// Marks holds the finish times of the ops flagged Mark, in op order (nil
	// when the schedule marks none).
	Marks []float64
}

// Run simulates the op set over the link table and returns the makespan.
// It invokes Exec closures in dependency order against bufs, the call's
// private buffer arena, over the window of every float. A nil bufs is
// replaced by a fresh throwaway arena, so timing-only executions of
// Exec-carrying schedules stay safe (the moved data is simply discarded).
// Deterministic: ties break on op index.
func Run(links []Link, ops []*Op, bufs *BufferSet) (Result, error) {
	var s Sim
	return s.Run(links, ops, bufs, nil)
}

// Sim is the event simulator behind Run. It reads the ops and never writes
// them: every per-op quantity of a run — each op's stream slot, its
// dependents, unmet dependency count and ready time, and the start and
// finish it is given — lives in the Sim's own dense arrays, sized once per
// run, so a run allocates the same handful of slices whatever the schedule's
// length. A Sim may be reused; it is not safe for concurrent runs.
type Sim struct {
	// Start and Finish are each op's simulated start and finish time, by op
	// index, after a Run.
	Start, Finish []float64
	// SkipExec times the schedule without running any op's Exec: a run that
	// only wants the timing (core.Plan.Freeze, traces) moves no data.
	SkipExec bool

	stream               []int32   // op -> dense stream slot
	streamOff, streamOps []int32   // per-slot op lists, in op order (CSR)
	streamNext           []int32   // per slot: position of the next op to launch
	streamFree           []float64 // per slot: when its last op finished
	depOff, dependents   []int32   // per op: the ops waiting for it (CSR)
	pending              []int32   // per op: unmet dependency count
	depReady             []float64 // per op: latest finish over its deps so far
	linkFree             []float64
	ready                readyHeap
}

// Run simulates ops over links; see the package-level Run. onOp, when
// non-nil, fires after each op is scheduled, in launch order.
func (s *Sim) Run(links []Link, ops []*Op, bufs *BufferSet, onOp func(i int, op *Op)) (Result, error) {
	n := len(ops)
	res := Result{Ops: n}
	s.Start, s.Finish = resize(s.Start, n), resize(s.Finish, n)
	if n == 0 {
		return res, nil
	}
	edges, lo, hi := 0, ops[0].Stream, ops[0].Stream
	for i, op := range ops {
		if l := op.Link; l >= len(links) {
			return res, fmt.Errorf("simgpu: op %d references unknown link %d", i, l)
		} else if l >= 0 && links[l].BW <= 0 {
			return res, fmt.Errorf("simgpu: op %d uses link %d with bw %v", i, l, links[l].BW)
		}
		for _, d := range op.Deps {
			if d < 0 || d >= n {
				return res, fmt.Errorf("simgpu: op %d has invalid dep %d", i, d)
			}
		}
		edges += len(op.Deps)
		lo, hi = min(lo, op.Stream), max(hi, op.Stream)
	}
	// Streams are numbered densely by every schedule builder; a stream's
	// slot is its ID less the smallest.
	if uint(hi)-uint(lo) > uint(4*n) {
		return res, fmt.Errorf("simgpu: stream IDs %d..%d are too sparse for %d ops", lo, hi, n)
	}
	slots := hi - lo + 1

	// Dependents and per-slot op lists (CSR): count into the offsets, sum
	// them to each list's end, then fill backwards so both keep op order.
	s.pending, s.depReady = resize(s.pending, n), resize(s.depReady, n)
	s.depOff, s.dependents = resize(s.depOff, n+1), resize(s.dependents, edges)
	s.stream, s.streamOff, s.streamOps = resize(s.stream, n), resize(s.streamOff, slots+1), resize(s.streamOps, n)
	for i, op := range ops {
		s.pending[i] = int32(len(op.Deps))
		for _, d := range op.Deps {
			s.depOff[d]++
		}
		s.stream[i] = int32(op.Stream - lo)
		s.streamOff[s.stream[i]]++
	}
	prefixSum(s.depOff)
	prefixSum(s.streamOff)
	for i := n - 1; i >= 0; i-- {
		for _, d := range ops[i].Deps {
			s.depOff[d]--
			s.dependents[s.depOff[d]] = int32(i)
		}
		k := s.stream[i]
		s.streamOff[k]--
		s.streamOps[s.streamOff[k]] = int32(i)
	}
	s.streamNext = resize(s.streamNext, slots)
	s.streamFree = resize(s.streamFree, slots)
	s.linkFree = resize(s.linkFree, len(links))
	s.ready = resize(s.ready, n)[:0]
	for i := range ops {
		s.tryEnqueue(int32(i))
	}

	done := 0
	for len(s.ready) > 0 {
		i := s.ready.pop()
		op := ops[i.op]
		// Launch overhead is charged on the stream (i.ready already folds
		// in the stream's previous finish); the wire portion must then find
		// a free slot on the link.
		wire, l, finish := 0.0, op.Link, i.ready+op.Overhead
		if l >= 0 {
			wire = links[l].Latency + float64(op.Bytes)/(links[l].BW*1e9)
			finish = max(finish+wire, s.linkFree[l]+wire)
			s.linkFree[l] = finish
		}
		s.Start[i.op] = max(finish-wire-op.Overhead, i.ready) // guard FP rounding
		s.Finish[i.op] = finish
		if op.Exec != nil && !s.SkipExec {
			if bufs == nil {
				bufs = NewBufferSet()
			}
			op.Exec(bufs, Window{Hi: math.MaxInt})
		}
		done++
		res.Makespan = max(res.Makespan, finish)
		if onOp != nil {
			onOp(int(i.op), op)
		}

		// Advance the stream and release dependents.
		k := s.stream[i.op]
		s.streamNext[k]++
		s.streamFree[k] = max(s.streamFree[k], finish)
		if next := s.streamOff[k] + s.streamNext[k]; next < s.streamOff[k+1] {
			s.tryEnqueue(s.streamOps[next])
		}
		for _, d := range s.dependents[s.depOff[i.op]:s.depOff[i.op+1]] {
			s.pending[d]--
			s.depReady[d] = max(s.depReady[d], finish)
			s.tryEnqueue(d)
		}
	}
	if done != n {
		return res, fmt.Errorf("simgpu: deadlock: %d of %d ops executed (cyclic deps or stream order conflict)", done, n)
	}
	for i, op := range ops {
		if op.Mark {
			res.Marks = append(res.Marks, s.Finish[i])
		}
	}
	return res, nil
}

// tryEnqueue makes op i ready if it is at the front of its stream and all
// its deps are met.
func (s *Sim) tryEnqueue(i int32) {
	k := s.stream[i]
	if s.pending[i] > 0 || s.streamOps[s.streamOff[k]+s.streamNext[k]] != i {
		return
	}
	s.ready.push(readyOp{ready: max(s.depReady[i], s.streamFree[k]), op: i})
}

// readyOp is an op whose deps are met and whose stream has reached it.
type readyOp struct {
	ready float64
	op    int32
}

// readyHeap is a 4-ary min-heap of ready ops, earliest ready time first and
// ties to the lower op index. Its sifts move a hole, so each op they move
// is written once.
type readyHeap []readyOp

func (a readyOp) before(b readyOp) bool {
	if a.ready != b.ready {
		return a.ready < b.ready
	}
	return a.op < b.op
}

func (h *readyHeap) push(x readyOp) {
	q := append(*h, x)
	i := len(q) - 1
	for ; i > 0 && x.before(q[(i-1)/4]); i = (i - 1) / 4 {
		q[i] = q[(i-1)/4]
	}
	q[i] = x
	*h = q
}

func (h *readyHeap) pop() readyOp {
	q := *h
	top, last := q[0], len(q)-1
	x, i := q[last], 0
	q = q[:last]
	for c := 1; c < last; c = 4*i + 1 {
		m := c
		for k := c + 1; k < min(c+4, last); k++ {
			if q[k].before(q[m]) {
				m = k
			}
		}
		if !q[m].before(x) {
			break
		}
		q[i], i = q[m], m
	}
	if last > 0 {
		q[i] = x
	}
	*h = q
	return top
}

// prefixSum turns per-entry counts into running totals, in place.
func prefixSum(b []int32) {
	for i := 1; i < len(b); i++ {
		b[i] += b[i-1]
	}
}

// resize returns b with length n and every element zero, reusing its array
// when it is large enough.
func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	b = b[:n]
	clear(b)
	return b
}
