package collective

import (
	"runtime"
	"strconv"
	"sync/atomic"

	"blink/internal/obs"
)

// Async stream defaults: two worker streams (the CUDA default of issuing
// collectives on a comm stream plus a high-priority stream) and a 1 GiB
// in-flight byte window before submissions block.
const (
	DefaultAsyncStreams     = 2
	DefaultAsyncWindowBytes = 1 << 30
)

// yieldEvery is how many completed data chunks an async replay moves between
// cooperative yields: frequent enough that data replays on concurrent
// streams interleave chunk-by-chunk even on few cores, rare enough that the
// yield cost stays small next to the 64 chunks of data movement between two
// of them. A timing replay reports its progress once and never yields: it
// has no work to interleave.
const yieldEvery = 64

// Handle is the caller's reference to one submitted collective, returned by
// the *Async entry points of both engines. Exactly one of (result, error)
// becomes available when the op resolves; handles are safe for concurrent
// use by any number of goroutines. The result fields are written strictly
// before done closes, so waiters reading them after Done or Wait never race.
type Handle struct {
	done chan struct{}
	res  Result
	err  error
	hit  bool
	// verdict is the admission decision, set by the submitter before the
	// handle escapes to other goroutines (VerdictAdmit for non-tenant ops).
	verdict Verdict

	chunksDone  atomic.Int64
	chunksTotal atomic.Int64
}

// resolved is the done channel of every handle that is born resolved (a
// synchronous submission needs no channel of its own).
var resolved = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Wait blocks until the collective resolves and returns its result. It may
// be called any number of times, from any goroutine; every call returns
// the same outcome. A handle born resolved returns at once, without
// receiving from its closed channel.
func (h *Handle) Wait() (Result, error) {
	if h.done != resolved {
		<-h.done
	}
	return h.res, h.err
}

// Done returns a channel that is closed when the collective resolves —
// the select-friendly form of Wait.
func (h *Handle) Done() <-chan struct{} { return h.done }

// Err peeks at the handle without blocking: nil while the op is still in
// flight or if it succeeded, the terminal error once it has failed.
func (h *Handle) Err() error {
	select {
	case <-h.done:
		return h.err
	default:
		return nil
	}
}

// Deferred reports whether admission returned VerdictDefer for this op:
// it was admitted and will run, but its lane is past the low watermark
// and the submitter should back off. Always false for non-tenant
// submissions.
func (h *Handle) Deferred() bool { return h.verdict == VerdictDefer }

// CacheHit reports whether the dispatch replayed a cached plan (valid
// after the handle resolves; false while in flight).
func (h *Handle) CacheHit() bool {
	select {
	case <-h.done:
		return h.hit
	default:
		return false
	}
}

// Progress returns the replay progress: ops (pipelined chunk transfers and
// reductions, across all phases of a cluster schedule) completed so far and
// the schedule total. Total is 0 until the plan is compiled and its replay
// begins. A data-mode replay advances it chunk by chunk; a timing replay
// moves nothing and goes from (0, 0) straight to (total, total).
func (h *Handle) Progress() (done, total int64) {
	return h.chunksDone.Load(), h.chunksTotal.Load()
}

// hook returns the ReplayHook an async dispatch runs under: it publishes
// progress on the handle and yields the worker goroutine every yieldEvery
// chunks short of the last, so data replays in flight on different streams
// interleave chunk-by-chunk instead of monopolizing a core each. A timing
// replay calls it once, with done == total, so it never yields.
func (h *Handle) hook() func(done, total int) {
	return func(done, total int) {
		h.chunksTotal.Store(int64(total))
		h.chunksDone.Store(int64(done))
		if done%yieldEvery == 0 && done < total {
			runtime.Gosched()
		}
	}
}

// newStreamScheduler configures the scheduler behind RunAsync with
// NCCL-stream semantics: streams serial queues, one worker each, so ops on
// one stream run in submission order while streams overlap freely (a data
// replay yields between chunks, so ops in flight on different streams
// pipeline chunk by chunk); ops are pinned to a stream or round-robined;
// and the byte window blocks submissions for backpressure. It has no
// verdict bounds: untenanted calls are never rejected or deferred. Tenant
// traffic is admitted by the lanes (newLaneScheduler) and never comes
// through here.
func newStreamScheduler(streams int, windowBytes int64, reg *obs.Registry) *scheduler {
	s := newScheduler(max(streams, 1), max(streams, 1), true)
	s.window = windowBytes
	s.mSubmissions = reg.Counter("blink_async_submissions_total")
	s.mWaits = reg.Counter("blink_async_admission_waits_total")
	s.mWaitSeconds = reg.Histogram("blink_async_admission_wait_seconds", nil)
	s.mInflightBytes = reg.Gauge("blink_async_inflight_bytes")
	for i := range s.queues {
		s.queues[i].depth = reg.Gauge(`blink_async_queue_depth{stream="` + strconv.Itoa(i) + `"}`)
	}
	return s
}

// asyncConfig is the stream scheduler's pending configuration.
type asyncConfig struct {
	streams int
	window  int64
}

// normalized fills the zero fields with the async defaults.
func (c asyncConfig) normalized() asyncConfig {
	if c.streams <= 0 {
		c.streams = DefaultAsyncStreams
	}
	if c.window == 0 {
		c.window = DefaultAsyncWindowBytes
	}
	return c
}

// RunAsync submits one collective nonblockingly and returns its Handle.
// stream pins the op to a FIFO worker stream (ops on one stream execute in
// submission order, NCCL-stream semantics); stream < 0 round-robins.
//
// The engine's topology state is pinned at submission: a Reconfigure that
// lands while the op is queued or executing does not affect it — it
// completes on its snapshot, exactly like a synchronous call that was
// already in flight — while every submission after the reconfiguration
// sees the post-fault state. RunAsync blocks only for backpressure (the
// in-flight byte window); errors, including compile failures, resolve
// through the handle.
func (e *Engine) RunAsync(b Backend, op Op, root int, bytes int64, opts Options, stream int) *Handle {
	return e.Snapshot().Submit(b, op, root, bytes, &opts, stream)
}
