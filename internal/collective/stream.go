package collective

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"blink/internal/obs"
)

// Async stream defaults: two worker streams (the CUDA default of issuing
// collectives on a comm stream plus a high-priority stream) and a 1 GiB
// in-flight byte window before submissions block.
const (
	DefaultAsyncStreams     = 2
	DefaultAsyncWindowBytes = 1 << 30
)

// yieldEvery is how many completed chunks an async replay processes between
// cooperative yields: frequent enough that replays on concurrent streams
// interleave chunk-by-chunk even on few cores, rare enough that the yield
// cost stays small next to the 64 hook calls (and, in data mode, the 64
// chunks of data movement) between two of them.
const yieldEvery = 64

// Handle is the caller's reference to one submitted collective, returned by
// the *Async entry points of both engines. Exactly one of (result, error)
// becomes available when the op resolves; handles are safe for concurrent
// use by any number of goroutines.
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

func newHandle() *Handle { return &Handle{done: make(chan struct{})} }

// complete publishes the op's outcome and releases every waiter. The
// result fields are written strictly before the channel close, so waiters
// reading them after Done()/Wait() never race.
func (h *Handle) complete(res Result, hit bool, err error) {
	h.res, h.hit, h.err = res, hit, err
	close(h.done)
}

// Wait blocks until the collective resolves and returns its result. It may
// be called any number of times, from any goroutine; every call returns
// the same outcome.
func (h *Handle) Wait() (Result, error) {
	<-h.done
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

// Progress returns the chunk-granular replay progress: ops (pipelined
// chunk transfers and reductions, across all phases of a cluster schedule)
// completed so far and the schedule total. Total is 0 until the plan is
// compiled and its replay begins.
func (h *Handle) Progress() (done, total int64) {
	return h.chunksDone.Load(), h.chunksTotal.Load()
}

// hook returns the ReplayHook an async dispatch runs under: it publishes
// chunk progress on the handle and yields the worker goroutine every
// yieldEvery chunks, so replays in flight on different streams interleave
// chunk-by-chunk instead of monopolizing a core each.
func (h *Handle) hook() func(done, total int) {
	return func(done, total int) {
		h.chunksTotal.Store(int64(total))
		h.chunksDone.Store(int64(done))
		if done%yieldEvery == 0 {
			runtime.Gosched()
		}
	}
}

// streamTask is one queued async dispatch. run receives the stream the task
// landed on (resolved under the scheduler lock at admission), so observers
// see the real stream even for round-robin submissions.
type streamTask struct {
	bytes int64
	run   func(stream int)
}

// streamQueue is one FIFO worker stream. Its worker goroutine is
// ephemeral: spawned when the first task arrives, exits when the queue
// drains, so an idle communicator holds no goroutines at all (and tests
// can assert goroutine counts settle after the last handle resolves).
type streamQueue struct {
	id      int
	tasks   []streamTask
	running bool
}

// streamScheduler dispatches async collectives onto a bounded set of
// worker streams with NCCL-stream semantics: strict FIFO ordering within a
// stream, free overlap across streams (each stream is its own goroutine,
// and replays yield between chunks, so in-flight ops pipeline
// chunk-by-chunk). Submissions apply backpressure: when the bytes in flight
// exceed the window, submit blocks until completions free space, and
// admission is strictly ticket-ordered (FIFO): a submission blocked on the
// window is never overtaken by later submissions that happen to fit, so an
// oversized op cannot be starved by a stream of small ones. One op larger
// than the whole window is still admitted — alone — so oversized payloads
// make progress instead of deadlocking. This is the admission stage of
// untenanted calls only; tenant traffic is classed and admitted by the lane
// scheduler (lanes.go) and never comes through here.
type streamScheduler struct {
	mu       sync.Mutex
	space    sync.Cond // signaled when inflight bytes drop or a ticket head advances
	streams  []*streamQueue
	inflight int64 // bytes in flight, checked against the window
	window   int64 // <= 0: unbounded
	next     int   // round-robin cursor for auto stream assignment
	// admitHead/admitTail are the FIFO admission tickets: a submission takes
	// a ticket at arrival and admits only when every earlier ticket has,
	// regardless of payload size.
	admitHead, admitTail uint64

	// Registry-resolved metric handles (resolved once at construction; a
	// nil registry yields standalone no-op metrics, so the hot path never
	// branches on observability).
	mSubmissions   *obs.Counter
	mWaits         *obs.Counter
	mWaitSeconds   *obs.Histogram
	mInflightBytes *obs.Gauge
	mQueueDepth    []*obs.Gauge // per stream
}

func newStreamScheduler(streams int, windowBytes int64, reg *obs.Registry) *streamScheduler {
	if streams < 1 {
		streams = 1
	}
	s := &streamScheduler{
		window:         windowBytes,
		mSubmissions:   reg.Counter("blink_async_submissions_total"),
		mWaits:         reg.Counter("blink_async_admission_waits_total"),
		mWaitSeconds:   reg.Histogram("blink_async_admission_wait_seconds", nil),
		mInflightBytes: reg.Gauge("blink_async_inflight_bytes"),
	}
	s.space.L = &s.mu
	for i := 0; i < streams; i++ {
		s.streams = append(s.streams, &streamQueue{id: i})
		s.mQueueDepth = append(s.mQueueDepth,
			reg.Gauge(`blink_async_queue_depth{stream="`+strconv.Itoa(i)+`"}`))
	}
	return s
}

// submit enqueues run on a stream and returns the stream it landed on.
// stream < 0 round-robins across the scheduler's streams; out-of-range
// indices wrap, so callers can use any dense numbering. submit blocks while
// the in-flight byte window is full or an earlier submission is still
// waiting for admission (FIFO tickets).
func (s *streamScheduler) submit(stream int, bytes int64, run func(stream int)) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mSubmissions.Inc()
	ticket := s.admitTail
	s.admitTail++
	waited := false
	var waitStart time.Time
	for ticket != s.admitHead || (s.window > 0 && s.inflight > 0 && s.inflight+bytes > s.window) {
		if !waited {
			waited = true
			waitStart = time.Now()
			s.mWaits.Inc()
		}
		s.space.Wait()
	}
	s.admitHead++
	// The next ticket holder may already fit; hand it the head.
	s.space.Broadcast()
	if waited {
		s.mWaitSeconds.Observe(time.Since(waitStart).Seconds())
	}
	if stream < 0 {
		stream = s.next
		s.next = (s.next + 1) % len(s.streams)
	} else {
		stream %= len(s.streams)
	}
	s.inflight += bytes
	s.mInflightBytes.Set(s.inflight)
	q := s.streams[stream]
	q.tasks = append(q.tasks, streamTask{bytes: bytes, run: run})
	s.mQueueDepth[stream].Set(int64(len(q.tasks)))
	if !q.running {
		q.running = true
		go s.drain(q)
	}
	return stream
}

// drain is the stream's worker loop: pop-run-release until the queue is
// empty, then exit. FIFO is preserved because at most one drain runs per
// queue at a time. Popped slots are zeroed so a completed task's closure
// (and the buffers it captured) is collectable immediately instead of
// lingering in the backing array until the next append overwrites it, and
// a fully drained queue drops the backing array itself.
func (s *streamScheduler) drain(q *streamQueue) {
	for {
		s.mu.Lock()
		if len(q.tasks) == 0 {
			q.tasks = nil // release the backing array
			q.running = false
			s.mu.Unlock()
			return
		}
		t := q.tasks[0]
		q.tasks[0] = streamTask{} // release the popped closure
		q.tasks = q.tasks[1:]
		if len(q.tasks) == 0 {
			q.tasks = nil
		}
		s.mQueueDepth[q.id].Set(int64(len(q.tasks)))
		s.mu.Unlock()

		t.run(q.id)

		s.mu.Lock()
		s.inflight -= t.bytes
		s.mInflightBytes.Set(s.inflight)
		s.space.Broadcast()
		s.mu.Unlock()
	}
}

// lazy is a scheduler an engine carries but starts only on first use:
// configuration edits apply until then; once live, the scheduler keeps the
// configuration it started with.
type lazy[C, T any] struct {
	mu   sync.Mutex
	cfg  C
	live *T
}

// configure edits the pending configuration (a no-op for a live scheduler).
func (l *lazy[C, T]) configure(edit func(*C)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	edit(&l.cfg)
}

// get returns the live scheduler, starting it from the pending
// configuration on first use.
func (l *lazy[C, T]) get(start func(C) *T) *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.live == nil {
		l.live = start(l.cfg)
	}
	return l.live
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
	return e.Snapshot().Submit(b, op, root, bytes, opts, stream)
}
