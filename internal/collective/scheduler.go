package collective

import (
	"sync"
	"time"

	"blink/internal/obs"
)

// epoch anchors task enqueue times. A task stores nanoseconds since it
// rather than a time.Time, which keeps the task record at 32 bytes: a
// tenant burst queues hundreds of them, and the 48-byte form measurably
// raised the bytes each tenant op allocates.
var epoch = time.Now()

// sinceEpoch reads the monotonic clock as nanoseconds since epoch.
func sinceEpoch() int64 { return int64(time.Since(epoch)) }

// task is one admitted op waiting in a queue. run dispatches it, given the
// queue it landed on, stores the outcome on the op's handle and returns the
// handle unresolved: the worker closes its done channel only once every
// ledger has released the op, so a caller that sees the handle resolve also
// sees its bytes and its tenant's outstanding count returned.
type task struct {
	run    func(q int) *Handle
	tenant *Tenant
	bytes  int64
	enq    int64 // nanoseconds since epoch
}

// queue is one FIFO of admitted tasks, the bounds its verdicts act on and
// its metric series. A nil series is one the configuration does not export
// (every obs method accepts nil).
type queue struct {
	// cfg bounds admission into the queue; a bound <= 0 is off.
	cfg LaneConfig
	// pending holds admitted tasks not yet picked by a worker, FIFO.
	pending []task
	// running counts the queue's ops executing now.
	running int
	// outstanding is the queue's admitted-and-unfinished bytes (queued plus
	// running); the watermarks read it at submit time.
	outstanding int64

	depth    *obs.Gauge
	wait     *obs.Histogram
	verdicts [3]*obs.Counter // indexed by Verdict
}

// scheduler is the one admission stage behind every async submission: N
// FIFO queues drained by a bounded pool of ephemeral workers. Workers are
// spawned while there is work they can take and exit when there is none, so
// an idle engine holds no goroutines. Streams and QoS lanes are two
// configurations of it (newStreamScheduler, newLaneScheduler); each keeps
// its own admission policy, defaults and metric series.
//
// submit applies the byte window, whose FIFO tickets block the submitter,
// and then the verdict rules, which never block. A worker takes the first
// ready queue in priority order: one with pending ops and, in a serial
// configuration, no op running, so a serial queue runs its ops one at a
// time in submission order. With aging on, the oldest head that has waited
// past the bound wins instead (under saturation that degenerates to
// cross-queue FIFO, which bounds every op's wait by the work ahead of it,
// not by the arrival rate of higher classes).
type scheduler struct {
	mu      sync.Mutex
	space   sync.Cond // signaled when inflight bytes drop or a ticket head advances
	queues  []queue
	order   []int // queue indices in dispatch priority order
	serial  bool  // at most one op per queue runs at a time
	workers int
	active  int           // workers started and not yet exited
	aging   time.Duration // <= 0: strict priority
	next    int           // round-robin cursor for submissions with q < 0

	// window bounds the bytes in flight across all queues (<= 0: none). One
	// op larger than the whole window is still admitted, alone, so oversized
	// payloads make progress instead of deadlocking. admitHead/admitTail are
	// the FIFO admission tickets: a submission takes a ticket at arrival and
	// admits only when every earlier ticket has, regardless of payload size,
	// so a large op blocked on the window is never overtaken by later small
	// ones.
	window               int64
	inflight             int64
	admitHead, admitTail uint64

	mSubmissions, mWaits, mAged *obs.Counter
	mWaitSeconds                *obs.Histogram
	mInflightBytes              *obs.Gauge

	// onDispatch is a test hook observed under mu at every pick, with the
	// picked queue and each queue's pending count as of the instant before
	// the pick is removed.
	onDispatch func(picked int, aged bool, pending []int)
}

// newScheduler builds n empty queues dispatched in index order.
func newScheduler(n, workers int, serial bool) *scheduler {
	s := &scheduler{queues: make([]queue, n), order: make([]int, n), serial: serial, workers: workers}
	s.space.L = &s.mu
	for i := range s.order {
		s.order[i] = i
	}
	return s
}

// ready reports whether a worker may take q's head now.
func (s *scheduler) ready(q *queue) bool {
	return len(q.pending) > 0 && (!s.serial || q.running == 0)
}

// submit admits one op into queue q and returns its verdict. q < 0
// round-robins across the queues; out-of-range indices wrap. It first waits
// for the byte window, if there is one, behind every earlier submission; it
// then rejects on the tenant's quota, the queue bound and the high
// watermark, in that order of severity, and defers past the low watermark.
// A rejected op is never queued and never runs. The clock is read and a
// worker started outside the lock.
func (s *scheduler) submit(q int, tn *Tenant, bytes int64, run func(q int) *Handle) Verdict {
	enq := sinceEpoch()
	s.mu.Lock()
	s.mSubmissions.Inc()
	ticket := s.admitTail
	s.admitTail++
	var waitStart time.Time
	for ticket != s.admitHead || (s.window > 0 && s.inflight > 0 && s.inflight+bytes > s.window) {
		if waitStart.IsZero() {
			waitStart = time.Now()
			s.mWaits.Inc()
		}
		s.space.Wait()
	}
	s.admitHead++
	// The next ticket holder may already fit; hand it the head.
	s.space.Broadcast()
	if !waitStart.IsZero() {
		s.mWaitSeconds.Observe(time.Since(waitStart).Seconds())
	}
	if q < 0 {
		q = s.next
		s.next = (s.next + 1) % len(s.queues)
	} else {
		q %= len(s.queues)
	}
	qu := &s.queues[q]
	tn.noteSubmitted(bytes)
	if !tn.admitWithinQuota(bytes) ||
		(qu.cfg.QueueCap > 0 && len(qu.pending) >= qu.cfg.QueueCap) ||
		(qu.cfg.HighWater > 0 && qu.outstanding >= qu.cfg.HighWater) {
		qu.verdicts[VerdictReject].Inc()
		tn.noteRejected(bytes)
		s.mu.Unlock()
		return VerdictReject
	}
	v := VerdictAdmit
	if qu.cfg.LowWater > 0 && qu.outstanding >= qu.cfg.LowWater {
		v = VerdictDefer
	}
	qu.verdicts[v].Inc()
	tn.noteAdmitted(bytes, v == VerdictDefer)
	qu.outstanding += bytes
	s.inflight += bytes
	s.mInflightBytes.Set(s.inflight)
	qu.pending = append(qu.pending, task{run: run, tenant: tn, bytes: bytes, enq: enq})
	qu.depth.Set(int64(len(qu.pending)))
	// A serial queue needs a worker only when this op made it ready; any
	// other op is taken by the worker that runs or is bound for the queue.
	spawn := s.active < s.workers && (!s.serial || (qu.running == 0 && len(qu.pending) == 1))
	if spawn {
		s.active++
	}
	s.mu.Unlock()
	if spawn {
		go s.work()
	}
	return v
}

// pickLocked removes and returns the next task to dispatch and its queue:
// the oldest aged ready head if aging is on and one has waited past the
// bound, else the head of the first ready queue in priority order. aged
// reports an aged pick that overtook a ready queue of higher priority.
// Popped slots are zeroed and a drained queue drops its backing array, so a
// completed op's closure, and the buffers it captured, is collectable at
// once. Caller holds mu.
func (s *scheduler) pickLocked(now int64) (t task, q int, aged, ok bool) {
	q = -1
	if s.aging > 0 {
		for i := range s.queues {
			qu := &s.queues[i]
			if !s.ready(qu) || now-qu.pending[0].enq <= int64(s.aging) {
				continue
			}
			if q < 0 || qu.pending[0].enq < s.queues[q].pending[0].enq {
				q = i
			}
		}
	}
	for _, i := range s.order {
		if i == q {
			break
		}
		if s.ready(&s.queues[i]) {
			if q >= 0 {
				aged = true
				break
			}
			q = i
			break
		}
	}
	if q < 0 {
		return task{}, 0, false, false
	}
	if s.onDispatch != nil {
		depths := make([]int, len(s.queues))
		for i := range s.queues {
			depths[i] = len(s.queues[i].pending)
		}
		s.onDispatch(q, aged, depths)
	}
	qu := &s.queues[q]
	t = qu.pending[0]
	qu.pending[0] = task{}
	qu.pending = qu.pending[1:]
	if len(qu.pending) == 0 {
		qu.pending = nil
	}
	qu.depth.Set(int64(len(qu.pending)))
	qu.running++
	return t, q, aged, true
}

// work is one dispatch worker: pick and run until no queue is ready, then
// exit. It takes the lock once per op. The tenant's atomic ledger is
// settled as soon as an op returns; the queue and window bytes of the op
// are released in the critical section of the next pick; and only then is
// the op's handle resolved. The clock is read before the lock and the
// metrics are written after it, so an op submitted in between can show a
// negative wait, which counts as zero.
func (s *scheduler) work() {
	ranQ, ranBytes := -1, int64(0)
	var ran *Handle
	for {
		now := sinceEpoch()
		s.mu.Lock()
		if ranQ >= 0 {
			qu := &s.queues[ranQ]
			qu.running--
			qu.outstanding -= ranBytes
			s.inflight -= ranBytes
			s.mInflightBytes.Set(s.inflight)
			s.space.Broadcast()
		}
		t, q, aged, ok := s.pickLocked(now)
		if !ok {
			s.active--
		}
		s.mu.Unlock()
		if ran != nil {
			close(ran.done)
		}
		if !ok {
			return
		}
		s.queues[q].wait.Observe(float64(max(now-t.enq, 0)) / 1e9)
		if aged {
			s.mAged.Inc()
		}

		ran = t.run(q)
		t.tenant.noteDone(t.bytes)
		ranQ, ranBytes = q, t.bytes
	}
}

// lazy is a scheduler an engine carries but starts only on first use:
// configuration edits apply until then; once live, the scheduler keeps the
// configuration it started with.
type lazy[C any] struct {
	mu   sync.Mutex
	cfg  C
	live *scheduler
}

// configure edits the pending configuration (a no-op for a live scheduler).
func (l *lazy[C]) configure(edit func(*C)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	edit(&l.cfg)
}

// get returns the live scheduler, starting it from the pending
// configuration on first use.
func (l *lazy[C]) get(start func(C) *scheduler) *scheduler {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.live == nil {
		l.live = start(l.cfg)
	}
	return l.live
}
