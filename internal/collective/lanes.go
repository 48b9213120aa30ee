package collective

import (
	"errors"
	"sync"
	"time"

	"blink/internal/obs"
)

// Class is the QoS priority class of a submission. A production comm
// engine serves thousands of concurrent jobs whose traffic is not equally
// urgent: a synchronous gradient AllReduce on the critical path of a
// training step must never sit behind a tenant's telemetry flush. The
// zero value is BulkGradient, the default class of untagged traffic, so
// legacy submissions keep today's behavior.
type Class int

const (
	// BulkGradient is the default class: large, throughput-oriented
	// transfers (DDP gradient buckets) that tolerate queueing.
	BulkGradient Class = iota
	// LatencyCritical is the highest-priority class: small blocking
	// collectives on a step's critical path (pipeline activations,
	// parameter broadcasts at the optimizer boundary).
	LatencyCritical
	// Telemetry is the lowest class: metric flushes, checkpoints and other
	// background traffic that must eventually drain but never delay work.
	Telemetry
	// NumClasses is the number of QoS classes (and lanes).
	NumClasses = 3
)

// laneOrder lists the classes in strict dispatch priority order.
var laneOrder = [NumClasses]Class{LatencyCritical, BulkGradient, Telemetry}

// String names the class.
func (c Class) String() string {
	switch c {
	case LatencyCritical:
		return "LatencyCritical"
	case BulkGradient:
		return "BulkGradient"
	case Telemetry:
		return "Telemetry"
	default:
		return "Class(?)"
	}
}

// valid reports whether c names one of the three lanes.
func (c Class) valid() bool { return c >= 0 && c < NumClasses }

// Verdict is the admission decision for one submission, made at submit
// time (RSPP-style admit -> defer -> reject edge control): Admit runs the
// op as soon as a worker and its lane's priority allow; Defer admits it
// but signals the lane is past its low watermark, so the submitter should
// back off; Reject refuses it outright (quota exhausted, bounded lane
// queue full, or lane past its high watermark) — the op never runs and
// its handle resolves with ErrAdmissionRejected.
type Verdict int

const (
	VerdictAdmit Verdict = iota
	VerdictDefer
	VerdictReject
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictAdmit:
		return "admit"
	case VerdictDefer:
		return "defer"
	case VerdictReject:
		return "reject"
	default:
		return "verdict(?)"
	}
}

// ErrAdmissionRejected is the sentinel wrapped by every admission
// rejection — lane overload and tenant quota exhaustion alike — so
// callers can errors.Is on one value and inspect the message for the
// reason.
var ErrAdmissionRejected = errors.New("collective: admission rejected")

// Lane defaults. A lane left at its zero LaneConfig gets these; negative
// values disable the corresponding bound entirely.
const (
	// DefaultLaneQueueCap bounds how many admitted ops may queue per lane.
	DefaultLaneQueueCap = 4096
	// DefaultLaneLowWater is the outstanding-byte level at which a lane
	// starts deferring (admitting with a back-off signal).
	DefaultLaneLowWater = 1 << 30
	// DefaultLaneHighWater is the outstanding-byte level at which a lane
	// rejects new work.
	DefaultLaneHighWater = 4 << 30
	// DefaultQoSWorkers is the number of concurrent lane dispatch workers.
	DefaultQoSWorkers = 4
	// DefaultAgingAfter is how long a queued op may wait before the
	// starvation-avoidance aging rule promotes it past strict priority.
	DefaultAgingAfter = 100 * time.Millisecond
)

// LaneConfig bounds one priority lane. Zero fields take the defaults
// above; negative values disable the bound (unbounded queue, no
// watermark).
type LaneConfig struct {
	// QueueCap is the maximum number of admitted-but-not-yet-dispatched
	// ops the lane holds; submissions beyond it are rejected.
	QueueCap int
	// LowWater is the outstanding-byte (queued + executing) level at which
	// admissions become deferrals.
	LowWater int64
	// HighWater is the outstanding-byte level at which admissions become
	// rejections. An op larger than the high watermark is still admissible
	// while the lane is below it — it then holds the lane's window alone,
	// rejecting later arrivals until it completes, so oversized payloads
	// make progress without wedging any other lane.
	HighWater int64
}

// QoSConfig tunes an engine's multi-tenant lane scheduler.
type QoSConfig struct {
	// Lanes configures each class's bounded queue and watermarks, indexed
	// by Class.
	Lanes [NumClasses]LaneConfig
	// Workers is the number of ops the scheduler executes concurrently
	// (DefaultQoSWorkers if 0).
	Workers int
	// AgingAfter is the starvation-avoidance knob: a queued op older than
	// this is dispatched ahead of strict priority (oldest first), so a
	// sustained LatencyCritical flood cannot starve the Telemetry lane
	// forever. 0 takes DefaultAgingAfter; negative disables aging (pure
	// strict priority).
	AgingAfter time.Duration
}

// normalized fills a QoSConfig's zero fields with the defaults.
func (q QoSConfig) normalized() QoSConfig {
	for i := range q.Lanes {
		ln := &q.Lanes[i]
		if ln.QueueCap == 0 {
			ln.QueueCap = DefaultLaneQueueCap
		}
		if ln.LowWater == 0 {
			ln.LowWater = DefaultLaneLowWater
		}
		if ln.HighWater == 0 {
			ln.HighWater = DefaultLaneHighWater
		}
	}
	if q.Workers <= 0 {
		q.Workers = DefaultQoSWorkers
	}
	if q.AgingAfter == 0 {
		q.AgingAfter = DefaultAgingAfter
	}
	return q
}

// laneTask is one admitted op queued on a lane.
type laneTask struct {
	bytes  int64
	tenant *Tenant
	enq    time.Time
	run    func()
}

// laneState is one priority lane: a bounded FIFO of admitted tasks plus
// the outstanding-byte accounting its watermarks act on.
type laneState struct {
	cfg LaneConfig
	// pending holds admitted tasks not yet picked by a worker, FIFO.
	pending []laneTask
	// outstanding is the lane's admitted-and-unfinished bytes (queued plus
	// executing); watermark admission reads it at submit time.
	outstanding int64

	depth    *obs.Gauge
	wait     *obs.Histogram
	verdicts [3]*obs.Counter // indexed by Verdict
}

// laneSub is one submission into the lane scheduler.
type laneSub struct {
	class  Class
	tenant *Tenant
	bytes  int64
	run    func()
}

// laneScheduler is the multi-tenant QoS dispatcher: three priority lanes
// (LatencyCritical > BulkGradient > Telemetry) with bounded queues and
// byte watermarks, drained by a bounded pool of ephemeral workers in
// strict priority order with an aging escape hatch. It is the
// RSPP-lane-scheduler analogue for collectives: admission control happens
// at submit time (admit/defer/reject), priority at dispatch time.
//
// Workers are ephemeral like the async stream workers: spawned while
// there is pending work, exiting when every lane drains, so an idle
// engine holds no goroutines.
type laneScheduler struct {
	mu      sync.Mutex
	lanes   [NumClasses]laneState
	workers int
	active  int
	aging   time.Duration

	mAged *obs.Counter

	// onDispatch is a test hook observed under mu at every pick, with the
	// picked class and each lane's pending count as of the instant before
	// the pick is removed. The property suite uses it to assert dispatch
	// never inverts priority among simultaneously queued ops.
	onDispatch func(picked Class, aged bool, pending [NumClasses]int)
}

// newLaneScheduler builds a scheduler from a normalized config, binding
// its metrics into reg (nil reg yields standalone no-op metrics).
func newLaneScheduler(cfg QoSConfig, reg *obs.Registry) *laneScheduler {
	cfg = cfg.normalized()
	s := &laneScheduler{
		workers: cfg.Workers,
		aging:   cfg.AgingAfter,
		mAged:   reg.Counter("blink_lane_aged_dispatch_total"),
	}
	for c := Class(0); c < NumClasses; c++ {
		ln := &s.lanes[c]
		ln.cfg = cfg.Lanes[c]
		ln.depth = reg.Gauge(`blink_lane_queue_depth{lane="` + c.String() + `"}`)
		ln.wait = reg.Histogram(`blink_op_wait_seconds{class="`+c.String()+`"}`, nil)
		for v := VerdictAdmit; v <= VerdictReject; v++ {
			ln.verdicts[v] = reg.Counter(
				`blink_admission_total{lane="` + c.String() + `",verdict="` + v.String() + `"}`)
		}
	}
	return s
}

// submit runs admission for one op and, when admitted, queues it on its
// class lane (spawning a worker if the pool has room). It never blocks:
// the verdict is decided immediately from the lane's queue bound, its
// watermarks, and the tenant's quotas, in that order of severity —
// rejections never enqueue and never run. The clock is read and the worker
// started outside the lock, which the workers take once per op.
func (s *laneScheduler) submit(sub laneSub) Verdict {
	if !sub.class.valid() {
		sub.class = BulkGradient
	}
	enq := time.Now()
	s.mu.Lock()
	ln := &s.lanes[sub.class]
	t := sub.tenant
	t.noteSubmitted(sub.bytes)
	reject := func() Verdict {
		ln.verdicts[VerdictReject].Inc()
		t.noteRejected(sub.bytes)
		s.mu.Unlock()
		return VerdictReject
	}
	if !t.admitWithinQuota(sub.bytes) {
		return reject()
	}
	if ln.cfg.QueueCap > 0 && len(ln.pending) >= ln.cfg.QueueCap {
		return reject()
	}
	if ln.cfg.HighWater > 0 && ln.outstanding >= ln.cfg.HighWater {
		return reject()
	}
	v := VerdictAdmit
	if ln.cfg.LowWater > 0 && ln.outstanding >= ln.cfg.LowWater {
		v = VerdictDefer
	}
	ln.verdicts[v].Inc()
	t.noteAdmitted(sub.bytes, v == VerdictDefer)
	ln.outstanding += sub.bytes
	ln.pending = append(ln.pending, laneTask{
		bytes: sub.bytes, tenant: t, enq: enq, run: sub.run,
	})
	ln.depth.Set(int64(len(ln.pending)))
	spawn := s.active < s.workers
	if spawn {
		s.active++
	}
	s.mu.Unlock()
	if spawn {
		go s.work()
	}
	return v
}

// pickLocked removes and returns the next task to dispatch. Strict
// priority: the highest-priority nonempty lane wins — unless aging is on
// and some lane's head has waited past the aging bound, in which case the
// oldest such head wins (oldest-first among aged heads degenerates to
// cross-lane FIFO under saturation, which is exactly the liveness
// guarantee: every queued op's wait is bounded by the work ahead of it,
// not by the arrival rate of higher classes). Caller holds mu.
func (s *laneScheduler) pickLocked(now time.Time) (laneTask, Class, bool, bool) {
	pick := Class(-1)
	if s.aging > 0 {
		for c := Class(0); c < NumClasses; c++ {
			ln := &s.lanes[c]
			if len(ln.pending) == 0 || now.Sub(ln.pending[0].enq) <= s.aging {
				continue
			}
			if pick < 0 || ln.pending[0].enq.Before(s.lanes[pick].pending[0].enq) {
				pick = c
			}
		}
	}
	aged := false
	if pick >= 0 {
		// Aged pick — but it only counts as an inversion-by-aging when a
		// strictly higher-priority lane had fresh work waiting.
		for _, c := range laneOrder {
			if c == pick {
				break
			}
			if len(s.lanes[c].pending) > 0 {
				aged = true
				break
			}
		}
	} else {
		for _, c := range laneOrder {
			if len(s.lanes[c].pending) > 0 {
				pick = c
				break
			}
		}
	}
	if pick < 0 {
		return laneTask{}, 0, false, false
	}
	if s.onDispatch != nil {
		var depths [NumClasses]int
		for c := Class(0); c < NumClasses; c++ {
			depths[c] = len(s.lanes[c].pending)
		}
		s.onDispatch(pick, aged, depths)
	}
	ln := &s.lanes[pick]
	task := ln.pending[0]
	ln.pending[0] = laneTask{} // release the popped closure
	ln.pending = ln.pending[1:]
	if len(ln.pending) == 0 {
		ln.pending = nil // release the backing array
	}
	ln.depth.Set(int64(len(ln.pending)))
	return task, pick, aged, true
}

// work is one dispatch worker: pick-run until every lane is empty, then
// exit. It takes the lock and reads the clock once per op: the lane bytes of
// the op it ran last are released in the next pick's critical section, so
// every ledger is settled before the worker exits. The tenant's ledger is
// atomic and is settled as soon as the op returns, without the lock. The
// clock is read before the lock and the metrics are written after it, so an
// op submitted in between can show a negative wait, which counts as zero.
func (s *laneScheduler) work() {
	var ranBytes int64
	var ranClass Class
	for {
		now := time.Now()
		s.mu.Lock()
		s.lanes[ranClass].outstanding -= ranBytes
		task, class, aged, ok := s.pickLocked(now)
		if !ok {
			s.active--
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		s.lanes[class].wait.Observe(max(now.Sub(task.enq), 0).Seconds())
		if aged {
			s.mAged.Inc()
		}

		task.run()
		task.tenant.noteDone(task.bytes)
		ranBytes, ranClass = task.bytes, class
	}
}
