package collective

import (
	"errors"
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
	if !c.valid() {
		return "Class(?)"
	}
	return [NumClasses]string{"BulkGradient", "LatencyCritical", "Telemetry"}[c]
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
	if v < VerdictAdmit || v > VerdictReject {
		return "verdict(?)"
	}
	return [...]string{"admit", "defer", "reject"}[v]
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

// newLaneScheduler configures the multi-tenant QoS dispatcher from a
// QoSConfig (zero fields take the defaults), binding its metrics into reg
// (a nil reg yields standalone no-op metrics): three priority lanes
// (LatencyCritical > BulkGradient > Telemetry) with bounded queues and
// byte watermarks, drained by a shared worker pool in strict priority order
// with an aging escape hatch, and no byte window. It is the
// RSPP-lane-scheduler analogue for collectives: admission control happens
// at submit time (admit/defer/reject, never blocking), priority at dispatch
// time. A lane's index is its Class.
func newLaneScheduler(cfg QoSConfig, reg *obs.Registry) *scheduler {
	cfg = cfg.normalized()
	s := newScheduler(NumClasses, cfg.Workers, false)
	s.aging = cfg.AgingAfter
	s.mAged = reg.Counter("blink_lane_aged_dispatch_total")
	for i, c := range laneOrder {
		s.order[i] = int(c)
	}
	for c := Class(0); c < NumClasses; c++ {
		ln := &s.queues[c]
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
