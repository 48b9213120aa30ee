package blink

import (
	"fmt"

	"blink/internal/collective"
)

// Class is the QoS priority class of a tenant's traffic. Lanes dispatch
// in strict priority order ClassLatencyCritical > ClassBulkGradient >
// ClassTelemetry, with a starvation-avoidance aging rule (see QoSConfig).
type Class = collective.Class

// QoS classes. The zero value is ClassBulkGradient, so untagged traffic
// rides the default lane.
const (
	// ClassLatencyCritical is for small blocking collectives on a training
	// step's critical path.
	ClassLatencyCritical = collective.LatencyCritical
	// ClassBulkGradient is the default class: large throughput-oriented
	// transfers that tolerate queueing.
	ClassBulkGradient = collective.BulkGradient
	// ClassTelemetry is for background traffic that must eventually drain
	// but never delay real work.
	ClassTelemetry = collective.Telemetry
)

// Verdict is the admission decision for one tenant submission.
type Verdict = collective.Verdict

// Admission verdicts.
const (
	// VerdictAdmit: the op runs as soon as its lane's priority allows.
	VerdictAdmit = collective.VerdictAdmit
	// VerdictDefer: admitted, but the lane is past its low watermark —
	// back off (the handle reports Deferred()).
	VerdictDefer = collective.VerdictDefer
	// VerdictReject: refused (quota, full lane queue, or high watermark);
	// the op never runs.
	VerdictReject = collective.VerdictReject
)

// ErrAdmissionRejected is wrapped by every admission rejection: lane
// overload (bounded queue full or high watermark crossed) and tenant
// quota exhaustion alike. Test with errors.Is.
var ErrAdmissionRejected = collective.ErrAdmissionRejected

// QoSConfig tunes a communicator's multi-tenant lane scheduler (see
// WithQoS): per-lane bounded queues and byte watermarks, dispatch worker
// parallelism, and the aging bound after which a starved op is dispatched
// ahead of strict priority.
type QoSConfig = collective.QoSConfig

// LaneConfig bounds one priority lane: queue capacity plus the low
// (defer) and high (reject) outstanding-byte watermarks.
type LaneConfig = collective.LaneConfig

// TenantStats is a point-in-time snapshot of one tenant's accounting:
// the exact quota ledger (SubmittedBytes == AdmittedBytes +
// RejectedBytes) and per-tenant plan-cache attribution (CacheLookups ==
// CacheHits + CacheMisses).
type TenantStats = collective.TenantStats

// TenantOptions configures one tenant of a shared communicator.
type TenantOptions struct {
	// Name labels the tenant in stats and errors ("tenant-N" if empty).
	Name string
	// Class is the priority lane the tenant's collectives ride in
	// (ClassBulkGradient if unset).
	Class Class
	// ByteQuota caps the tenant's outstanding (admitted and unfinished)
	// bytes; submissions beyond it are rejected. 0 = unlimited.
	ByteQuota int64
	// OpQuota caps the tenant's outstanding op count. 0 = unlimited.
	OpQuota int64
}

// Tenant is one job's view of a shared communicator: the full Comm API
// (sync, async, grouped, hybrid and data-mode collectives) with every
// dispatch routed through the tenant's QoS lane, charged against its
// quotas, and attributed to its cache ledger (AllReduceMany admits its
// buckets through the lane one by one, in order). Tenants of one Comm share the engine,
// the plan cache (partitioned fairly: each tenant's inserts can evict
// only its own share once the cache fills) and the topology state.
//
// Overload is explicit, never silent: a rejected admission surfaces as
// an error wrapping ErrAdmissionRejected (sync and data-mode calls
// return it; async handles resolve with it), and a deferred admission
// sets Handle.Deferred as the back-off signal.
type Tenant struct {
	*Comm
	tn *collective.Tenant
}

// NewTenant registers a tenant on the communicator and returns its view.
// Registering tenants narrows everyone's fair share of the plan cache
// (capacity / tenants), so register once per job, not per call.
func NewTenant(c *Comm, opts TenantOptions) (*Tenant, error) {
	if c == nil {
		return nil, fmt.Errorf("blink: nil communicator")
	}
	if c.tn != nil {
		return nil, fmt.Errorf("blink: %s is already a tenant view; create tenants from the root communicator", c.tn.Name())
	}
	tn := c.eng.NewTenant(collective.TenantConfig{
		Name:      opts.Name,
		Class:     opts.Class,
		ByteQuota: opts.ByteQuota,
		OpQuota:   opts.OpQuota,
	})
	return &Tenant{
		Comm: &Comm{eng: c.eng, backend: c.backend, tn: tn},
		tn:   tn,
	}, nil
}

// Name returns the tenant's label.
func (t *Tenant) Name() string { return t.tn.Name() }

// Class returns the tenant's priority class.
func (t *Tenant) Class() Class { return t.tn.Class() }

// Stats snapshots the tenant's admission, quota and cache ledgers.
func (t *Tenant) Stats() TenantStats { return t.tn.Stats() }
