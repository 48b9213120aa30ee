package collective

import (
	"fmt"
	"sync/atomic"
)

// TenantConfig describes one tenant of a shared Engine: the QoS class its
// traffic rides in and its resource quotas.
type TenantConfig struct {
	// Name labels the tenant in stats and errors ("tenant-N" if empty).
	Name string
	// Class is the priority lane the tenant's submissions ride in.
	Class Class
	// ByteQuota caps the tenant's outstanding (admitted and unfinished)
	// bytes; a submission that would exceed it is rejected. 0 = unlimited.
	ByteQuota int64
	// OpQuota caps the tenant's outstanding op count. 0 = unlimited.
	OpQuota int64
}

// Tenant is one job's identity on a shared Engine: the unit of QoS
// classing, quota enforcement, cache-partition fairness and per-tenant
// accounting. Create with Engine.NewTenant; safe for concurrent use.
//
// Outstanding counters rise only under the lane scheduler's lock (so quota
// admission reads a consistent view) and fall as soon as an op returns,
// before its handle resolves; they are atomics so Stats never takes that
// lock.
type Tenant struct {
	id        uint64
	name      string
	class     Class
	byteQuota int64
	opQuota   int64

	outstandingBytes atomic.Int64
	outstandingOps   atomic.Int64

	submittedBytes atomic.Int64
	submittedOps   atomic.Int64
	admittedBytes  atomic.Int64
	admittedOps    atomic.Int64
	rejectedBytes  atomic.Int64
	rejectedOps    atomic.Int64
	deferredOps    atomic.Int64
	completedOps   atomic.Int64

	cacheLookups atomic.Int64
	cacheHits    atomic.Int64
	cacheMisses  atomic.Int64
}

// tenantIDs hands every tenant a distinct nonzero identity; zero is the
// "no tenant" owner in the plan cache.
var tenantIDs atomic.Uint64

// Name returns the tenant's label.
func (t *Tenant) Name() string { return t.name }

// Class returns the tenant's priority class.
func (t *Tenant) Class() Class { return t.class }

// TenantStats is a point-in-time snapshot of one tenant's accounting.
// The quota ledger is exact: SubmittedBytes == AdmittedBytes +
// RejectedBytes (likewise ops), and CacheLookups == CacheHits +
// CacheMisses, at every quiescent point.
type TenantStats struct {
	Name  string
	Class Class

	SubmittedOps, AdmittedOps, RejectedOps, DeferredOps, CompletedOps int64
	SubmittedBytes, AdmittedBytes, RejectedBytes                      int64
	OutstandingOps, OutstandingBytes                                  int64

	CacheLookups, CacheHits, CacheMisses int64
}

// Stats snapshots the tenant's counters.
func (t *Tenant) Stats() TenantStats {
	return TenantStats{
		Name:             t.name,
		Class:            t.class,
		SubmittedOps:     t.submittedOps.Load(),
		AdmittedOps:      t.admittedOps.Load(),
		RejectedOps:      t.rejectedOps.Load(),
		DeferredOps:      t.deferredOps.Load(),
		CompletedOps:     t.completedOps.Load(),
		SubmittedBytes:   t.submittedBytes.Load(),
		AdmittedBytes:    t.admittedBytes.Load(),
		RejectedBytes:    t.rejectedBytes.Load(),
		OutstandingOps:   t.outstandingOps.Load(),
		OutstandingBytes: t.outstandingBytes.Load(),
		CacheLookups:     t.cacheLookups.Load(),
		CacheHits:        t.cacheHits.Load(),
		CacheMisses:      t.cacheMisses.Load(),
	}
}

// noteSubmitted records one submission entering admission (called under
// the scheduler lock; nil-safe like the rest of the note* family so the
// scheduler works without tenants in unit tests).
func (t *Tenant) noteSubmitted(bytes int64) {
	if t == nil {
		return
	}
	t.submittedOps.Add(1)
	t.submittedBytes.Add(bytes)
}

// admitWithinQuota reports whether admitting bytes keeps the tenant
// inside its outstanding-byte/op quotas (called under the scheduler
// lock).
func (t *Tenant) admitWithinQuota(bytes int64) bool {
	if t == nil {
		return true
	}
	if t.byteQuota > 0 && t.outstandingBytes.Load()+bytes > t.byteQuota {
		return false
	}
	if t.opQuota > 0 && t.outstandingOps.Load()+1 > t.opQuota {
		return false
	}
	return true
}

// noteAdmitted moves one submission into the outstanding ledger.
func (t *Tenant) noteAdmitted(bytes int64, deferred bool) {
	if t == nil {
		return
	}
	t.admittedOps.Add(1)
	t.admittedBytes.Add(bytes)
	if deferred {
		t.deferredOps.Add(1)
	}
	t.outstandingOps.Add(1)
	t.outstandingBytes.Add(bytes)
}

// noteRejected records one rejection.
func (t *Tenant) noteRejected(bytes int64) {
	if t == nil {
		return
	}
	t.rejectedOps.Add(1)
	t.rejectedBytes.Add(bytes)
}

// noteDone releases one completed op from the outstanding ledger.
func (t *Tenant) noteDone(bytes int64) {
	if t == nil {
		return
	}
	t.completedOps.Add(1)
	t.outstandingOps.Add(-1)
	t.outstandingBytes.Add(-bytes)
}

// noteLookup attributes one plan-cache lookup to the tenant, preserving
// Lookups == Hits + Misses.
func (t *Tenant) noteLookup(hit bool) {
	if t == nil {
		return
	}
	t.cacheLookups.Add(1)
	if hit {
		t.cacheHits.Add(1)
	} else {
		t.cacheMisses.Add(1)
	}
}

// ConfigureQoS tunes the engine's multi-tenant lane scheduler before
// first tenant use (see QoSConfig; zero fields take the documented
// defaults). Once tenant ops have been issued the scheduler is live and the
// call no longer affects it.
func (e *Engine) ConfigureQoS(cfg QoSConfig) {
	e.qos.configure(func(c *QoSConfig) { *c = cfg })
}

// NewTenant registers a tenant on the engine. Every registered tenant
// narrows the plan cache's per-owner fair share (capacity / tenants), so
// one tenant churning through shapes evicts its own plans before anyone
// else's.
func (e *Engine) NewTenant(cfg TenantConfig) *Tenant {
	t := &Tenant{
		id:        tenantIDs.Add(1),
		name:      cfg.Name,
		class:     cfg.Class,
		byteQuota: cfg.ByteQuota,
		opQuota:   cfg.OpQuota,
	}
	if !t.class.valid() {
		t.class = BulkGradient
	}
	if t.name == "" {
		t.name = fmt.Sprintf("tenant-%d", t.id)
	}
	e.cache.addTenant()
	return t
}

// RunAsyncTenant submits one collective through the tenant's QoS lane and
// returns its Handle plus the admission verdict. VerdictReject means the
// op never ran: the handle is already resolved with an error wrapping
// ErrAdmissionRejected. VerdictDefer means the op was admitted but its
// lane is past the low watermark — the handle also reports Deferred(),
// and well-behaved tenants back off. Unlike RunAsync, admission never
// blocks: overload surfaces as a verdict, not latency.
//
// Topology state is pinned at submission, exactly as in RunAsync.
func (e *Engine) RunAsyncTenant(tn *Tenant, b Backend, op Op, root int, bytes int64, opts Options) (*Handle, Verdict) {
	h := e.Snapshot().Submit(b, op, root, bytes, tenantOpts(tn, opts), Inline)
	return h, h.verdict
}

// tenantOpts stamps the tenant on a call's options, which is what routes
// it through the tenant's lane. A nil tenant degrades to the default-class
// lane with an anonymous ledger, so the accounting invariants still hold
// per call site.
func tenantOpts(tn *Tenant, opts Options) Options {
	if tn == nil {
		tn = &Tenant{name: "anonymous", class: BulkGradient}
	}
	opts.Tenant = tn
	return opts
}

// RunTenant is the synchronous tenant dispatch against a pinned topology
// snapshot: admission through the tenant's lane, then wait. A rejection
// returns an error wrapping ErrAdmissionRejected.
func (s Snapshot) RunTenant(tn *Tenant, b Backend, op Op, root int, bytes int64, opts Options) (Result, error) {
	return s.Run(b, op, root, bytes, tenantOpts(tn, opts))
}
