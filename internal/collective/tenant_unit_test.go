package collective

import (
	"errors"
	"testing"
	"time"
)

// TestTenantDefaults checks NewTenant's defaulting: an invalid class
// degrades to the BulkGradient lane and an empty name gets a generated
// label.
func TestTenantDefaults(t *testing.T) {
	eng := newTestEngine(t)
	tn := eng.NewTenant(TenantConfig{Class: Class(99)})
	if tn.Class() != BulkGradient {
		t.Fatalf("invalid class defaulted to %v, want BulkGradient", tn.Class())
	}
	if tn.Name() == "" {
		t.Fatal("empty name not defaulted")
	}
	named := eng.NewTenant(TenantConfig{Name: "job", Class: Telemetry})
	if named.Name() != "job" || named.Class() != Telemetry {
		t.Fatalf("tenant identity %s/%v", named.Name(), named.Class())
	}
}

// TestNilTenantAccounting checks the note* family is nil-safe, so the
// lane scheduler runs without tenants.
func TestNilTenantAccounting(t *testing.T) {
	var tn *Tenant
	tn.noteSubmitted(8)
	if !tn.admitWithinQuota(1 << 40) {
		t.Fatal("nil tenant must have no quota")
	}
	tn.noteAdmitted(8, true)
	tn.noteRejected(8)
	tn.noteDone(8)
	tn.noteLookup(true)
}

// TestConfigureQoSBeforeFirstUse checks configuration lands on the lane
// scheduler when applied before first tenant dispatch, and that the
// anonymous (nil-tenant) path still runs through the default lane.
func TestConfigureQoSBeforeFirstUse(t *testing.T) {
	eng := newTestEngine(t)
	cfg := QoSConfig{Workers: 1, AgingAfter: time.Hour}
	cfg.Lanes[BulkGradient] = LaneConfig{QueueCap: 7}
	eng.ConfigureQoS(cfg)

	h, v := eng.RunAsyncTenant(nil, Blink, AllReduce, 0, 4<<20, Options{})
	if v == VerdictReject {
		t.Fatalf("anonymous submission rejected: %v", h.Err())
	}
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	sched := eng.lanes()
	if got := sched.queues[BulkGradient].cfg.QueueCap; got != 7 {
		t.Fatalf("lane queue cap %d, want the configured 7", got)
	}
	if sched.workers != 1 {
		t.Fatalf("worker pool %d, want the configured 1", sched.workers)
	}
}

// TestSnapshotRunTenant checks the synchronous pinned-snapshot tenant
// dispatch: success on an open quota, ErrAdmissionRejected once the
// tenant's byte quota is exhausted by an in-flight op.
func TestSnapshotRunTenant(t *testing.T) {
	eng := newTestEngine(t)
	snap := eng.Snapshot()
	tn := eng.NewTenant(TenantConfig{Name: "sync", Class: LatencyCritical})
	if _, err := snap.RunTenant(tn, Blink, AllReduce, 0, 4<<20, Options{}); err != nil {
		t.Fatal(err)
	}
	if st := tn.Stats(); st.CompletedOps != 1 || st.OutstandingOps != 0 {
		t.Fatalf("ledger %+v after one sync op", st)
	}

	capped := eng.NewTenant(TenantConfig{Name: "capped", ByteQuota: 1})
	_, err := snap.RunTenant(capped, Blink, AllReduce, 0, 4<<20, Options{})
	if !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("byte-quota violation returned %v, want ErrAdmissionRejected", err)
	}
}
