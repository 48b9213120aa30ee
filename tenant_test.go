package blink

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

var full8 = []int{0, 1, 2, 3, 4, 5, 6, 7}

// TestTenantViewAPI covers the tenant-view surface: construction rules,
// lane-routed sync dispatch, and the per-tenant ledger.
func TestTenantViewAPI(t *testing.T) {
	comm, err := NewComm(DGX1V(), full8)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := NewTenant(comm, TenantOptions{Name: "job-a", Class: ClassLatencyCritical})
	if err != nil {
		t.Fatal(err)
	}
	if tn.Name() != "job-a" || tn.Class() != ClassLatencyCritical {
		t.Fatalf("tenant identity %s/%v", tn.Name(), tn.Class())
	}
	// Tenants come from the root communicator, not from other tenants.
	if _, err := NewTenant(tn.Comm, TenantOptions{}); err == nil {
		t.Fatal("NewTenant on a tenant view did not fail")
	}

	want, err := comm.AllReduce(8 << 20)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tn.AllReduce(8 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seconds != want.Seconds || got.Strategy != want.Strategy {
		t.Fatalf("tenant result %+v != untenanted %+v", got, want)
	}
	st := tn.Stats()
	if st.SubmittedOps != 1 || st.AdmittedOps != 1 || st.CompletedOps != 1 {
		t.Fatalf("ledger %+v after one op", st)
	}
	if st.CacheLookups != 1 || st.CacheHits+st.CacheMisses != 1 {
		t.Fatalf("cache attribution %d lookups / %d hits / %d misses",
			st.CacheLookups, st.CacheHits, st.CacheMisses)
	}
}

// TestTenantQuotaRejectSurfaces checks quota exhaustion surfaces as
// ErrAdmissionRejected on both the sync and async paths.
func TestTenantQuotaRejectSurfaces(t *testing.T) {
	comm, err := NewComm(DGX1V(), full8)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := NewTenant(comm, TenantOptions{Name: "capped", OpQuota: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the plan so the admitted op resolves promptly.
	if _, err := comm.AllReduce(4 << 20); err != nil {
		t.Fatal(err)
	}
	var sawReject bool
	for i := 0; i < 200 && !sawReject; i++ {
		var hs []*Handle
		// Burst past the outstanding-op quota: with 1 outstanding allowed,
		// a burst of 4 must reject at least once while the first is in
		// flight.
		for j := 0; j < 4; j++ {
			hs = append(hs, tn.AllReduceAsync(4<<20))
		}
		for _, h := range hs {
			if _, err := h.Wait(); err != nil {
				if !errors.Is(err, ErrAdmissionRejected) {
					t.Fatalf("unexpected async error: %v", err)
				}
				sawReject = true
			}
		}
	}
	if !sawReject {
		t.Fatal("op-quota burst never rejected")
	}
	st := tn.Stats()
	if st.RejectedOps == 0 {
		t.Fatal("ledger shows no rejections")
	}
	if st.SubmittedOps != st.AdmittedOps+st.RejectedOps {
		t.Fatalf("ledger inexact: %d != %d + %d", st.SubmittedOps, st.AdmittedOps, st.RejectedOps)
	}
}

// TestTenantGroupedAndHybridRideLanes checks that AllReduceMany and
// HybridBroadcast on a tenant view go through the tenant's lane and ledger
// like every other call: each bucket is admitted, completed and attributed,
// and a quota that cannot fit a bucket rejects it.
func TestTenantGroupedAndHybridRideLanes(t *testing.T) {
	comm, err := NewComm(DGX1V(), full8)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := NewTenant(comm, TenantOptions{Name: "grouped"})
	if err != nil {
		t.Fatal(err)
	}
	// settled waits out the instant between a handle resolving and its lane
	// worker releasing the op from the outstanding ledger.
	settled := func(tn *Tenant, completed int64) TenantStats {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for tn.Stats().CompletedOps != completed && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		return tn.Stats()
	}
	sizes := []int64{4 << 20, 8 << 20, 4 << 20}
	k := int64(len(sizes))
	want, err := comm.AllReduceMany(sizes)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tn.AllReduceMany(sizes)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seconds != want.Seconds || got.CacheHits != uint64(k) {
		t.Fatalf("tenant group %+v != untenanted %+v (all warm)", got, want)
	}
	st := settled(tn, k)
	if st.SubmittedOps != k || st.AdmittedOps+st.RejectedOps != k || st.CompletedOps != k {
		t.Fatalf("grouped dispatch bypassed the ledger: %+v", st)
	}
	if st.CacheLookups != k || st.CacheHits+st.CacheMisses != k {
		t.Fatalf("grouped cache attribution %d lookups / %d hits / %d misses, want %d",
			st.CacheLookups, st.CacheHits, st.CacheMisses, k)
	}
	if _, err := tn.HybridBroadcast(0, 64<<20); err != nil {
		t.Fatal(err)
	}
	if st := settled(tn, k+1); st.SubmittedOps != k+1 || st.CompletedOps != k+1 {
		t.Fatalf("hybrid dispatch bypassed the ledger: %+v", st)
	}

	capped, err := NewTenant(comm, TenantOptions{Name: "capped", ByteQuota: 6 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := capped.AllReduceMany([]int64{4 << 20, 8 << 20}); !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("bucket over the byte quota: err = %v, want ErrAdmissionRejected", err)
	}
	if _, err := capped.HybridBroadcast(0, 64<<20); !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("hybrid over the byte quota: err = %v, want ErrAdmissionRejected", err)
	}
	if st := settled(capped, 1); st.SubmittedOps != 3 || st.AdmittedOps != 1 || st.RejectedOps != 2 {
		t.Fatalf("capped ledger %+v, want 3 submitted = 1 admitted + 2 rejected", st)
	}
}

// TestTenantDeferredHandle checks the low-watermark back-off signal
// surfaces through Handle.Deferred.
func TestTenantDeferredHandle(t *testing.T) {
	cfg := QoSConfig{Workers: 1}
	for c := range cfg.Lanes {
		// Tiny low watermark: the second outstanding op must defer.
		cfg.Lanes[c] = LaneConfig{LowWater: 1 << 20, HighWater: 1 << 40}
	}
	comm, err := NewComm(DGX1V(), full8, WithQoS(cfg))
	if err != nil {
		t.Fatal(err)
	}
	tn, err := NewTenant(comm, TenantOptions{Name: "deferred"})
	if err != nil {
		t.Fatal(err)
	}
	var sawDeferred bool
	var hs []*Handle
	for i := 0; i < 16; i++ {
		h := tn.AllReduceAsync(8 << 20)
		if h.Deferred() {
			sawDeferred = true
		}
		hs = append(hs, h)
	}
	for _, h := range hs {
		if _, err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if !sawDeferred {
		t.Fatal("no submission ever reported Deferred despite a 1 MB low watermark")
	}
	if tn.Stats().DeferredOps == 0 {
		t.Fatal("ledger shows no deferred ops")
	}
}

// TestMultiTenantRaceStarvation is the race/starvation regression: nine
// tenants across all three classes hammer one shared data-mode engine
// while a ReconfigureExclude fault fires mid-stream. Every handle must
// settle, data-mode results must stay elementwise-exact on whichever
// topology each call pinned, the telemetry lane must drain under the
// sustained LatencyCritical flood (the aging knob at work), and every
// tenant ledger must balance. Run under `make race`.
func TestMultiTenantRaceStarvation(t *testing.T) {
	comm, err := NewComm(DGX1V(), full8, WithDataMode(),
		WithQoS(QoSConfig{Workers: 2, AgingAfter: 20 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	classes := []Class{ClassLatencyCritical, ClassBulkGradient, ClassTelemetry}
	var tenants []*Tenant
	for i := 0; i < 9; i++ {
		class := classes[i%3]
		tn, err := NewTenant(comm, TenantOptions{
			Name:  fmt.Sprintf("%v-%d", class, i/3),
			Class: class,
		})
		if err != nil {
			t.Fatal(err)
		}
		tenants = append(tenants, tn)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 1024)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}

	// The LatencyCritical flood: a deep async timing-op backlog over few
	// workers, so lower lanes only drain if aging promotes their heads.
	for i, tn := range tenants {
		if tn.Class() != ClassLatencyCritical {
			continue
		}
		wg.Add(1)
		go func(tn *Tenant, seed int) {
			defer wg.Done()
			var hs []*Handle
			for k := 0; k < 150; k++ {
				hs = append(hs, tn.AllReduceAsync(1<<20))
			}
			for _, h := range hs {
				if _, err := h.Wait(); err != nil && !errors.Is(err, ErrAdmissionRejected) {
					report(fmt.Errorf("%s flood: %w", tn.Name(), err))
				}
			}
		}(tn, i)
	}

	// Every tenant also runs exact data-mode AllReduces through its lane.
	for i, tn := range tenants {
		wg.Add(1)
		go func(tn *Tenant, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for iter := 0; iter < 6; iter++ {
				ranks := tn.Size()
				inputs, sum := randInputs(rng, ranks, 64*ranks)
				outs, err := tn.AllReduceData(inputs)
				if err != nil {
					// A concurrent ReconfigureExclude can shrink the rank
					// count between sizing and dispatch; that surfaces as a
					// clean validation error, never as wrong data.
					continue
				}
				for r, out := range outs {
					if len(out) != len(sum) {
						report(fmt.Errorf("%s: rank %d result length %d != %d", tn.Name(), r, len(out), len(sum)))
						return
					}
					for j := range out {
						if out[j] != sum[j] {
							report(fmt.Errorf("%s: rank %d elem %d = %v, want %v", tn.Name(), r, j, out[j], sum[j]))
							return
						}
					}
				}
			}
		}(tn, int64(1000+i))
	}

	// The fault, mid-stream.
	time.Sleep(5 * time.Millisecond)
	if err := comm.ReconfigureExclude(7); err != nil {
		t.Fatal(err)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	aged := comm.MetricsSnapshot().Counters["blink_lane_aged_dispatch_total"]
	for _, tn := range tenants {
		st := tn.Stats()
		if st.OutstandingOps != 0 || st.OutstandingBytes != 0 {
			t.Errorf("%s: outstanding %d ops / %d bytes after all handles settled",
				st.Name, st.OutstandingOps, st.OutstandingBytes)
		}
		if st.SubmittedOps != st.AdmittedOps+st.RejectedOps {
			t.Errorf("%s: ledger inexact: %d != %d + %d",
				st.Name, st.SubmittedOps, st.AdmittedOps, st.RejectedOps)
		}
		if st.CacheHits+st.CacheMisses != st.CacheLookups {
			t.Errorf("%s: cache attribution inexact: %d + %d != %d",
				st.Name, st.CacheHits, st.CacheMisses, st.CacheLookups)
		}
		if st.Class == ClassTelemetry && st.CompletedOps == 0 {
			t.Errorf("%s: telemetry lane starved (0 completions; aged dispatches %d)",
				st.Name, aged)
		}
	}
}
