package collective

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// testTenant builds a bare tenant for driving the lane scheduler
// primitive directly (no engine).
func testTenant(name string, class Class, byteQuota, opQuota int64) *Tenant {
	return &Tenant{
		id:        tenantIDs.Add(1),
		name:      name,
		class:     class,
		byteQuota: byteQuota,
		opQuota:   opQuota,
	}
}

// quiesced reports whether every lane is empty and every worker has
// exited.
func (s *scheduler) quiesced() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active != 0 {
		return false
	}
	for c := Class(0); c < NumClasses; c++ {
		if len(s.queues[c].pending) != 0 || s.queues[c].outstanding != 0 {
			return false
		}
	}
	return true
}

// waitQuiesced polls until every lane drains and every worker exits.
func waitQuiesced(t *testing.T, s *scheduler) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !s.quiesced() {
		if time.Now().After(deadline) {
			t.Fatal("lane scheduler never quiesced")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestLanePropertyRandomInterleavings is the lane scheduler's property
// suite: random submission interleavings across classes and tenants must
// preserve (a) strict dispatch priority — with aging disabled, no pick
// ever happens while a strictly higher-priority lane has work queued, (b)
// exact per-tenant quota accounting — submitted == admitted + rejected,
// bytes and ops alike, with the outstanding ledger returning to zero, and
// (c) bounded lane queues — pending depth never exceeds the configured
// capacity.
func TestLanePropertyRandomInterleavings(t *testing.T) {
	const queueCap = 8
	cfg := QoSConfig{
		Workers:    3,
		AgingAfter: -1, // pure strict priority: property (a) must be exact
	}
	for c := range cfg.Lanes {
		cfg.Lanes[c] = LaneConfig{QueueCap: queueCap, LowWater: 1 << 10, HighWater: 4 << 10}
	}
	s := newLaneScheduler(cfg, nil)

	var propMu sync.Mutex
	var violations []string
	s.onDispatch = func(q int, aged bool, pending []int) {
		picked := Class(q)
		// Called under the scheduler lock with the pre-pop queue depths:
		// exactly the "simultaneously queued ready ops" the property is
		// about.
		if aged {
			violations = append(violations, "aged dispatch with aging disabled")
		}
		for _, c := range laneOrder {
			if c == picked {
				break
			}
			if pending[c] > 0 {
				violations = append(violations,
					picked.String()+" dispatched while "+c.String()+" had queued work")
			}
		}
		for c := Class(0); c < NumClasses; c++ {
			if pending[c] > queueCap {
				violations = append(violations, c.String()+" queue exceeded its capacity")
			}
		}
	}
	// onDispatch runs under s.mu, but collect violations under a separate
	// lock so reading them after quiesce is race-free by construction.
	guard := s.onDispatch
	s.onDispatch = func(p int, a bool, d []int) {
		propMu.Lock()
		guard(p, a, d)
		propMu.Unlock()
	}

	tenants := []*Tenant{
		testTenant("lc-a", LatencyCritical, 0, 0),
		testTenant("lc-quota", LatencyCritical, 256, 0),
		testTenant("bulk-a", BulkGradient, 0, 0),
		testTenant("bulk-quota", BulkGradient, 0, 4),
		testTenant("tel-a", Telemetry, 0, 0),
		testTenant("tel-quota", Telemetry, 128, 2),
	}

	const submitters = 8
	const perSubmitter = 120
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perSubmitter; i++ {
				tn := tenants[rng.Intn(len(tenants))]
				s.submit(int(tn.class), tn, int64(1+rng.Intn(64)), func(int) *Handle {
					if rng := rand.Int() % 8; rng == 0 {
						time.Sleep(50 * time.Microsecond)
					}
					return nil
				})
			}
		}(int64(g + 1))
	}
	wg.Wait()
	waitQuiesced(t, s)

	propMu.Lock()
	defer propMu.Unlock()
	for _, v := range violations {
		t.Error(v)
	}

	var totalRejectedOps int64
	for _, tn := range tenants {
		st := tn.Stats()
		if st.SubmittedBytes != st.AdmittedBytes+st.RejectedBytes {
			t.Errorf("%s: byte ledger inexact: submitted %d != admitted %d + rejected %d",
				st.Name, st.SubmittedBytes, st.AdmittedBytes, st.RejectedBytes)
		}
		if st.SubmittedOps != st.AdmittedOps+st.RejectedOps {
			t.Errorf("%s: op ledger inexact: submitted %d != admitted %d + rejected %d",
				st.Name, st.SubmittedOps, st.AdmittedOps, st.RejectedOps)
		}
		if st.OutstandingBytes != 0 || st.OutstandingOps != 0 {
			t.Errorf("%s: outstanding %d bytes / %d ops after quiesce",
				st.Name, st.OutstandingBytes, st.OutstandingOps)
		}
		if st.AdmittedOps != st.CompletedOps {
			t.Errorf("%s: admitted %d ops but completed %d",
				st.Name, st.AdmittedOps, st.CompletedOps)
		}
		totalRejectedOps += st.RejectedOps
	}
	// The quota'd tenants are tight enough that the run must have exercised
	// the rejection path, or the ledger assertions above prove nothing.
	if totalRejectedOps == 0 {
		t.Error("no submission was ever rejected; property run did not exercise quotas")
	}
}

// TestLaneWatermarkVerdicts walks one lane through its watermark ladder:
// admissions below the low watermark admit, between the watermarks defer,
// at or above the high watermark reject — with outstanding bytes counting
// queued plus executing work.
func TestLaneWatermarkVerdicts(t *testing.T) {
	cfg := QoSConfig{Workers: 1, AgingAfter: -1}
	for c := range cfg.Lanes {
		cfg.Lanes[c] = LaneConfig{QueueCap: 100, LowWater: 100, HighWater: 200}
	}
	s := newLaneScheduler(cfg, nil)
	tn := testTenant("wm", BulkGradient, 0, 0)

	release := make(chan struct{})
	blocked := make(chan struct{})
	sub := func(bytes int64, run func(int) *Handle) Verdict {
		return s.submit(int(tn.class), tn, bytes, run)
	}
	if v := sub(60, func(int) *Handle { close(blocked); <-release; return nil }); v != VerdictAdmit {
		t.Fatalf("first submission: %v, want admit", v)
	}
	<-blocked // the blocker is executing: its bytes stay outstanding

	want := []Verdict{
		VerdictAdmit,  // outstanding 60 < 100
		VerdictDefer,  // outstanding 110 >= low
		VerdictDefer,  // outstanding 160 >= low, < high
		VerdictReject, // outstanding 210 >= high
	}
	for i, w := range want {
		if v := sub(50, func(int) *Handle { return nil }); v != w {
			t.Fatalf("submission %d: verdict %v, want %v", i, v, w)
		}
	}
	close(release)
	waitQuiesced(t, s)

	st := tn.Stats()
	if st.AdmittedOps != 4 || st.RejectedOps != 1 || st.DeferredOps != 2 {
		t.Fatalf("ledger admitted=%d rejected=%d deferred=%d, want 4/1/2",
			st.AdmittedOps, st.RejectedOps, st.DeferredOps)
	}
	// The lane is idle again: the watermark state fully released.
	if v := sub(50, func(int) *Handle { return nil }); v != VerdictAdmit {
		t.Fatalf("post-drain submission: %v, want admit", v)
	}
	waitQuiesced(t, s)
}

// TestLaneQueueCapRejects checks the bounded lane queue refuses work past
// its capacity regardless of watermark headroom.
func TestLaneQueueCapRejects(t *testing.T) {
	cfg := QoSConfig{Workers: 1, AgingAfter: -1}
	for c := range cfg.Lanes {
		cfg.Lanes[c] = LaneConfig{QueueCap: 2, LowWater: -1, HighWater: -1}
	}
	s := newLaneScheduler(cfg, nil)
	tn := testTenant("qc", Telemetry, 0, 0)

	release := make(chan struct{})
	blocked := make(chan struct{})
	s.submit(int(tn.class), tn, 1, func(int) *Handle { close(blocked); <-release; return nil })
	<-blocked
	// Worker busy: the next QueueCap submissions queue, the one after is
	// rejected even though the byte watermarks are disabled.
	for i := 0; i < 2; i++ {
		if v := s.submit(int(tn.class), tn, 1, func(int) *Handle { return nil }); v != VerdictAdmit {
			t.Fatalf("fill submission %d: %v, want admit", i, v)
		}
	}
	if v := s.submit(int(tn.class), tn, 1, func(int) *Handle { return nil }); v != VerdictReject {
		t.Fatalf("over-capacity submission: %v, want reject", v)
	}
	close(release)
	waitQuiesced(t, s)
}

// TestLaneQuotaRejects checks per-tenant byte and op quotas bound
// outstanding work and release as ops complete.
func TestLaneQuotaRejects(t *testing.T) {
	s := newLaneScheduler(QoSConfig{Workers: 2, AgingAfter: -1}, nil)
	byteTn := testTenant("bq", BulkGradient, 100, 0)
	opTn := testTenant("oq", BulkGradient, 0, 1)

	release := make(chan struct{})
	var blocked sync.WaitGroup
	blocked.Add(2)
	if v := s.submit(int(BulkGradient), byteTn, 60,
		func(int) *Handle { blocked.Done(); <-release; return nil }); v != VerdictAdmit {
		t.Fatalf("byte-quota tenant first op: %v", v)
	}
	if v := s.submit(int(BulkGradient), opTn, 1,
		func(int) *Handle { blocked.Done(); <-release; return nil }); v != VerdictAdmit {
		t.Fatalf("op-quota tenant first op: %v", v)
	}
	blocked.Wait()
	if v := s.submit(int(BulkGradient), byteTn, 60, func(int) *Handle { return nil }); v != VerdictReject {
		t.Fatalf("byte-quota breach: %v, want reject", v)
	}
	if v := s.submit(int(BulkGradient), opTn, 1, func(int) *Handle { return nil }); v != VerdictReject {
		t.Fatalf("op-quota breach: %v, want reject", v)
	}
	close(release)
	waitQuiesced(t, s)
	// Quotas are on outstanding work, not cumulative: both admit again.
	if v := s.submit(int(BulkGradient), byteTn, 60, func(int) *Handle { return nil }); v != VerdictAdmit {
		t.Fatalf("byte-quota tenant after drain: %v, want admit", v)
	}
	if v := s.submit(int(BulkGradient), opTn, 1, func(int) *Handle { return nil }); v != VerdictAdmit {
		t.Fatalf("op-quota tenant after drain: %v, want admit", v)
	}
	waitQuiesced(t, s)
}

// TestLaneStrictPriorityOrder checks the dispatch order of a backlog is
// exactly LatencyCritical > BulkGradient > Telemetry when aging is off.
func TestLaneStrictPriorityOrder(t *testing.T) {
	s := newLaneScheduler(QoSConfig{Workers: 1, AgingAfter: -1}, nil)
	tns := map[Class]*Tenant{
		LatencyCritical: testTenant("lc", LatencyCritical, 0, 0),
		BulkGradient:    testTenant("bulk", BulkGradient, 0, 0),
		Telemetry:       testTenant("tel", Telemetry, 0, 0),
	}
	release := make(chan struct{})
	blocked := make(chan struct{})
	s.submit(int(BulkGradient), tns[BulkGradient], 1, func(int) *Handle { close(blocked); <-release; return nil })
	<-blocked

	var mu sync.Mutex
	var order []Class
	// Enqueue in inverse priority order so FIFO arrival cannot fake the
	// expected outcome.
	for _, c := range []Class{Telemetry, Telemetry, BulkGradient, LatencyCritical, LatencyCritical} {
		c := c
		s.submit(int(c), tns[c], 1, func(int) *Handle {
			mu.Lock()
			order = append(order, c)
			mu.Unlock()
			return nil
		})
	}
	close(release)
	waitQuiesced(t, s)

	mu.Lock()
	defer mu.Unlock()
	want := []Class{LatencyCritical, LatencyCritical, BulkGradient, Telemetry, Telemetry}
	if len(order) != len(want) {
		t.Fatalf("ran %d ops, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", order, want)
		}
	}
}

// TestLaneAgingPreventsStarvation checks the aging knob: a Telemetry op
// older than AgingAfter is dispatched ahead of queued higher-priority
// work (oldest head first), so sustained high-priority floods cannot
// starve the low lanes forever — and the aged dispatch is counted.
func TestLaneAgingPreventsStarvation(t *testing.T) {
	s := newLaneScheduler(QoSConfig{Workers: 1, AgingAfter: 5 * time.Millisecond}, nil)
	lc := testTenant("lc", LatencyCritical, 0, 0)
	tel := testTenant("tel", Telemetry, 0, 0)

	release := make(chan struct{})
	blocked := make(chan struct{})
	s.submit(int(LatencyCritical), lc, 1, func(int) *Handle { close(blocked); <-release; return nil })
	<-blocked

	var mu sync.Mutex
	var order []Class
	note := func(c Class) func(int) *Handle {
		return func(int) *Handle {
			mu.Lock()
			order = append(order, c)
			mu.Unlock()
			return nil
		}
	}
	// Telemetry enqueues FIRST, then LatencyCritical backlog. Strict
	// priority would run every LC op before it; oldest-aged-first must run
	// the telemetry op first once everything has aged.
	s.submit(int(Telemetry), tel, 1, note(Telemetry))
	for i := 0; i < 4; i++ {
		s.submit(int(LatencyCritical), lc, 1, note(LatencyCritical))
	}
	time.Sleep(50 * time.Millisecond) // let every queued op age past the bound
	close(release)
	waitQuiesced(t, s)

	mu.Lock()
	defer mu.Unlock()
	if len(order) != 5 {
		t.Fatalf("ran %d ops, want 5", len(order))
	}
	if order[0] != Telemetry {
		t.Fatalf("aged telemetry op not dispatched first: order %v", order)
	}
	if s.mAged.Value() == 0 {
		t.Fatal("aged-dispatch counter did not move")
	}
}

// TestRunAsyncTenantRejectResolvesHandle checks a rejected tenant
// submission resolves its handle immediately with ErrAdmissionRejected
// (the op never runs) while admitted work is unaffected.
func TestRunAsyncTenantRejectResolvesHandle(t *testing.T) {
	eng := newTestEngine(t)
	tn := eng.NewTenant(TenantConfig{Name: "quota", Class: LatencyCritical, OpQuota: 1})

	h1, v1 := eng.RunAsyncTenant(tn, Blink, AllReduce, 0, 8<<20, Options{})
	if v1 == VerdictReject {
		t.Fatalf("first op rejected: %v", h1.Err())
	}
	// The op quota is 1 outstanding: the next submission must reject unless
	// the first already completed; loop until we catch the window (first
	// iteration almost always does).
	var rejected *Handle
	for i := 0; i < 100; i++ {
		h2, v2 := eng.RunAsyncTenant(tn, Blink, AllReduce, 0, 8<<20, Options{})
		if v2 == VerdictReject {
			rejected = h2
			break
		}
		if _, err := h2.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h1.Wait(); err != nil {
		t.Fatal(err)
	}
	if rejected == nil {
		t.Skip("never caught the outstanding-op window; quota reject covered elsewhere")
	}
	select {
	case <-rejected.Done():
	default:
		t.Fatal("rejected handle not resolved at return")
	}
	if _, err := rejected.Wait(); !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("rejected handle error %v, want ErrAdmissionRejected", err)
	}
	st := tn.Stats()
	if st.RejectedOps == 0 {
		t.Fatal("tenant ledger shows no rejections")
	}
}

// TestPlanCachePartitionFairness checks owner-tagged inserts evict within
// the inserting tenant's share once it is exhausted, leaving other
// owners' plans resident.
func TestPlanCachePartitionFairness(t *testing.T) {
	c := NewPlanCache(8)
	for i := 0; i < 4; i++ {
		c.addTenant() // share = 2 per owner
	}
	key := func(owner uint64, i int) PlanKey {
		return PlanKey{Fingerprint: "fp", Bytes: int64(i), EngineID: owner}
	}
	// Owner 2 parks two plans, then owner 1 churns through six.
	for i := 0; i < 2; i++ {
		c.PutTieredOwned(key(2, i), &CachedPlan{Strategy: "o2"}, nil, 2)
	}
	for i := 0; i < 6; i++ {
		c.PutTieredOwned(key(1, i), &CachedPlan{Strategy: "o1"}, nil, 1)
	}
	if got := c.OwnerLen(1); got != 2 {
		t.Fatalf("churning owner holds %d entries, want its share of 2", got)
	}
	if got := c.OwnerLen(2); got != 2 {
		t.Fatalf("victim owner holds %d entries, want 2 (untouched)", got)
	}
	if got := c.FairEvictions(); got != 4 {
		t.Fatalf("fair evictions %d, want 4", got)
	}
	for i := 0; i < 2; i++ {
		if _, ok := c.Get(key(2, i)); !ok {
			t.Fatalf("owner 2 plan %d evicted by owner 1's churn", i)
		}
	}
	// Owner 1 keeps its most recent share.
	for i := 4; i < 6; i++ {
		if _, ok := c.Get(key(1, i)); !ok {
			t.Fatalf("owner 1 lost its own most-recent plan %d", i)
		}
	}

	// Unowned inserts stay exempt: they evict by global LRU only.
	for i := 0; i < 8; i++ {
		c.Put(key(0, 100+i), &CachedPlan{Strategy: "shared"})
	}
	if c.Len() != 8 {
		t.Fatalf("cache holds %d entries, want capacity 8", c.Len())
	}
	if got := c.OwnerLen(1) + c.OwnerLen(2); got != 0 {
		t.Fatalf("owner ledger %d after global eviction swept owned entries", got)
	}
}

// TestPlanCacheInvalidateMaintainsOwnerLedger checks fingerprint
// invalidation releases owner charges so partition shares recover.
func TestPlanCacheInvalidateMaintainsOwnerLedger(t *testing.T) {
	c := NewPlanCache(8)
	c.addTenant()
	c.addTenant() // share = 4
	for i := 0; i < 4; i++ {
		c.PutTieredOwned(PlanKey{Fingerprint: "dead", Bytes: int64(i)}, &CachedPlan{}, nil, 7)
	}
	if got := c.OwnerLen(7); got != 4 {
		t.Fatalf("owner holds %d, want 4", got)
	}
	if n := c.InvalidateFingerprint("dead"); n != 4 {
		t.Fatalf("invalidated %d, want 4", n)
	}
	if got := c.OwnerLen(7); got != 0 {
		t.Fatalf("owner ledger %d after invalidation, want 0", got)
	}
	// The freed share is usable again without fair evictions.
	for i := 0; i < 4; i++ {
		c.PutTieredOwned(PlanKey{Fingerprint: "live", Bytes: int64(i)}, &CachedPlan{}, nil, 7)
	}
	if got, fe := c.OwnerLen(7), c.FairEvictions(); got != 4 || fe != 0 {
		t.Fatalf("post-invalidation refill: owner holds %d (want 4), fair evictions %d (want 0)", got, fe)
	}
}
