package collective

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blink/internal/simgpu"
	"blink/internal/topology"
)

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	eng, err := NewEngine(topology.DGX1V(), []int{0, 1, 2, 3, 4, 5, 6, 7}, simgpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestAsyncMatchesSync checks an async dispatch resolves to exactly the
// synchronous result, reports progress, and exposes cache attribution.
func TestAsyncMatchesSync(t *testing.T) {
	eng := newTestEngine(t)
	const bytes = 8 << 20
	want, err := eng.Run(Blink, AllReduce, 0, bytes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := eng.RunAsync(Blink, AllReduce, 0, bytes, Options{}, -1)
	got, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got.Seconds != want.Seconds || got.Strategy != want.Strategy {
		t.Fatalf("async result %+v != sync %+v", got, want)
	}
	if !h.CacheHit() {
		t.Fatal("warm async dispatch did not report a cache hit")
	}
	done, total := h.Progress()
	if total == 0 || done != total {
		t.Fatalf("resolved handle progress %d/%d, want full", done, total)
	}
	select {
	case <-h.Done():
	default:
		t.Fatal("Done channel not closed after Wait")
	}
	if h.Err() != nil {
		t.Fatalf("Err() = %v on success", h.Err())
	}
}

// TestAsyncErrorThroughHandle checks submission never panics or blocks on a
// bad op: the failure resolves through the handle.
func TestAsyncErrorThroughHandle(t *testing.T) {
	eng := newTestEngine(t)
	h := eng.RunAsync(Blink, Broadcast, 99, 1<<20, Options{}, -1) // root out of range
	if _, err := h.Wait(); err == nil {
		t.Fatal("out-of-range root resolved without error")
	}
	if h.Err() == nil {
		t.Fatal("Err() nil after failed resolve")
	}
	// A payload below the 4-byte floor also fails through the handle.
	if _, err := eng.RunAsync(Blink, AllReduce, 0, 2, Options{}, 0).Wait(); err == nil {
		t.Fatal("undersized payload resolved without error")
	}
}

// TestStreamSchedulerFIFOWithinStream drives the scheduler primitive
// directly: tasks pinned to one stream must run strictly in submission
// order, while a second stream's tasks interleave freely.
func TestStreamSchedulerFIFOWithinStream(t *testing.T) {
	s := newStreamScheduler(2, 0, nil)
	const n = 32
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	wg.Add(2 * n)
	for i := 0; i < n; i++ {
		i := i
		s.submit(0, 1, func(int) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			wg.Done()
		})
		// Concurrent traffic on the other stream must not perturb
		// stream 0's ordering.
		s.submit(1, 1, func(int) { wg.Done() })
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != n {
		t.Fatalf("ran %d of %d stream-0 tasks", len(order), n)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("stream 0 ran task %d at position %d (order %v)", got, i, order[:i+1])
		}
	}
}

// TestAsyncFIFOWithinStream checks the same property end to end through
// RunAsync: when the LAST op pinned to a stream resolves, every earlier
// op on that stream has already published its result (the scheduler
// completes an op strictly before starting the next, so this holds
// deterministically under FIFO and fails if ops ever ran out of order).
func TestAsyncFIFOWithinStream(t *testing.T) {
	eng := newTestEngine(t)
	const n = 6
	handles := make([]*Handle, n)
	for i := 0; i < n; i++ {
		// Alternate payloads so reordering would be profitable.
		bytes := int64(32 << 20)
		if i%2 == 1 {
			bytes = 1 << 20
		}
		handles[i] = eng.RunAsync(Blink, AllReduce, 0, bytes, Options{}, 0)
	}
	// Wait on the last handle FIRST: under FIFO its resolution implies
	// all predecessors resolved, so their Done channels must already be
	// closed at this instant.
	if _, err := handles[n-1].Wait(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n-1; i++ {
		select {
		case <-handles[i].Done():
		default:
			t.Fatalf("handle %d still pending although the stream's last handle resolved", i)
		}
	}
	for _, h := range handles {
		if _, err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAsyncBackpressure checks the in-flight byte window blocks
// submissions once exceeded and releases them as completions drain.
func TestAsyncBackpressure(t *testing.T) {
	eng := newTestEngine(t)
	eng.ConfigureAsync(1, 64<<20) // one stream, 64 MB window
	// Warm the plan so queued ops replay quickly.
	if _, err := eng.Run(Blink, AllReduce, 0, 32<<20, Options{}); err != nil {
		t.Fatal(err)
	}
	var submitted atomic.Int32
	doneSubmitting := make(chan []*Handle)
	go func() {
		var hs []*Handle
		for i := 0; i < 8; i++ {
			hs = append(hs, eng.RunAsync(Blink, AllReduce, 0, 32<<20, Options{}, -1))
			submitted.Add(1)
		}
		doneSubmitting <- hs
	}()
	hs := <-doneSubmitting
	if got := submitted.Load(); got != 8 {
		t.Fatalf("submitted %d of 8", got)
	}
	for _, h := range hs {
		if _, err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// The window admits at most 2 x 32 MB at once, so the scheduler's
	// inflight accounting must end at zero.
	sched := eng.streams()
	sched.mu.Lock()
	inflight := sched.inflight
	sched.mu.Unlock()
	if inflight != 0 {
		t.Fatalf("inflight bytes %d after all handles resolved", inflight)
	}
}

// TestAsyncReconfigureLeavesNoDeadPlans checks queued async dispatches
// pinned to a pre-fault snapshot cannot re-pin LRU slots under the
// invalidated fingerprint: lookupOrCompile's post-Put state re-check
// invalidates the stale fingerprint after every compile from a pinned
// snapshot, so once all handles resolve the cache holds no plans for the
// dead topology.
func TestAsyncReconfigureLeavesNoDeadPlans(t *testing.T) {
	eng := newTestEngine(t)
	oldFP := eng.Fingerprint()
	var handles []*Handle
	for i := 0; i < 10; i++ {
		handles = append(handles, eng.RunAsync(Blink, AllReduce, 0, int64((i+1))<<20, Options{}, i%2))
	}
	if err := eng.ReconfigureExclude([]int{7}); err != nil {
		t.Fatal(err)
	}
	for _, h := range handles {
		if _, err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// Late async traffic on the post-fault topology keeps the cache warm
	// under the new fingerprint only.
	if _, err := eng.RunAsync(Blink, AllReduce, 0, 1<<20, Options{}, -1).Wait(); err != nil {
		t.Fatal(err)
	}
	cache := eng.PlanCacheHandle()
	cache.mu.Lock()
	defer cache.mu.Unlock()
	for el := cache.order.Front(); el != nil; el = el.Next() {
		if k := el.Value.(*cacheEntry).key; k.Fingerprint == oldFP {
			t.Fatalf("dead-fingerprint plan still resident: %+v", k)
		}
	}
	if len(cache.entries) == 0 {
		t.Fatal("cache empty: post-fault plans should be resident")
	}
}

// TestAsyncOversizedOpAdmitted checks one op larger than the whole window
// still runs (alone) instead of deadlocking.
func TestAsyncOversizedOpAdmitted(t *testing.T) {
	eng := newTestEngine(t)
	eng.ConfigureAsync(1, 8<<20)
	h := eng.RunAsync(Blink, AllReduce, 0, 64<<20, Options{}, -1)
	select {
	case <-h.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("oversized op never resolved")
	}
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamSchedulerFIFOAdmission is the starvation regression for
// ticket-ordered admission: an oversized op blocked on the in-flight
// window must admit before every submission that arrived after it, even
// when those later ops would individually fit. Before the ticket fix, the
// small ops kept slipping past the big one and it could wait forever.
func TestStreamSchedulerFIFOAdmission(t *testing.T) {
	s := newStreamScheduler(1, 10, nil)
	var mu sync.Mutex
	var order []string
	record := func(tag string) {
		mu.Lock()
		order = append(order, tag)
		mu.Unlock()
	}
	release := make(chan struct{})
	var wg sync.WaitGroup

	// Occupy the window so later submissions must wait for admission.
	wg.Add(1)
	s.submit(0, 6, func(int) {
		<-release
		record("warm")
		wg.Done()
	})

	// The oversized op (bigger than the whole window) takes the next
	// ticket and blocks: inflight > 0 and it can't fit.
	wg.Add(1)
	go s.submit(0, 100, func(int) {
		record("big")
		wg.Done()
	})
	waitTickets := func(n uint64) {
		for {
			s.mu.Lock()
			tail := s.admitTail
			s.mu.Unlock()
			if tail >= n {
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	waitTickets(2)

	// A stream of small ops that WOULD fit in the window right now — under
	// FIFO tickets they must all queue behind the big op.
	const smalls = 10
	for i := 0; i < smalls; i++ {
		wg.Add(1)
		go s.submit(0, 1, func(int) {
			record("small")
			wg.Done()
		})
	}
	waitTickets(2 + smalls)

	close(release)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2+smalls {
		t.Fatalf("ran %d tasks, want %d", len(order), 2+smalls)
	}
	if order[0] != "warm" || order[1] != "big" {
		t.Fatalf("oversized op starved: execution order %v", order)
	}
	// Its admission wait is attributed on the metrics.
	if s.mWaits.Value() == 0 {
		t.Fatal("admission waits counter did not move")
	}
}

// TestStreamSchedulerDrainReleasesBacking is the memory regression for
// drain: popped task slots must be zeroed (so completed closures and the
// buffers they capture are collectable immediately) and a fully drained
// queue must drop its backing array instead of retaining it forever.
func TestStreamSchedulerDrainReleasesBacking(t *testing.T) {
	s := newStreamScheduler(1, 0, nil)
	var wg sync.WaitGroup
	const n = 16
	wg.Add(n)
	for i := 0; i < n; i++ {
		s.submit(0, 1, func(int) { wg.Done() })
	}
	wg.Wait()
	// The worker exits once the queue drains; poll for it, then check the
	// backing array was released.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		running, tasks := s.streams[0].running, s.streams[0].tasks
		s.mu.Unlock()
		if !running {
			if tasks != nil {
				t.Fatalf("drained queue retains backing array of %d slots", cap(tasks))
			}
			if got := s.mQueueDepth[0].Value(); got != 0 {
				t.Fatalf("queue depth gauge = %d after drain", got)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never exited")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestClusterAsync checks the cluster engine's async path end to end.
func TestClusterAsync(t *testing.T) {
	c, err := topology.NewCluster([]topology.Server{
		{Machine: topology.DGX1V(), Devs: []int{0, 1, 2, 3, 4, 5, 6, 7}},
		{Machine: topology.DGX1V(), Devs: []int{0, 1, 2, 3, 4, 5, 6, 7}},
	}, 100)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewClusterEngine(c, simgpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Run(Blink, AllReduce, 0, 16<<20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := eng.RunAsync(Blink, AllReduce, 0, 16<<20, Options{}, -1)
	got, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got.Seconds != want.Seconds || got.Phase2 != want.Phase2 {
		t.Fatalf("cluster async %+v != sync %+v", got, want)
	}
	if !h.CacheHit() {
		t.Fatal("warm cluster async dispatch did not hit the cache")
	}
	if done, total := h.Progress(); total == 0 || done != total {
		t.Fatalf("cluster handle progress %d/%d", done, total)
	}
}
