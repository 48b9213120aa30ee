package blink

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentCollectivesOneComm drives >= 8 concurrent collectives
// through a single Comm. Under `go test -race` this is the gate for the
// concurrency-safe engine: no data races, no divergent timings, and the
// steady state replays cached plans.
func TestConcurrentCollectivesOneComm(t *testing.T) {
	comm, err := NewComm(DGX1V(), []int{0, 1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := comm.AllReduce(100 << 20)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 12
	const perWorker = 3
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	times := make([]float64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				res, err := comm.AllReduce(100 << 20)
				if err != nil {
					errs <- err
					return
				}
				times[w] = res.Seconds
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for w, s := range times {
		if s != baseline.Seconds {
			t.Fatalf("worker %d saw %.9fs, baseline %.9fs", w, s, baseline.Seconds)
		}
	}
	st := comm.CacheStats()
	if st.Misses != 1 {
		t.Fatalf("one shape should compile once (sequential warm-up): %+v", st)
	}
	if st.Hits != workers*perWorker {
		t.Fatalf("hits = %d, want %d", st.Hits, workers*perWorker)
	}
}

// TestConcurrentMixedOps exercises different ops and payloads in parallel
// through one Comm.
func TestConcurrentMixedOps(t *testing.T) {
	comm, err := NewComm(DGX1V(), []int{1, 4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	ops := []func() (Result, error){
		func() (Result, error) { return comm.AllReduce(64 << 20) },
		func() (Result, error) { return comm.Broadcast(0, 64<<20) },
		func() (Result, error) { return comm.Gather(0, 32<<20) },
		func() (Result, error) { return comm.ReduceScatter(32 << 20) },
		func() (Result, error) { return comm.AllGather(16 << 20) },
		func() (Result, error) { return comm.Reduce(0, 16<<20) },
		func() (Result, error) { return comm.Scatter(0, 64<<20) },
		func() (Result, error) { return comm.AllReduce(8 << 20) },
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(ops))
	for round := 0; round < 2; round++ {
		for _, f := range ops {
			wg.Add(1)
			go func(f func() (Result, error)) {
				defer wg.Done()
				if _, err := f(); err != nil {
					errs <- err
				}
			}(f)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentDataMode runs data-moving collectives from several
// goroutines; each call executes against its own buffer arena, so results
// stay functionally correct with no internal serialization.
func TestConcurrentDataMode(t *testing.T) {
	comm, err := NewComm(DGX1V(), []int{0, 1, 2, 3}, WithDataMode())
	if err != nil {
		t.Fatal(err)
	}
	const n = 512
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			inputs := make([][]float32, comm.Size())
			var want float32
			for v := range inputs {
				in := make([]float32, n)
				for i := range in {
					in[i] = float32(g + v + 1)
				}
				want += float32(g + v + 1)
				inputs[v] = in
			}
			out, err := comm.AllReduceData(inputs)
			if err != nil {
				errs <- err
				return
			}
			for v := range out {
				for i := range out[v] {
					if out[v][i] != want {
						errs <- fmt.Errorf("goroutine %d rank %d elem %d: got %v, want %v", g, v, i, out[v][i], want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestAllReduceManyWarm asserts the grouped API reaches steady state after
// one training step.
func TestAllReduceManyWarm(t *testing.T) {
	comm, err := NewComm(DGX1V(), []int{0, 1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	buckets := []int64{25 << 20, 25 << 20, 25 << 20, 12 << 20}
	g1, err := comm.AllReduceMany(buckets)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := comm.AllReduceMany(buckets)
	if err != nil {
		t.Fatal(err)
	}
	if g2.CacheMisses != 0 {
		t.Fatalf("second step recompiled: %+v", g2)
	}
	if g2.Seconds != g1.Seconds {
		t.Fatalf("steady-state step time changed: %.9f vs %.9f", g2.Seconds, g1.Seconds)
	}
}

// TestPlanCacheCapacityOption verifies WithPlanCacheCapacity(0) disables
// caching at the public API.
func TestPlanCacheCapacityOption(t *testing.T) {
	comm, err := NewComm(DGX1V(), []int{5, 6, 7}, WithPlanCacheCapacity(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := comm.AllReduce(8 << 20); err != nil {
			t.Fatal(err)
		}
	}
	st := comm.CacheStats()
	if st.Hits != 0 || st.Misses != 3 {
		t.Fatalf("cache disabled but stats = %+v", st)
	}
}

// TestSharedCacheAcrossComms verifies two communicators over the same
// allocation share compiled plans through WithPlanCache.
func TestSharedCacheAcrossComms(t *testing.T) {
	pc := NewPlanCache(32)
	c1, err := NewComm(DGX1V(), []int{0, 1, 2, 3}, WithPlanCache(pc))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewComm(DGX1V(), []int{0, 1, 2, 3}, WithPlanCache(pc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.AllReduce(16 << 20); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.AllReduce(16 << 20); err != nil {
		t.Fatal(err)
	}
	st := pc.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("shared cache stats = %+v, want 1 hit / 1 miss", st)
	}
}

// TestSharedPlanCachePooledConcurrent is the race-detector gate for cache
// pooling: one PlanCache serves six communicators — different allocations,
// both backends, plus a multi-server cluster Comm — all dispatching
// concurrently. Afterwards the hit/miss counters must be consistent: every
// dispatch is exactly one lookup, every distinct shape stays resident, and
// warm dispatches replayed identical timings.
func TestSharedPlanCachePooledConcurrent(t *testing.T) {
	pc := NewPlanCache(256)
	mk := func(devs []int, b Backend) *Comm {
		c, err := NewComm(DGX1V(), devs, WithBackend(b), WithPlanCache(pc))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	comms := []*Comm{
		mk([]int{0, 1, 2, 3}, BackendBlink),
		mk([]int{0, 1, 2, 3}, BackendBlink), // same allocation: shares plans with the first
		mk([]int{4, 5, 6, 7}, BackendBlink),
		mk([]int{0, 1, 2, 3, 4, 5, 6, 7}, BackendNCCL),
		mk([]int{2, 3, 6, 7}, BackendNCCL),
	}
	cluster, err := NewClusterComm(twoServerCluster(t, 3, 5, 100), WithPlanCache(pc))
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int64{1 << 20, 5 << 20, 20 << 20}
	// Distinct plan shapes: 4 distinct (fingerprint, backend) combinations
	// from the single-machine comms (two comms share one) x 3 sizes, plus
	// the cluster's 3 sizes under its own fingerprint.
	const distinctKeys = 4*3 + 3

	var dispatches atomic.Uint64
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	const workersPerComm = 3
	const iters = 2
	baselines := make([]map[int64]float64, len(comms))
	for i, c := range comms {
		baselines[i] = map[int64]float64{}
		for _, sz := range sizes {
			r, err := c.AllReduce(sz)
			if err != nil {
				t.Fatal(err)
			}
			baselines[i][sz] = r.Seconds
			dispatches.Add(1)
		}
	}
	for i, c := range comms {
		for w := 0; w < workersPerComm; w++ {
			wg.Add(1)
			go func(i int, c *Comm) {
				defer wg.Done()
				for it := 0; it < iters; it++ {
					for _, sz := range sizes {
						r, err := c.AllReduce(sz)
						dispatches.Add(1)
						if err != nil {
							errs <- err
							return
						}
						if r.Seconds != baselines[i][sz] {
							errs <- fmt.Errorf("comm %d size %d: %v != baseline %v", i, sz, r.Seconds, baselines[i][sz])
							return
						}
					}
				}
			}(i, c)
		}
	}
	for w := 0; w < workersPerComm; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				for _, sz := range sizes {
					if _, err := cluster.AllReduce(sz); err != nil {
						errs <- err
					}
					dispatches.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := pc.Stats()
	total := dispatches.Load()
	if st.Hits+st.Misses != total {
		t.Fatalf("counters inconsistent: %d hits + %d misses != %d dispatches", st.Hits, st.Misses, total)
	}
	if st.Entries != distinctKeys {
		t.Fatalf("entries = %d, want %d distinct shapes", st.Entries, distinctKeys)
	}
	if st.Misses < distinctKeys {
		t.Fatalf("misses = %d, below the %d distinct shapes", st.Misses, distinctKeys)
	}
	if st.Hits == 0 {
		t.Fatal("no warm dispatch ever hit the pooled cache")
	}
	if st.Evictions != 0 {
		t.Fatalf("unexpected evictions: %+v", st)
	}
}
