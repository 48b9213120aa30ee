package blink

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestPlanCacheCapacityOption verifies WithPlanCacheCapacity(0) disables
// caching at the public API.
func TestPlanCacheCapacityOption(t *testing.T) {
	comm := dgx1vComm(t, []int{5, 6, 7}, WithPlanCacheCapacity(0))
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

// TestSharedPlanCachePooledConcurrent is the race-detector gate for cache
// pooling: one PlanCache serves six communicators — different allocations,
// both backends, plus a multi-server cluster Comm — all dispatching
// concurrently. Afterwards the hit/miss counters must be consistent: every
// dispatch is exactly one lookup, every distinct shape stays resident, and
// warm dispatches replayed identical timings.
func TestSharedPlanCachePooledConcurrent(t *testing.T) {
	pc := NewPlanCache(256)
	mk := func(devs []int, b Backend) *Comm {
		c := dgx1vComm(t, devs, WithBackend(b), WithPlanCache(pc))
		return c
	}
	comms := []*Comm{
		mk([]int{0, 1, 2, 3}, BackendBlink),
		mk([]int{0, 1, 2, 3}, BackendBlink), // same allocation: shares plans with the first
		mk([]int{4, 5, 6, 7}, BackendBlink),
		mk([]int{0, 1, 2, 3, 4, 5, 6, 7}, BackendNCCL),
		mk([]int{2, 3, 6, 7}, BackendNCCL),
	}
	cluster := clusterComm(t, twoServerCluster(t, 3, 5), WithPlanCache(pc))
	comms = append(comms, cluster)
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
