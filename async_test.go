package blink

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// settleGoroutines polls until the live goroutine count drops back to at
// most base (plus a small allowance for runtime-internal goroutines), so
// tests can assert the async stream workers are ephemeral — a leak fails
// the deadline, not flakily.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC() // nudge any parked finalizer goroutines
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines never settled: %d > base %d\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// raceReconfigure evicts and restores GPU 7 of a two-stream data-mode DGX-1V
// communicator nine times (ending evicted). Before the first fault it submits
// 4 handles of each pinned op, alternating streams, all valid only on the
// pre-fault topology; while the faults run, four goroutines each call race
// four times with their own rng. Every handle resolves with a result:
// in-flight work completes on its pinned snapshot. Post-fault submissions
// see the shrunken communicator, and no goroutine outlives the last handle.
func raceReconfigure(t *testing.T, pinned []func(*Comm, AsyncOpt) *Handle,
	race func(c *Comm, g, i int, rng *rand.Rand) ([]*Handle, error)) {
	t.Helper()
	base := runtime.NumGoroutine()
	comm := dgx1vComm(t, full8, WithStreams(2), WithDataMode())
	var handles []*Handle
	for i := 0; i < 4*len(pinned); i++ {
		handles = append(handles, pinned[i%len(pinned)](comm, OnStream(i%2)))
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	errs := make(chan error, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 9; i++ {
			err := comm.ReconfigureExclude(7)
			if i%2 == 1 {
				// The public API only shrinks, so restore through the engine.
				err = comm.eng.Reconfigure(nil, full8)
			}
			if err != nil {
				errs <- fmt.Errorf("reconfigure: %w", err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 4; i++ {
				hs, err := race(comm, g, i, rng)
				mu.Lock()
				handles = append(handles, hs...)
				mu.Unlock()
				if err != nil {
					errs <- fmt.Errorf("goroutine %d call %d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i, h := range handles {
		if _, err := h.Wait(); err != nil {
			t.Fatalf("handle %d: %v", i, err)
		}
	}

	if comm.Size() != 7 {
		t.Fatalf("post-fault size %d, want 7", comm.Size())
	}
	if _, err := comm.BroadcastAsync(7, 1<<20).Wait(); err == nil {
		t.Fatal("post-fault broadcast from the evicted root resolved without error")
	}
	if _, err := comm.SendRecvAsync([]int{0, 7}, 1<<20).Wait(); err == nil {
		t.Fatal("post-fault chain through the evicted rank resolved without error")
	}
	if _, err := comm.AllToAllAsync(1 << 20).Wait(); err != nil {
		t.Fatalf("post-fault alltoall: %v", err)
	}
	settleGoroutines(t, base)
}

// TestAsyncReconfigureRace races rooted async collectives — AllReduce, and
// Broadcast and Reduce from root 7 — against the evictions of GPU 7, beside
// async AllReduces valid on both topologies.
func TestAsyncReconfigureRace(t *testing.T) {
	raceReconfigure(t, []func(*Comm, AsyncOpt) *Handle{
		func(c *Comm, o AsyncOpt) *Handle { return c.AllReduceAsync(8<<20, o) },
		func(c *Comm, o AsyncOpt) *Handle { return c.BroadcastAsync(7, 4<<20, o) },
		func(c *Comm, o AsyncOpt) *Handle { return c.ReduceAsync(7, 2<<20, o) },
	}, func(c *Comm, _, _ int, _ *rand.Rand) ([]*Handle, error) {
		return []*Handle{c.AllReduceAsync(1 << 20)}, nil
	})
}

// TestAsyncExchangeReconfigureRace races the exchange ops through rank 7 —
// AllToAll, a SendRecv chain and a NeighborExchange list — against the
// evictions of GPU 7, beside exchanges valid on both topologies.
func TestAsyncExchangeReconfigureRace(t *testing.T) {
	ring := [][]int{{7}, {0}, {1}, {2}, {3}, {4}, {5}, {6}}
	raceReconfigure(t, []func(*Comm, AsyncOpt) *Handle{
		func(c *Comm, o AsyncOpt) *Handle { return c.AllToAllAsync(8<<20, o) },
		func(c *Comm, o AsyncOpt) *Handle { return c.SendRecvAsync([]int{0, 3, 7}, 2<<20, o) },
		func(c *Comm, o AsyncOpt) *Handle { return c.NeighborExchangeAsync(ring, 1<<20, o) },
	}, func(c *Comm, _, _ int, _ *rand.Rand) ([]*Handle, error) {
		return []*Handle{c.AllToAllAsync(1 << 20), c.SendRecvAsync([]int{0, 1, 2}, 1<<20)}, nil
	})
}

// TestDataCallsDuringRankChangingReconfigure: data-mode AllReduces racing the
// evictions of GPU 7 each pin one snapshot, so every call returns exact sums
// or fails the clean rank-count check, never silently drops a rank.
func TestDataCallsDuringRankChangingReconfigure(t *testing.T) {
	raceReconfigure(t, nil, func(c *Comm, g, i int, rng *rand.Rand) ([]*Handle, error) {
		in, sum := randInputs(rng, 8, 300+17*g+i)
		out, err := c.AllReduceData(in)
		if err == nil {
			return nil, diffRows(out, repeat(sum, 8))
		}
		if strings.Contains(err.Error(), "8 inputs for 7 ranks") {
			return nil, nil
		}
		return nil, err
	})
}

// TestAsyncStreamWorkersEphemeral checks an idle communicator holds no
// stream goroutines: workers spawn with work and exit when queues drain.
func TestAsyncStreamWorkersEphemeral(t *testing.T) {
	base := runtime.NumGoroutine()
	comm := dgx1vComm(t, []int{0, 1, 2, 3}, WithStreams(4))
	for round := 0; round < 3; round++ {
		var hs []*Handle
		for i := 0; i < 8; i++ {
			hs = append(hs, comm.AllReduceAsync(1<<20))
		}
		for _, h := range hs {
			if _, err := h.Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	settleGoroutines(t, base)
}
