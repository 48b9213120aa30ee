package collective

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"blink/internal/core"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

func TestEngineReconfigureLinkLoss(t *testing.T) {
	machine := topology.DGX1V()
	devs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	eng := mustEngine(t, machine, devs, simgpu.Config{DataMode: true})
	pre := mustRun(t, eng, Blink, AllReduce, 64<<20, Options{})
	fpPre := eng.Fingerprint()

	degraded, err := machine.WithoutLink(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Reconfigure(degraded, nil); err != nil {
		t.Fatal(err)
	}
	if eng.Fingerprint() == fpPre {
		t.Fatal("fingerprint unchanged after reconfiguration")
	}
	post := mustRun(t, eng, Blink, AllReduce, 64<<20, Options{})
	if post.Strategy != "trees" {
		t.Fatalf("degraded-but-connected fabric should re-pack trees, got %q", post.Strategy)
	}
	// The MWU packing is a heuristic, so the degraded fabric may land on a
	// marginally different solution; the resilience claim is that the
	// replanned throughput stays within 2x of the pre-fault rate.
	if post.ThroughputGBs < pre.ThroughputGBs/2 {
		t.Fatalf("post-fault throughput %.2f fell below half of pre-fault %.2f", post.ThroughputGBs, pre.ThroughputGBs)
	}
	// Data mode must stay elementwise-exact on the degraded fabric.
	checkData(t, eng, Blink, AllReduce, 1000, 0, rand.New(rand.NewSource(1)))
	// Trees are re-packed for the degraded fabric.
	if _, err := eng.Packing(0); err != nil {
		t.Fatal(err)
	}

	// NCCL on the degraded allocation still works (rings re-search or fall
	// back to PCIe).
	if _, err := eng.Run(NCCL, AllReduce, 0, 64<<20, Options{}); err != nil {
		t.Fatalf("NCCL on degraded fabric: %v", err)
	}
}

func TestEngineReconfigureEviction(t *testing.T) {
	machine := topology.DGX1V()
	eng := mustEngine(t, machine, []int{0, 1, 2, 3, 4, 5, 6, 7}, simgpu.Config{DataMode: true})
	if err := eng.ReconfigureExclude([]int{3, 7}); err != nil {
		t.Fatal(err)
	}
	if got := eng.Topo().NumGPUs; got != 6 {
		t.Fatalf("%d GPUs after eviction, want 6", got)
	}
	if got := fmt.Sprint(eng.AllocatedDevs()); got != "[0 1 2 4 5 6]" {
		t.Fatalf("AllocatedDevs = %s, want [0 1 2 4 5 6]", got)
	}
	checkData(t, eng, Blink, AllReduce, 600, 0, rand.New(rand.NewSource(2)))
	// An eviction naming no device, a device already gone, or all but one
	// survivor fails.
	for _, evicted := range [][]int{nil, {3}, {0, 1, 2, 4, 5}} {
		if err := eng.ReconfigureExclude(evicted); err == nil {
			t.Fatalf("ReconfigureExclude(%v) succeeded, want an error", evicted)
		}
	}
}

func TestEngineReconfigureErrorsKeepState(t *testing.T) {
	machine := topology.DGX1V()
	eng := mustEngine(t, machine, []int{0, 1, 2, 3}, simgpu.Config{})
	fp := eng.Fingerprint()
	if err := eng.Reconfigure(nil, []int{0, 42}); err == nil {
		t.Fatal("unknown device must fail reconfiguration")
	}
	if err := eng.Reconfigure(nil, []int{2}); err == nil || !strings.Contains(err.Error(), "needs at least 2") {
		t.Fatalf("one-device reconfiguration: %v, want the two-device minimum", err)
	}
	if eng.Fingerprint() != fp {
		t.Fatal("failed reconfiguration must leave the engine unchanged")
	}
	if _, err := eng.Run(Blink, AllReduce, 0, 1<<20, Options{}); err != nil {
		t.Fatalf("engine unusable after failed reconfiguration: %v", err)
	}

	// Switch engines do not reconfigure.
	dgx2 := mustEngine(t, topology.DGX2(), nil, simgpu.Config{})
	if err := dgx2.Reconfigure(nil, []int{0, 1}); err == nil {
		t.Fatal("DGX-2 reconfiguration must error")
	}
}

// A reconfiguration drops the dead topology's plans from a shared cache
// and leaves another allocation's plans resident and warm.
func TestReconfigureInvalidatesOldFingerprint(t *testing.T) {
	machine := topology.DGX1V()
	cache := NewPlanCache(64)
	eng := mustEngine(t, machine, []int{0, 1, 2, 3, 4, 5, 6, 7}, simgpu.Config{})
	eng.SetPlanCache(cache)
	other := mustEngine(t, machine, []int{4, 5, 6, 7}, simgpu.Config{})
	other.SetPlanCache(cache)
	for _, sz := range []int64{1 << 20, 4 << 20, 16 << 20} {
		mustRun(t, eng, Blink, AllReduce, sz, Options{})
	}
	mustRun(t, other, Blink, AllReduce, 8<<20, Options{})
	if cache.Len() != 4 {
		t.Fatalf("cache holds %d plans, want 4", cache.Len())
	}
	degraded, err := machine.WithoutLink(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Reconfigure(degraded, nil); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d plans after reconfigure, want the other allocation's 1", cache.Len())
	}
	hits := cache.Stats().Hits
	if _, err := other.Run(Blink, AllReduce, 0, 8<<20, Options{}); err != nil || cache.Stats().Hits != hits+1 {
		t.Fatalf("the other allocation's plan did not survive the reconfiguration warm (%v)", err)
	}
	mustRun(t, eng, Blink, AllReduce, 1<<20, Options{})
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d plans, want 2 with the post-fault plan", cache.Len())
	}
}

func TestPlanCacheInvalidateFingerprint(t *testing.T) {
	c := NewPlanCache(8)
	mk := func(fp string, bytes int64) PlanKey {
		return PlanKey{Fingerprint: fp, Bytes: bytes}
	}
	c.Put(mk("a", 1), &CachedPlan{Strategy: "x"})
	c.Put(mk("a", 2), &CachedPlan{Strategy: "x"})
	c.Put(mk("b", 1), &CachedPlan{Strategy: "y"})
	if got := c.InvalidateFingerprint("a"); got != 2 {
		t.Fatalf("invalidated %d entries, want 2", got)
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", c.Len())
	}
	if _, ok := c.Get(mk("b", 1)); !ok {
		t.Fatal("unrelated fingerprint was evicted")
	}
	if got := c.InvalidateFingerprint("missing"); got != 0 {
		t.Fatalf("invalidated %d entries for an unknown fingerprint", got)
	}
}

// TestConcurrentCollectivesDuringReconfigure is the reconfiguration race
// test: data-mode AllReduces (whose elementwise-sum postcondition holds on
// every topology) hammer the engine while another goroutine flaps a link
// down and up. Run under -race via `make race`.
func TestConcurrentCollectivesDuringReconfigure(t *testing.T) {
	machine := topology.DGX1V()
	devs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	eng := mustEngine(t, machine, devs, simgpu.Config{DataMode: true})
	degraded, err := machine.WithoutLink(0, 3)
	if err != nil {
		t.Fatal(err)
	}

	const (
		workers   = 6
		iters     = 12
		reconfigs = 24
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters+reconfigs)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				floats := 256 + 64*w + it
				bufs := simgpu.NewBufferSet()
				want := make([]float32, floats)
				for v := 0; v < len(devs); v++ {
					in := make([]float32, floats)
					for i := range in {
						in[i] = float32((v + i + w) % 13)
						want[i] += in[i]
					}
					bufs.SetBuffer(v, core.BufData, in)
				}
				if _, err := eng.Run(Blink, AllReduce, 0, int64(floats)*4, Options{DataMode: true, Buffers: bufs}); err != nil {
					errs <- fmt.Errorf("worker %d iter %d: %w", w, it, err)
					return
				}
				for v := 0; v < len(devs); v++ {
					got := bufs.Buffer(v, core.BufAcc, floats)
					for i := range want {
						if got[i] != want[i] {
							errs <- fmt.Errorf("worker %d iter %d: rank %d float %d = %v, want %v", w, it, v, i, got[i], want[i])
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < reconfigs; i++ {
			m := degraded
			if i%2 == 1 {
				m = machine
			}
			if err := eng.Reconfigure(m, nil); err != nil {
				errs <- fmt.Errorf("reconfigure %d: %w", i, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentReconfigurationsCompose asserts the lost-update guarantee:
// a link fault and a GPU eviction applied from two goroutines must BOTH be
// reflected in the final state, whichever order the serialized
// reconfigurations land in.
func TestConcurrentReconfigurationsCompose(t *testing.T) {
	machine := topology.DGX1V()
	devs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	degraded, err := machine.WithoutLink(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		eng := mustEngine(t, machine, devs, simgpu.Config{})
		var wg sync.WaitGroup
		errs := make(chan error, 2)
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := eng.Reconfigure(degraded, nil); err != nil {
				errs <- err
			}
		}()
		go func() {
			defer wg.Done()
			if err := eng.ReconfigureExclude([]int{7}); err != nil {
				errs <- err
			}
		}()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		topo := eng.Topo()
		if topo.NumGPUs != 7 {
			t.Fatalf("trial %d: eviction lost — %d GPUs, want 7", trial, topo.NumGPUs)
		}
		for _, e := range topo.NVLinkGraph().Edges {
			a, b := topo.DevIDs[e.From], topo.DevIDs[e.To]
			if (a == 0 && b == 3) || (a == 3 && b == 0) {
				t.Fatalf("trial %d: link fault lost — 0-3 edge survives", trial)
			}
		}
	}
}

func TestClusterEngineRemoveServer(t *testing.T) {
	c := testCluster(t, []int{4, 4, 4}, 100)
	eng, err := NewClusterEngine(c, simgpu.Config{DataMode: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := eng.Topo().NumGPUs; n != 12 {
		t.Fatalf("ranks = %d, want 12", n)
	}
	fpPre := eng.Fingerprint()
	mustRun(t, eng, Blink, AllReduce, 16<<20, Options{})
	enumerated := func() uint64 {
		return eng.Metrics().Histogram(`blink_compile_stage_seconds{stage="enumerate"}`, nil).Count()
	}
	if got := enumerated(); got != 12 {
		t.Fatalf("cold 4+4+4 AllReduce enumerated %d packings, want 12", got)
	}
	if err := eng.RemoveServer(1); err != nil {
		t.Fatal(err)
	}
	// Survivors keep their states, and with them every packing they built.
	mustRun(t, eng, Blink, AllReduce, 16<<20, Options{})
	if got := enumerated(); got != 12 {
		t.Fatalf("AllReduce after the server loss enumerated %d more packings; survivors must keep theirs", got-12)
	}
	if n := eng.Topo().NumGPUs; n != 8 {
		t.Fatalf("ranks = %d after server loss, want 8", n)
	}
	if eng.Fingerprint() == fpPre {
		t.Fatal("fingerprint unchanged after server loss")
	}
	// Data-mode exactness over the shrunken cluster, both backends.
	for _, b := range []Backend{Blink, NCCL} {
		inputs := make([][]float32, 8)
		want := make([]float32, 500)
		for v := range inputs {
			inputs[v] = make([]float32, 500)
			for i := range inputs[v] {
				inputs[v][i] = float32((v*7 + i) % 11)
				want[i] += inputs[v][i]
			}
		}
		outs, _, err := runClusterData(eng, b, AllReduce, 0, inputs, core.BufAcc)
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		for v, out := range outs {
			for i := range want {
				if out[i] != want[i] {
					t.Fatalf("%v: rank %d float %d = %v, want %v", b, v, i, out[i], want[i])
				}
			}
		}
	}
	// Shrinking below two servers fails cleanly and keeps state.
	if err := eng.RemoveServer(0); err == nil {
		t.Fatal("shrinking to one server must error")
	}
	if eng.Topo().NumGPUs != 8 {
		t.Fatal("failed shrink must leave the engine unchanged")
	}
	if got := eng.ServerSizes(); len(got) != 2 || got[0] != 4 || got[1] != 4 {
		t.Fatalf("ServerSizes = %v after server loss, want [4 4]", got)
	}
}

// TestStaleRootAfterShrinkErrors pins the no-panic contract: a root that
// was valid before an eviction must produce a clean error, not an index
// panic inside TreeGen.
func TestStaleRootAfterShrinkErrors(t *testing.T) {
	eng := newEng(t, []int{0, 1, 2, 3, 4, 5, 6, 7})
	if _, err := eng.Run(Blink, Broadcast, 7, 1<<20, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Reconfigure(nil, []int{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	for _, b := range []Backend{Blink, NCCL} {
		if _, err := eng.Run(b, Broadcast, 7, 1<<20, Options{}); err == nil {
			t.Fatalf("%v: stale root 7 on a 4-rank allocation must error", b)
		}
	}
	if _, err := eng.Packing(7); err == nil {
		t.Fatal("stale root packing must error")
	}
	// Valid roots keep working.
	if _, err := eng.Run(Blink, Broadcast, 3, 1<<20, Options{}); err != nil {
		t.Fatal(err)
	}
}
