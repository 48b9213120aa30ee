package blink

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"blink/internal/collective"
	"blink/internal/simgpu"
)

// TestNewCommRejectsSingleDevice: a one-GPU allocation is refused at
// construction with the same two-device minimum ReconfigureExclude enforces,
// on the public constructor and on the exported engine constructor under it.
func TestNewCommRejectsSingleDevice(t *testing.T) {
	_, err := NewComm(DGX1V(), []int{3})
	if err == nil || !strings.Contains(err.Error(), "needs at least 2") {
		t.Fatalf("NewComm over one device: %v, want the two-device minimum", err)
	}
	_, err = collective.NewEngine(DGX1V(), []int{3}, simgpu.Config{})
	if err == nil || !strings.Contains(err.Error(), "needs at least 2") {
		t.Fatalf("collective.NewEngine over one device: %v, want the two-device minimum", err)
	}
}

// TestHybridBroadcastWarmReplay: a Broadcast whose trial keeps the §3.4
// hybrid (500 MB on DGX-1V [0 1 2 3]) is an ordinary cached collective — the
// second call of the shape is a plan-cache hit with bit-identical simulated
// time and the same strategy.
func TestHybridBroadcastWarmReplay(t *testing.T) {
	comm := dgx1vComm(t, []int{0, 1, 2, 3})
	const bytes = 500 << 20
	cold, err := comm.Broadcast(0, bytes)
	if err != nil {
		t.Fatal(err)
	}
	before := comm.CacheStats()
	warm, err := comm.Broadcast(0, bytes)
	if err != nil {
		t.Fatal(err)
	}
	after := comm.CacheStats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("second hybrid call not a cache hit: %+v -> %+v", before, after)
	}
	if cold.Strategy != "hybrid" || warm.Seconds != cold.Seconds || warm.Strategy != cold.Strategy {
		t.Fatalf("warm %v/%q, cold %v/%q; want the same hybrid twice", warm.Seconds, warm.Strategy, cold.Seconds, cold.Strategy)
	}
}

func TestBackendSelection(t *testing.T) {
	blinkComm := dgx1vComm(t, []int{0, 1, 4}, WithBackend(BackendBlink))
	ncclComm := dgx1vComm(t, []int{0, 1, 4}, WithBackend(BackendNCCL))
	b, err := blinkComm.Broadcast(0, 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	n, err := ncclComm.Broadcast(0, 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	if b.ThroughputGBs <= 2*n.ThroughputGBs {
		t.Fatalf("Blink %.1f should dominate NCCL %.1f on the Fig 2b allocation", b.ThroughputGBs, n.ThroughputGBs)
	}
	if blinkComm.Backend() != BackendBlink || ncclComm.Backend() != BackendNCCL {
		t.Fatal("backend accessors wrong")
	}
}

func TestTreesIntrospection(t *testing.T) {
	comm := dgx1vComm(t, []int{0, 1, 2, 3, 4, 5, 6, 7})
	p, err := comm.Trees(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Trees) != 6 || p.Rate != 6 {
		t.Fatalf("full DGX-1V packing: %d trees rate %v, want 6 at 6", len(p.Trees), p.Rate)
	}
}

func TestDGX2Comm(t *testing.T) {
	comm, err := NewComm(DGX2(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if comm.Size() != 16 {
		t.Fatalf("DGX-2 size = %d", comm.Size())
	}
	res, err := comm.AllReduce(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "one-hop" {
		t.Fatalf("DGX-2 Blink strategy = %q", res.Strategy)
	}
	p, err := comm.Trees(3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Root != 3 {
		t.Fatalf("one-hop packing root = %d", p.Root)
	}
	if _, err := comm.Trees(99); err == nil {
		t.Fatal("out-of-range root accepted")
	}
}

// warmAllocs runs op once to compile its plan and returns the allocations
// of one warm call. AllocsPerRun counts the whole process, so a goroutine an
// earlier test left winding down can only add to it: the least of three is
// the call's own.
func warmAllocs(op func()) float64 {
	op()
	got := testing.AllocsPerRun(10, op)
	for i := 0; i < 2; i++ {
		got = min(got, testing.AllocsPerRun(10, op))
	}
	return got
}

// warmMemStats is warmAllocs at GOMAXPROCS procs, which AllocsPerRun would
// pin to 1: the mean growth of runtime.MemStats.Mallocs and TotalAlloc over
// ten warm calls of op, each the least of three rounds.
func warmMemStats(procs int, op func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	op()
	var ms runtime.MemStats
	allocs, bytes = math.Inf(1), math.Inf(1)
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&ms)
		mallocs, total := ms.Mallocs, ms.TotalAlloc
		for j := 0; j < 10; j++ {
			op()
		}
		runtime.ReadMemStats(&ms)
		allocs = min(allocs, float64(ms.Mallocs-mallocs)/10)
		bytes = min(bytes, float64(ms.TotalAlloc-total)/10)
	}
	return allocs, bytes
}

// Allocation ratchets on the warm single-machine paths, kept like the
// Makefile's LOC_CEIL_*: lowered when a count falls, never raised to make a
// build pass. At the commit before a replay became a lookup they read 1,755
// (1 MB), 3,233 (64 MB), 1,853 (data) — one heap-copied op per schedule op
// plus the simulator's maps, per call.
const (
	// warmTimingAllocCeiling: the born-resolved Handle, at any payload.
	warmTimingAllocCeiling = 1
	// warmDataAllocCeiling: the arena, its accumulators — handed back as
	// the per-rank outputs — the output slice, the stripes' barrier and, at
	// GOMAXPROCS > 1, the second stripe's goroutine of a 1 MB-per-rank
	// AllReduceData on eight ranks (measured 16.4–17.0 at GOMAXPROCS 1 and
	// 18.0–18.4 at 2; 66 while the reduce staged every child's chunk in a
	// scratch buffer and the inputs and outputs were copied).
	warmDataAllocCeiling = 19
	// warmDataBytesCeiling bounds the heap bytes of that call, as a multiple
	// of ranks x payload: the accumulators are one such payload and nothing
	// else scales with it (measured 1.0; 6.5 with the scratch and copies).
	warmDataBytesCeiling = 1.25
	// warmAsyncAllocCeiling: handle, done channel, hook, task and span
	// closures of one AllReduceAsync + Wait (measured 5; 6 while a call
	// without options heap-allocated its stream config).
	warmAsyncAllocCeiling = 5
	// warmTenantAsyncAllocCeiling: the same call through a tenant view, whose
	// lane scheduler stands in for the stream scheduler (measured 5, and 6
	// with the stream config allocated).
	warmTenantAsyncAllocCeiling = 5
)

// TestWarmReplayAllocs holds the path every training iteration takes to its
// allocation ceilings on the full DGX-1V: a synchronous timing AllReduce
// must cost the same single allocation at 1 MB and at 64 MB (a warm op's
// cost must not scale with its schedule's op count), and the data-mode,
// stream-scheduled and lane-scheduled forms stay under theirs.
func TestWarmReplayAllocs(t *testing.T) {
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	comm := dgx1vComm(t, all)
	timing := func(bytes int64) float64 {
		return warmAllocs(func() {
			if _, err := comm.AllReduce(bytes); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := timing(1<<20), timing(64<<20)
	t.Logf("warm AllReduce: %.0f allocations at 1 MB, %.0f at 64 MB (ceiling %d)", small, large, warmTimingAllocCeiling)
	if small > warmTimingAllocCeiling || large != small {
		t.Fatalf("warm AllReduce allocates %.0f times at 1 MB and %.0f at 64 MB, want equal and at most %d", small, large, warmTimingAllocCeiling)
	}

	async := warmAllocs(func() {
		if _, err := comm.AllReduceAsync(1 << 20).Wait(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm AllReduceAsync + Wait: %.0f allocations (ceiling %d)", async, warmAsyncAllocCeiling)
	if async > warmAsyncAllocCeiling {
		t.Fatalf("warm AllReduceAsync + Wait allocates %.0f times, ceiling %d", async, warmAsyncAllocCeiling)
	}
	tenant, err := NewTenant(comm, TenantOptions{Name: "warm", Class: ClassLatencyCritical})
	if err != nil {
		t.Fatal(err)
	}
	tenantAsync := warmAllocs(func() {
		if _, err := tenant.AllReduceAsync(1 << 20).Wait(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm tenant AllReduceAsync + Wait: %.0f allocations (ceiling %d)", tenantAsync, warmTenantAsyncAllocCeiling)
	if tenantAsync > warmTenantAsyncAllocCeiling {
		t.Fatalf("warm tenant AllReduceAsync + Wait allocates %.0f times, ceiling %d", tenantAsync, warmTenantAsyncAllocCeiling)
	}

	dataComm := dgx1vComm(t, all, WithDataMode())
	inputs := make([][]float32, dataComm.Size())
	for r := range inputs {
		inputs[r] = make([]float32, 1<<20/4)
	}
	allReduceData := func() {
		if _, err := dataComm.AllReduceData(inputs); err != nil {
			t.Fatal(err)
		}
	}
	// One serial walk at GOMAXPROCS 1, two stripes at 2.
	payload := float64(len(inputs) * len(inputs[0]) * 4)
	for _, procs := range []int{1, 2} {
		allocs, bytes := warmMemStats(procs, allReduceData)
		t.Logf("warm AllReduceData, 1 MB per rank, GOMAXPROCS %d: %.1f allocations (ceiling %d), %.0f bytes = %.2fx ranks x payload (ceiling %.2fx)",
			procs, allocs, warmDataAllocCeiling, bytes, bytes/payload, warmDataBytesCeiling)
		if allocs > warmDataAllocCeiling {
			t.Fatalf("warm AllReduceData allocates %.1f times at GOMAXPROCS %d, ceiling %d", allocs, procs, warmDataAllocCeiling)
		}
		if bytes > warmDataBytesCeiling*payload {
			t.Fatalf("warm AllReduceData allocates %.0f bytes at GOMAXPROCS %d, %.2fx ranks x payload, ceiling %.2fx",
				bytes, procs, bytes/payload, warmDataBytesCeiling)
		}
	}
}
