package collective

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"blink/internal/simgpu"
	"blink/internal/topology"
)

// gateRatio reports the wall-clock speedup measure returns — one whole
// measurement per iteration — and fails the benchmark below floor. What
// causes the ratios gated here tier-1 asserts structurally
// (TestReconfigureIncrementalRepair, TestEngineWarmStartFromStore,
// TestLanePropertyRandomInterleavings); the ratios run under `make bench`
// only, so `go test ./...` holds no wall-clock assertion.
func gateRatio(b *testing.B, floor float64, measure func() float64) {
	b.Helper()
	var ratio float64
	for i := 0; i < b.N; i++ {
		if ratio = measure(); ratio < floor {
			b.Fatalf("speedup %.2fx is below the %.4gx gate", ratio, floor)
		}
	}
	b.ReportMetric(ratio, "x-speedup")
}

// coldEngine builds a fresh engine over the full 8-GPU DGX-1V.
func coldEngine(b *testing.B) *Engine {
	b.Helper()
	e := mustEngine(b, topology.DGX1V(), []int{0, 1, 2, 3, 4, 5, 6, 7}, simgpu.Config{})
	return e
}

// firstDispatch times the engine's first dispatch of one shape.
func firstDispatch(b *testing.B, e *Engine, op Op, bytes int64) time.Duration {
	b.Helper()
	t0 := time.Now()
	if _, err := e.Run(Blink, op, 0, bytes, Options{}); err != nil {
		b.Fatal(err)
	}
	return time.Since(t0)
}

// BenchmarkIncrementalRepair gates fault replanning: after losing NVLink
// 0-3, Reconfigure plus re-resolving every root's packing must be at least
// 10x faster on an engine that prewarmed its packings (and repairs them
// incrementally) than on one that never did and recompiles every root.
func BenchmarkIncrementalRepair(b *testing.B) {
	faulted, err := topology.DGX1V().WithoutLink(0, 3)
	if err != nil {
		b.Fatal(err)
	}
	replanAll := func(e *Engine) time.Duration {
		t0 := time.Now()
		if err := e.Reconfigure(faulted, nil); err != nil {
			b.Fatal(err)
		}
		for r := 0; r < 8; r++ {
			if _, err := e.Packing(r); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(t0)
	}
	gateRatio(b, 10, func() float64 {
		full := replanAll(coldEngine(b))
		warm := coldEngine(b)
		if err := warm.Prewarm(nil); err != nil {
			b.Fatal(err)
		}
		return float64(full) / float64(replanAll(warm))
	})
}

// BenchmarkWarmDiskColdStart gates the disk tier: for every shape, the first
// dispatch of a cold-started engine over a store another engine populated
// (decode and regenerate, no packing) must be at least 3x faster than a
// cold compile. 3x is the margin below which the tier no longer pays for
// itself; with the MWU loop allocation-free the measured ratios sit around
// 10-40x, so a 10x floor would flake on a small host.
func BenchmarkWarmDiskColdStart(b *testing.B) {
	shapes := []struct {
		op    Op
		bytes int64
	}{{AllReduce, 64 << 20}, {Broadcast, 64 << 20}, {ReduceScatter, 64 << 20}, {AllGather, 64 << 20}, {AllReduce, 1 << 20}}
	store, err := NewPlanStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	seed := coldEngine(b)
	seed.SetPlanStore(store)
	for _, s := range shapes {
		firstDispatch(b, seed, s.op, s.bytes)
	}
	for _, s := range shapes {
		b.Run(fmt.Sprintf("%v-%dMB", s.op, s.bytes>>20), func(b *testing.B) {
			gateRatio(b, 3, func() float64 {
				cold := firstDispatch(b, coldEngine(b), s.op, s.bytes)
				warm := coldEngine(b)
				warm.SetPlanStore(store)
				return float64(cold) / float64(firstDispatch(b, warm, s.op, s.bytes))
			})
		})
	}
}

// BenchmarkTenantMix gates the QoS lanes eliminating priority inversion
// under load (TestLanePropertyRandomInterleavings and
// TestLaneStrictPriorityOrder assert the dispatch order; this is the
// wall-clock half). Per scale, 10% of the tenants are latency-critical with
// 64 KB per rank, 30% bulk with 2 MB and 60% telemetry with 256 KB. One
// submitter issues one data-mode AllReduce per tenant in a seeded order, as
// bench/'s tenant_mix does, then waits for the latency-critical handles: the
// time from the first submission to the last of them resolving is the
// latency-critical drain. The burst goes once untenanted through the stream
// scheduler's two FIFO streams, where a 64 KB op queues behind every 2 MB op
// submitted before it, and once through the tenants' lanes with two workers.
// The lanes must drain the latency-critical ops at least 4x sooner: a pick
// that ignores class drains them 0.8-1.25x as fast as the FIFO (its two
// workers share one queue, which balances better than round-robin streams),
// so "no slower than FIFO" would pass it about half the time. The lanes
// read 16-144x over 43 runs on a 2-vCPU Xeon (FIFO 256-475 ms vs lanes
// 2.2-29 ms at 100 tenants, 725-1,300 vs 9-57 ms at 300).
//
// The ops move their data because a timing op is a lookup whose host cost
// does not grow with its payload: a 2 MB timing op queues no longer than a
// 64 KB one, so in timing mode the two drains compare scheduling noise.
func BenchmarkTenantMix(b *testing.B) {
	data := Options{DataMode: true}
	role := func(i int) (Class, int64) {
		switch {
		case i%10 == 0:
			return LatencyCritical, 64 << 10
		case i%10 < 4:
			return BulkGradient, 2 << 20
		}
		return Telemetry, 256 << 10
	}
	for _, n := range []int{100, 300} {
		b.Run(fmt.Sprintf("tenants=%d", n), func(b *testing.B) {
			eng := mustEngine(b, topology.DGX1V(), []int{0, 1, 2, 3, 4, 5, 6, 7}, simgpu.Config{DataMode: true})
			qos := QoSConfig{Workers: 2}
			for c := range qos.Lanes {
				// Watermarks and queue bounds out of the way: the measurement
				// isolates scheduling order, not admission control.
				qos.Lanes[c] = LaneConfig{QueueCap: 1 << 16, LowWater: -1, HighWater: -1}
			}
			eng.ConfigureQoS(qos)
			eng.ConfigureAsync(2, 0)
			tenants := make([]*Tenant, n)
			for i := range tenants {
				class, bytes := role(i)
				tenants[i] = eng.NewTenant(TenantConfig{Name: fmt.Sprintf("t%d", i), Class: class})
				if i >= 10 {
					continue // the first ten tenants warmed every role's plan
				}
				if _, err := eng.Run(Blink, AllReduce, 0, bytes, data); err != nil {
					b.Fatal(err)
				}
			}
			order := rand.New(rand.NewSource(int64(n))).Perm(n)
			handles := make([]*Handle, n)
			// drain fires one burst through submit and returns the
			// latency-critical drain, having waited for every op.
			drain := func(submit func(i int, bytes int64) *Handle) time.Duration {
				start := time.Now()
				for _, i := range order {
					_, bytes := role(i)
					handles[i] = submit(i, bytes)
				}
				for i := 0; i < n; i += 10 {
					if _, err := handles[i].Wait(); err != nil {
						b.Fatal(err)
					}
				}
				lc := time.Since(start)
				for _, h := range handles {
					if _, err := h.Wait(); err != nil {
						b.Fatal(err)
					}
				}
				return lc
			}
			var fifo, lanes time.Duration
			gateRatio(b, 4, func() float64 {
				fifo = drain(func(_ int, bytes int64) *Handle { return eng.RunAsync(Blink, AllReduce, 0, bytes, data, -1) })
				lanes = drain(func(i int, bytes int64) *Handle {
					h, _ := eng.RunAsyncTenant(tenants[i], Blink, AllReduce, 0, bytes, data)
					return h
				})
				return float64(fifo) / float64(lanes)
			})
			b.ReportMetric(float64(fifo.Microseconds())/1e3, "fifo-lc-drain-ms")
			b.ReportMetric(float64(lanes.Microseconds())/1e3, "lanes-lc-drain-ms")
		})
	}
}
