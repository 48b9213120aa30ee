package collective

import (
	"fmt"
	"testing"
	"time"

	"blink/internal/simgpu"
	"blink/internal/topology"
)

// gateRatio reports the wall-clock speedup measure returns — one whole
// measurement on fresh engines per iteration — and fails the benchmark below
// floor. What causes the ratios gated here tier-1 asserts structurally
// (TestReconfigureIncrementalRepair, TestEngineWarmStartFromStore); the
// ratios run under `make bench` only, so
// `go test ./...` holds no wall-clock assertion.
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
	e, err := NewEngine(topology.DGX1V(), []int{0, 1, 2, 3, 4, 5, 6, 7}, simgpu.Config{})
	if err != nil {
		b.Fatal(err)
	}
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
