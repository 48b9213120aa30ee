package blink

// Benchmark harness: one sub-benchmark per table/figure of the paper's
// evaluation, each regenerating its experiment through internal/experiments
// and reporting the headline modeled metrics (throughputs are
// simulated-hardware numbers, not host wall-clock), plus the host-side
// yardsticks of the cold (MWU packing) and warm (cached replay) paths. The
// per-layer host timings live in ./bench.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// or a single figure with e.g. -bench=Figures/fig15.

import (
	"fmt"
	"sort"
	"testing"

	"blink/internal/core"
	"blink/internal/experiments"
	"blink/internal/topology"
)

// BenchmarkFigures regenerates every table and figure of the paper's
// evaluation (one sub-benchmark per experiment, e.g. -bench Figures/fig15)
// and republishes its metrics through the benchmark reporter.
func BenchmarkFigures(b *testing.B) {
	for _, r := range experiments.All() {
		b.Run(r.ID, func(b *testing.B) {
			var last map[string]float64
			for i := 0; i < b.N; i++ {
				t, err := r.Run()
				if err != nil {
					b.Fatal(err)
				}
				last = t.Metrics
			}
			var names []string
			for m := range last {
				names = append(names, m)
			}
			sort.Strings(names)
			for _, m := range names {
				b.ReportMetric(last[m], m)
			}
		})
	}
}

// BenchmarkMWUPacking measures the fractional packing alone (without the
// ILP), isolating the §3.2 algorithm.
func BenchmarkMWUPacking(b *testing.B) {
	g := topology.DGX1V().GPUGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := core.PackTrees(g, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(p.Trees)), "trees")
	}
}

// BenchmarkColdAllReduce measures the cold path end to end: one op is a
// pass over the paper's 46 DGX-1V and 14 DGX-1P allocations (Figs 15, 16),
// each a fresh communicator, with no plan store, and its first 64 MB
// AllReduce — induce, pack, race the candidate table, freeze. It is the CPU
// yardstick of the planner; bench/'s cold_plan adds the plan store.
func BenchmarkColdAllReduce(b *testing.B) {
	type alloc struct {
		machine *Machine
		devs    []int
	}
	var allocs []alloc
	for _, devs := range topology.Fig15AllocationsDGX1V {
		allocs = append(allocs, alloc{DGX1V(), devs})
	}
	for _, devs := range topology.Fig16AllocationsDGX1P {
		allocs = append(allocs, alloc{DGX1P(), devs})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, a := range allocs {
			comm, err := NewComm(a.machine, a.devs)
			if err == nil {
				_, err = comm.AllReduce(64 << 20)
			}
			if err != nil {
				b.Fatal(a.devs, err)
			}
		}
	}
}

// fullDGX1V builds a communicator over the full 8-GPU DGX-1V.
func fullDGX1V(b *testing.B, opts ...Option) *Comm {
	b.Helper()
	comm, err := NewComm(DGX1V(), []int{0, 1, 2, 3, 4, 5, 6, 7}, opts...)
	if err != nil {
		b.Fatal(err)
	}
	return comm
}

// BenchmarkWarmReplay measures the path every training iteration takes: a
// cached AllReduce replay through the public API, after one cold call.
// bench/ gates it end to end (warm_timing); this is the yardstick a
// developer runs in a few seconds.
func BenchmarkWarmReplay(b *testing.B) {
	for _, bytes := range []int64{1 << 20, 64 << 20} {
		b.Run(fmt.Sprintf("%dMB", bytes>>20), func(b *testing.B) {
			comm := fullDGX1V(b)
			if _, err := comm.AllReduce(bytes); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := comm.AllReduce(bytes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWarmReplayData is BenchmarkWarmReplay in data mode: a cached
// AllReduceData replay at 64 KB, 1 MB (bench/'s warm_data gates this one)
// and 16 MB per rank — the sizes the replay's minimum stripe was chosen
// from.
func BenchmarkWarmReplayData(b *testing.B) {
	for _, bytes := range []int{64 << 10, 1 << 20, 16 << 20} {
		b.Run(fmt.Sprintf("%dKB", bytes>>10), func(b *testing.B) {
			comm := fullDGX1V(b, WithDataMode())
			inputs := make([][]float32, comm.Size())
			for r := range inputs {
				inputs[r] = make([]float32, bytes/4)
			}
			if _, err := comm.AllReduceData(inputs); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := comm.AllReduceData(inputs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
