package blink

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation. Each benchmark regenerates its experiment through
// internal/experiments and reports the headline modeled metrics
// (throughputs are simulated-hardware numbers, not host wall-clock).
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// or a single figure with e.g. -bench=BenchmarkFig15.

import (
	"fmt"
	"testing"

	"blink/internal/core"
	"blink/internal/experiments"
	"blink/internal/graph"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

// benchExperiment runs one experiment per iteration and republishes its
// metrics through the benchmark reporter.
func benchExperiment(b *testing.B, id string, metrics ...string) {
	r, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var last map[string]float64
	for i := 0; i < b.N; i++ {
		t, err := r.Run()
		if err != nil {
			b.Fatal(err)
		}
		last = t.Metrics
	}
	for _, m := range metrics {
		if v, ok := last[m]; ok {
			b.ReportMetric(v, m)
		}
	}
}

// BenchmarkFig02 regenerates Figure 2: broadcast on fully and partially
// connected 3-GPU groups (NCCL vs Blink).
func BenchmarkFig02(b *testing.B) {
	benchExperiment(b, "fig2", "speedup_0,1,4", "speedup_0,1,3")
}

// BenchmarkFig03 regenerates Figure 3: per-server allocation fragmentation.
func BenchmarkFig03(b *testing.B) {
	benchExperiment(b, "fig3", "pct_4", "pct_5", "pct_8")
}

// BenchmarkFig05 regenerates Figure 5: NCCL communication overhead for four
// DNNs across unique allocations on both DGX-1 generations.
func BenchmarkFig05(b *testing.B) {
	benchExperiment(b, "fig5", "DGX-1V_AlexNet_4_worst", "DGX-1V_VGG16_8_worst")
}

// BenchmarkFig07 regenerates Figure 7: reduce+forward chain throughput.
func BenchmarkFig07(b *testing.B) {
	benchExperiment(b, "fig7", "gpus3_1000MB", "gpus8_1000MB")
}

// BenchmarkFig08 regenerates Figure 8c: MIMO and MCA throughput.
func BenchmarkFig08(b *testing.B) {
	benchExperiment(b, "fig8", "mimo_1000MB", "mca_1000MB")
}

// BenchmarkFig12 regenerates Figure 12: MIAD chunk-size selection.
func BenchmarkFig12(b *testing.B) {
	benchExperiment(b, "fig12", "selected_chunk_MB")
}

// BenchmarkFig14 regenerates Figure 14: theoretical packing speedups.
func BenchmarkFig14(b *testing.B) {
	benchExperiment(b, "fig14", "max_speedup_DGX-1V", "median_speedup_DGX-1V")
}

// BenchmarkFig15 regenerates Figure 15: broadcast over all 46 unique DGX-1V
// allocations.
func BenchmarkFig15(b *testing.B) {
	benchExperiment(b, "fig15", "geomean_speedup", "max_speedup")
}

// BenchmarkFig16 regenerates Figure 16: broadcast over all 14 unique DGX-1P
// allocations.
func BenchmarkFig16(b *testing.B) {
	benchExperiment(b, "fig16", "geomean_speedup", "max_speedup")
}

// BenchmarkFig17 regenerates Figure 17: AllReduce over all 46 unique DGX-1V
// allocations.
func BenchmarkFig17(b *testing.B) {
	benchExperiment(b, "fig17", "geomean_speedup", "max_speedup")
}

// BenchmarkFig18 regenerates Figure 18: end-to-end training reductions.
func BenchmarkFig18(b *testing.B) {
	benchExperiment(b, "fig18", "max_iter_reduction_pct")
}

// BenchmarkFig19 regenerates Figure 19: DGX-2 AllReduce throughput curve.
func BenchmarkFig19(b *testing.B) {
	benchExperiment(b, "fig19", "max_throughput_ratio")
}

// BenchmarkFig20 regenerates Figure 20: DGX-2 AllReduce latency curve.
func BenchmarkFig20(b *testing.B) {
	benchExperiment(b, "fig20", "max_latency_ratio")
}

// BenchmarkFig21 regenerates Figure 21: hybrid PCIe+NVLink gains.
func BenchmarkFig21(b *testing.B) {
	benchExperiment(b, "fig21", "gain_3gpu", "gain_8gpu")
}

// BenchmarkFig22a regenerates Figure 22a: multi-server training throughput.
func BenchmarkFig22a(b *testing.B) {
	benchExperiment(b, "fig22a", "speedup_ResNet18", "speedup_VGG16")
}

// BenchmarkFig22b regenerates Figure 22b: cross-machine bandwidth sweep.
func BenchmarkFig22b(b *testing.B) {
	benchExperiment(b, "fig22b", "blink_40gbps", "blink_400gbps")
}

// BenchmarkTreeMinimization regenerates the §3.2.1 table: MWU candidate
// trees reduced by the ILP to 6 trees at rate 6.
func BenchmarkTreeMinimization(b *testing.B) {
	benchExperiment(b, "treemin", "mwu_trees", "min_trees", "min_rate")
}

// BenchmarkFig24 regenerates the appendix depth tests.
func BenchmarkFig24(b *testing.B) {
	benchExperiment(b, "fig24", "fwd_8gpu", "rbcast_8gpu")
}

// BenchmarkFig26 regenerates the appendix breadth tests.
func BenchmarkFig26(b *testing.B) {
	benchExperiment(b, "fig26")
}

// --- component micro-benchmarks (host CPU performance of the library) ---

// BenchmarkMinCostArborescence measures the Chu-Liu/Edmonds solver on the
// full DGX-1V graph, the inner loop of MWU packing.
func BenchmarkMinCostArborescence(b *testing.B) {
	g := topology.DGX1V().GPUGraph()
	cost := func(id int) float64 { return 1 + float64(id%7)/7 }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := graph.MinCostArborescence(g, 0, cost); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeGen measures the full TreeGen stage (MWU + minimization) on
// the 8-GPU DGX-1V, the per-job setup cost Blink pays at schedule time.
func BenchmarkTreeGen(b *testing.B) {
	g := topology.DGX1V().GPUGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.GenerateTrees(g, 0, core.PackOptions{}, core.MinimizeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanExecute measures compiling and simulating a 100 MB 8-GPU
// broadcast plan (the hot path of every experiment).
func BenchmarkPlanExecute(b *testing.B) {
	ind, err := topology.DGX1V().Induce([]int{0, 1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		b.Fatal(err)
	}
	g := ind.GPUGraph()
	p, err := core.GenerateTrees(g, 0, core.PackOptions{}, core.MinimizeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	f := simgpu.NewFabric(ind, g, simgpu.Config{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		plan, err := core.BuildBroadcastPlan(f, p, 100<<20, core.PlanOptions{ChunkBytes: 2 << 20, NoStreamReuse: true})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := plan.Execute(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCanonicalKey measures allocation-class binning (8-vertex
// brute-force canonicalization).
func BenchmarkCanonicalKey(b *testing.B) {
	g := topology.DGX1V().GPUGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		graph.CanonicalKey(g)
	}
}

// BenchmarkAblation regenerates the design-choice ablation study.
func BenchmarkAblation(b *testing.B) {
	benchExperiment(b, "ablation", "full_GBs", "no-chunking_GBs", "single-tree_GBs")
}

// BenchmarkMWUPacking measures the fractional packing alone (without the
// ILP), isolating the §3.2 algorithm.
func BenchmarkMWUPacking(b *testing.B) {
	g := topology.DGX1V().GPUGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := core.PackTrees(g, 0, core.PackOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(p.Trees)), "trees")
	}
}

// BenchmarkExactPack measures the exact peeling packer used as the
// validation baseline.
func BenchmarkExactPack(b *testing.B) {
	g := topology.DGX1V().GPUGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.ExactPack(g, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSchedule measures raw event-engine throughput on a large
// synthetic schedule (ops scheduled per second of host time).
func BenchmarkEngineSchedule(b *testing.B) {
	links := make([]simgpu.Link, 32)
	for i := range links {
		links[i] = simgpu.Link{BW: 20}
	}
	mkOps := func() []*simgpu.Op {
		ops := make([]*simgpu.Op, 0, 10000)
		for i := 0; i < 10000; i++ {
			op := &simgpu.Op{Stream: i % 64, Link: i % 32, Bytes: 1 << 20, Overhead: 5e-6}
			if i >= 64 {
				op.Deps = []int{i - 64}
			}
			ops = append(ops, op)
		}
		return ops
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ops := mkOps()
		if _, err := simgpu.Run(links, ops, nil); err != nil {
			b.Fatal(err)
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
