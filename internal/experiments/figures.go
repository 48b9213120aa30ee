package experiments

import (
	"fmt"
	"sort"

	"blink/internal/cluster"
	"blink/internal/collective"
	"blink/internal/core"
	"blink/internal/dnn"
	"blink/internal/micro"
	"blink/internal/ring"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

const payload500MB = int64(500) << 20

func engineFor(machine *topology.Topology, devs []int) (*collective.Engine, error) {
	return collective.NewEngine(machine, devs, simgpu.Config{})
}

// Fig2 reproduces the motivating broadcast comparison: (a) a fully
// connected 3-GPU group where NCCL builds NVLink rings, and (b) a partially
// connected group where NCCL falls back to PCIe while Blink packs trees
// and adds hybrid PCIe transfers.
func Fig2() (*Table, error) {
	t := newTable("fig2", "Broadcast throughput from GPU 0, NCCL vs Blink (DGX-1P), 500 MB",
		"case", "GPUs", "NCCL GB/s", "Blink GB/s", "speedup")
	cases := []struct {
		name string
		devs []int
	}{
		{"fully-connected (2a)", []int{0, 1, 3}},
		{"partially-connected (2b)", []int{0, 1, 4}},
	}
	p := topology.DGX1P()
	for _, c := range cases {
		eng, err := engineFor(p, c.devs)
		if err != nil {
			return nil, err
		}
		nccl, err := eng.Run(collective.NCCL, collective.Broadcast, 0, payload500MB, collective.Options{})
		if err != nil {
			return nil, err
		}
		// Blink uses hybrid transfers in Fig 2a (the bar is labeled PCIe).
		var blinkTp float64
		if hy, err := eng.Run(collective.Blink, collective.Broadcast, 0, payload500MB, collective.Options{Hybrid: true}); err == nil {
			blinkTp = hy.ThroughputGBs
		}
		if plain, err := eng.Run(collective.Blink, collective.Broadcast, 0, payload500MB, collective.Options{}); err == nil {
			if plain.ThroughputGBs > blinkTp {
				blinkTp = plain.ThroughputGBs
			}
		}
		t.addRow(c.name, topology.AllocLabel(c.devs),
			fmt.Sprintf("%.1f", nccl.ThroughputGBs),
			fmt.Sprintf("%.1f", blinkTp),
			fmt.Sprintf("%.2fx", blinkTp/nccl.ThroughputGBs))
		t.Metrics["speedup_"+topology.AllocLabel(c.devs)] = blinkTp / nccl.ThroughputGBs
	}
	t.note("paper: (a) 43.6 vs 48.4 GB/s, (b) 4.8 vs 26.4 GB/s")
	return t, nil
}

// Fig3 reproduces the allocation-size histogram from the scheduler
// simulation.
func Fig3() (*Table, error) {
	t := newTable("fig3", "Per-server GPU counts allocated to multi-GPU jobs",
		"GPUs on server", "% of multi-GPU jobs")
	res, err := cluster.Simulate(cluster.Config{Jobs: 40000, Seed: 1})
	if err != nil {
		return nil, err
	}
	for g := 2; g <= 8; g++ {
		t.addRow(fmt.Sprintf("%d", g), fmt.Sprintf("%.1f%%", 100*res.PieceHistogram[g]))
		t.Metrics[fmt.Sprintf("pct_%d", g)] = 100 * res.PieceHistogram[g]
	}
	t.note("fragmented jobs: %.1f%%; paper observes common 3/5/6/7-GPU pieces despite power-of-two requests", 100*res.Fragmented)
	return t, nil
}

// Fig5 reports the best/worst NCCL communication overhead per model and
// GPU count over the unique allocation classes of each machine.
func Fig5() (*Table, error) {
	t := newTable("fig5", "NCCL communication overhead (% of iteration), best-worst over unique allocations",
		"machine", "model", "GPUs", "best %", "worst %")
	for _, machine := range []*topology.Topology{topology.DGX1P(), topology.DGX1V()} {
		for _, m := range dnn.Zoo() {
			for k := 3; k <= 8; k++ {
				classes := machine.UniqueConnectedAllocationClasses(k)
				// Include one PCIe-fallback class when it exists: the paper
				// bins all allocations, and the disconnected ones are the
				// worst cases.
				best, worst := 2.0, -1.0
				reps := make([][]int, 0, len(classes)+1)
				for _, c := range classes {
					reps = append(reps, c.Representative)
				}
				if k <= 6 {
					if disc := firstDisconnected(machine, k); disc != nil {
						reps = append(reps, disc)
					}
				}
				for _, devs := range reps {
					eng, err := engineFor(machine, devs)
					if err != nil {
						return nil, err
					}
					st, err := dnn.SimulateIteration(m, machine.Gen, k, dnn.EngineComm(eng, collective.NCCL))
					if err != nil {
						return nil, err
					}
					if st.CommOverheadFrac < best {
						best = st.CommOverheadFrac
					}
					if st.CommOverheadFrac > worst {
						worst = st.CommOverheadFrac
					}
				}
				t.addRow(machine.Name, m.Name, fmt.Sprintf("%d", k),
					fmt.Sprintf("%.1f", 100*best), fmt.Sprintf("%.1f", 100*worst))
				key := fmt.Sprintf("%s_%s_%d_worst", machine.Name, m.Name, k)
				t.Metrics[key] = 100 * worst
			}
		}
	}
	t.note("paper: overheads reach ~50%% on DGX-1V")
	return t, nil
}

// firstDisconnected returns one k-GPU allocation whose NVLink subgraph is
// disconnected, or nil.
func firstDisconnected(machine *topology.Topology, k int) []int {
	for _, c := range machine.UniqueAllocationClasses(k) {
		if !machine.GPUGraph().InducedSubgraph(c.Representative).Connected() {
			return c.Representative
		}
	}
	return nil
}

// Fig7 reports reduce+forward chain throughput for 3-8 GPUs and three data
// sizes.
func Fig7() (*Table, error) {
	t := newTable("fig7", "Reduce+forward throughput over a chain of GPUs (GB/s)",
		"GPUs", "10MB", "100MB", "1000MB")
	for k := 3; k <= 8; k++ {
		f, err := micro.ChainFabric(k, simgpu.Config{})
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%d", k)}
		for _, mbs := range []int64{10, 100, 1000} {
			chunk := int64(4 << 20)
			if mbs <= 10 {
				chunk = 1 << 20
			}
			plan, err := micro.ChainReduceForward(f, mbs<<20, chunk)
			if err != nil {
				return nil, err
			}
			tp, err := plan.ThroughputGBs()
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.1f", tp))
			if mbs == 1000 {
				t.Metrics[fmt.Sprintf("gpus%d_1000MB", k)] = tp
			}
		}
		t.addRow(row...)
	}
	t.note("paper: ~21 GB/s at 3 GPUs falling to ~19 GB/s at 8 for 1000MB")
	return t, nil
}

// Fig8 reports MIMO and MCA multi-transfer throughput.
func Fig8() (*Table, error) {
	t := newTable("fig8", "MIMO and MCA throughput (GB/s per flow)",
		"size", "MIMO", "MCA")
	for _, mbs := range []int64{10, 100, 1000} {
		chunk := int64(4 << 20)
		if mbs <= 10 {
			chunk = 1 << 20
		}
		mimo, err := micro.MIMO(mbs<<20, chunk, simgpu.Config{})
		if err != nil {
			return nil, err
		}
		mca, err := micro.MCA(mbs<<20, chunk, simgpu.Config{})
		if err != nil {
			return nil, err
		}
		t.addRow(fmt.Sprintf("%dMB", mbs), fmt.Sprintf("%.1f", mimo), fmt.Sprintf("%.1f", mca))
		if mbs == 1000 {
			t.Metrics["mimo_1000MB"] = mimo
			t.Metrics["mca_1000MB"] = mca
		}
	}
	t.note("paper: ~18 GB/s for both at >= 100MB")
	return t, nil
}

// Fig12 traces MIAD chunk-size selection on a 4-GPU broadcast.
func Fig12() (*Table, error) {
	t := newTable("fig12", "MIAD chunk-size selection (4-GPU broadcast, 500 MB)",
		"iteration", "chunk MB", "throughput GB/s")
	ind, err := topology.DGX1V().Induce([]int{0, 1, 2, 3})
	if err != nil {
		return nil, err
	}
	g := ind.GPUGraph()
	p, err := core.GenerateTrees(g, 0, core.PackOptions{}, core.MinimizeOptions{})
	if err != nil {
		return nil, err
	}
	f := simgpu.NewFabric(ind, g, simgpu.Config{})
	best, hist, err := core.AutoTuneChunk(func(chunk int64) (*core.Plan, error) {
		return core.BuildBroadcastPlan(f, p, payload500MB, core.PlanOptions{ChunkBytes: chunk, NoStreamReuse: true})
	}, 1<<20, 12)
	if err != nil {
		return nil, err
	}
	for _, s := range hist {
		t.addRow(fmt.Sprintf("%d", s.Iter), fmt.Sprintf("%.1f", float64(s.ChunkBytes)/(1<<20)),
			fmt.Sprintf("%.1f", s.ThroughputGBs))
	}
	t.Metrics["selected_chunk_MB"] = float64(best) / (1 << 20)
	t.note("paper: starts at 1MB, doubles while throughput rises, settles after ~4 iterations")
	return t, nil
}

// Fig14 computes the theoretical speedup distribution of tree packing over
// rings for every unique allocation on both machines.
func Fig14() (*Table, error) {
	t := newTable("fig14", "Theoretical speedup: packed trees vs rings (rate units)",
		"machine", "op", "min", "p5", "median", "p95", "max")
	for _, machine := range []*topology.Topology{topology.DGX1P(), topology.DGX1V()} {
		var speedups []float64
		for k := 3; k <= 8; k++ {
			for _, c := range machine.UniqueConnectedAllocationClasses(k) {
				g := machine.GPUGraph().InducedSubgraph(c.Representative)
				// The broadcast root is the caller's choice; the figure
				// reports the best achievable rate, so take the maximum
				// over roots (ring counts are root-independent).
				best := 0.0
				var ncclBest float64
				for root := 0; root < g.N; root++ {
					nccl, blink, err := ring.TheoreticalRates(g, root)
					if err != nil {
						return nil, err
					}
					if blink/nccl > best {
						best = blink / nccl
						ncclBest = nccl
					}
				}
				_ = ncclBest
				speedups = append(speedups, best)
			}
		}
		sort.Float64s(speedups)
		q := func(p float64) float64 {
			idx := int(p * float64(len(speedups)-1))
			return speedups[idx]
		}
		// Broadcast and AllReduce share the ratio (both halve symmetric
		// rates), as the paper's Fig 14 shows near-identical boxes.
		for _, op := range []string{"Broadcast", "AllReduce"} {
			t.addRow(machine.Name, op,
				fmt.Sprintf("%.2f", q(0)), fmt.Sprintf("%.2f", q(0.05)),
				fmt.Sprintf("%.2f", q(0.5)), fmt.Sprintf("%.2f", q(0.95)),
				fmt.Sprintf("%.2f", q(1)))
		}
		t.Metrics["max_speedup_"+machine.Name] = q(1)
		t.Metrics["median_speedup_"+machine.Name] = q(0.5)
	}
	t.note("paper: packing is never slower than rings and reaches ~6x where rings fall to PCIe")
	return t, nil
}

// throughputSweep runs one collective across a list of allocations.
func throughputSweep(id, title string, machine *topology.Topology, allocs [][]int, op collective.Op) (*Table, error) {
	t := newTable(id, title, "GPUs", "Blink GB/s", "NCCL GB/s", "speedup")
	var speedups []float64
	for _, devs := range allocs {
		eng, err := engineFor(machine, devs)
		if err != nil {
			return nil, err
		}
		blink, err := eng.Run(collective.Blink, op, 0, payload500MB, collective.Options{})
		if err != nil {
			return nil, err
		}
		nccl, err := eng.Run(collective.NCCL, op, 0, payload500MB, collective.Options{})
		if err != nil {
			return nil, err
		}
		sp := blink.ThroughputGBs / nccl.ThroughputGBs
		speedups = append(speedups, sp)
		t.addRow(topology.AllocLabel(devs),
			fmt.Sprintf("%.1f", blink.ThroughputGBs),
			fmt.Sprintf("%.1f", nccl.ThroughputGBs),
			fmt.Sprintf("%.2fx", sp))
	}
	t.Metrics["geomean_speedup"] = geomean(speedups)
	mx := 0.0
	for _, s := range speedups {
		if s > mx {
			mx = s
		}
	}
	t.Metrics["max_speedup"] = mx
	return t, nil
}

// Fig15 sweeps broadcast over the 46 unique DGX-1V allocations.
func Fig15() (*Table, error) {
	t, err := throughputSweep("fig15", "Broadcast, all unique DGX-1V allocations, 500 MB",
		topology.DGX1V(), topology.Fig15AllocationsDGX1V, collective.Broadcast)
	if err != nil {
		return nil, err
	}
	t.note("paper: up to 6x, 2x geometric mean")
	return t, nil
}

// Fig16 sweeps broadcast over the 14 unique DGX-1P allocations.
func Fig16() (*Table, error) {
	t, err := throughputSweep("fig16", "Broadcast, all unique DGX-1P allocations, 500 MB",
		topology.DGX1P(), topology.Fig16AllocationsDGX1P, collective.Broadcast)
	if err != nil {
		return nil, err
	}
	t.note("paper: up to 3x, 1.6x geometric mean")
	return t, nil
}

// Fig17 sweeps AllReduce over the 46 unique DGX-1V allocations.
func Fig17() (*Table, error) {
	t, err := throughputSweep("fig17", "AllReduce, all unique DGX-1V allocations, 500 MB",
		topology.DGX1V(), topology.Fig15AllocationsDGX1V, collective.AllReduce)
	if err != nil {
		return nil, err
	}
	t.note("paper: up to 8x, 2x geometric mean")
	return t, nil
}
