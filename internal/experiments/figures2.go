package experiments

import (
	"fmt"

	"blink/internal/collective"
	"blink/internal/core"
	"blink/internal/dnn"
	"blink/internal/micro"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

// Fig18 compares end-to-end training iteration times (NCCL vs Blink) over
// the paper's single-server configurations.
func Fig18() (*Table, error) {
	t := newTable("fig18", "End-to-end training reduction on a DGX-1V (ImageNet-1K models)",
		"GPUs", "model", "iter reduction %", "comm reduction %")
	var iterReds, commReds []float64
	maxIter := 0.0
	for _, devs := range topology.Fig18Allocations {
		for _, m := range dnn.Zoo() {
			c, err := dnn.Compare(m, topology.DGX1V(), devs, simgpu.Config{})
			if err != nil {
				return nil, err
			}
			t.addRow(topology.AllocLabel(devs), m.Name,
				fmt.Sprintf("%.1f", 100*c.IterTimeReduction),
				fmt.Sprintf("%.1f", 100*c.CommTimeReduction))
			if keep := 1 - c.IterTimeReduction; c.IterTimeReduction > 0 {
				iterReds = append(iterReds, keep)
				maxIter = max(maxIter, 1-keep)
			}
			if c.CommTimeReduction > 0 {
				commReds = append(commReds, 1-c.CommTimeReduction)
			}
		}
	}
	t.Metrics["max_iter_reduction_pct"] = 100 * maxIter
	t.Metrics["geomean_iter_keep"] = geomean(iterReds)
	t.note("paper: up to 40%% iteration-time reduction (6.3%% geomean), up to 87%% comm-time reduction")
	return t, nil
}

// dgx2Sweep measures AllReduce latency/throughput across sizes on a DGX-2.
func dgx2Sweep() ([][3]float64, error) {
	eng, err := collective.NewEngine(topology.DGX2(), nil, simgpu.Config{})
	if err != nil {
		return nil, err
	}
	var rows [][3]float64 // bytes, ncclSeconds, blinkSeconds
	for sz := int64(1 << 10); sz <= 1<<30; sz *= 4 {
		nccl, err := eng.Run(collective.NCCL, collective.AllReduce, 0, sz, collective.Options{})
		if err != nil {
			return nil, err
		}
		blink, err := eng.Run(collective.Blink, collective.AllReduce, 0, sz, collective.Options{})
		if err != nil {
			return nil, err
		}
		rows = append(rows, [3]float64{float64(sz), nccl.Seconds, blink.Seconds})
	}
	return rows, nil
}

func fmtSize(b float64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.0fGB", b/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.0fMB", b/(1<<20))
	default:
		return fmt.Sprintf("%.0fKB", b/(1<<10))
	}
}

// Fig19 reports DGX-2 AllReduce throughput vs size.
func Fig19() (*Table, error) {
	rows, err := dgx2Sweep()
	if err != nil {
		return nil, err
	}
	t := newTable("fig19", "AllReduce throughput on a 16-GPU DGX-2 (GB/s)",
		"size", "NCCL", "Blink", "ratio")
	best := 0.0
	for _, r := range rows {
		n := gb(int64(r[0]), r[1])
		b := gb(int64(r[0]), r[2])
		ratio := b / n
		best = max(best, ratio)
		t.addRow(fmtSize(r[0]), fmt.Sprintf("%.2f", n), fmt.Sprintf("%.2f", b), fmt.Sprintf("%.2fx", ratio))
	}
	t.Metrics["max_throughput_ratio"] = best
	t.note("paper: Blink up to 3.5x higher throughput, converging at large sizes")
	return t, nil
}

// Fig20 reports DGX-2 AllReduce latency vs size.
func Fig20() (*Table, error) {
	rows, err := dgx2Sweep()
	if err != nil {
		return nil, err
	}
	t := newTable("fig20", "AllReduce latency on a 16-GPU DGX-2 (microseconds)",
		"size", "NCCL us", "Blink us", "NCCL/Blink")
	best := 0.0
	for _, r := range rows {
		ratio := r[1] / r[2]
		best = max(best, ratio)
		t.addRow(fmtSize(r[0]), fmt.Sprintf("%.0f", r[1]*1e6), fmt.Sprintf("%.0f", r[2]*1e6), fmt.Sprintf("%.2fx", ratio))
	}
	t.Metrics["max_latency_ratio"] = best
	t.note("paper: up to 3.32x lower latency for Blink")
	return t, nil
}

// Fig21 compares hybrid PCIe+NVLink broadcast, which Blink's trial keeps
// at this size, with NVLink-only, compiled from an IR that carries only the
// NVLink packing, for 3-8 GPUs on the DGX-1V.
func Fig21() (*Table, error) {
	t := newTable("fig21", "Hybrid vs NVLink-only broadcast (DGX-1V, 500 MB)",
		"GPUs", "NVLink GB/s", "hybrid GB/s", "gain GB/s")
	allocs := [][]int{
		{0, 1, 2}, {0, 1, 2, 3}, {0, 1, 2, 3, 4}, {1, 2, 3, 4, 5, 6},
		{0, 1, 2, 3, 4, 5, 6}, {0, 1, 2, 3, 4, 5, 6, 7},
	}
	for _, devs := range allocs {
		eng, err := engineFor(topology.DGX1V(), devs)
		if err != nil {
			return nil, err
		}
		p, err := eng.Packing(0)
		if err != nil {
			return nil, err
		}
		plan, err := core.CodeGen(&core.PlanIR{Kind: core.IRTreeBroadcast, Fabric: core.FabricNVLink, Bytes: payload500MB,
			Opts: core.PlanOptions{NoStreamReuse: true}, Packings: []*core.Packing{p}}, eng.FabricFor(collective.Blink))
		if err != nil {
			return nil, err
		}
		nvl, err := plan.ThroughputGBs()
		if err != nil {
			return nil, err
		}
		hy, err := eng.Run(collective.Blink, collective.Broadcast, 0, payload500MB, collective.Options{})
		if err != nil {
			return nil, err
		}
		gain := hy.ThroughputGBs - nvl
		t.addRow(fmt.Sprintf("%d", len(devs)),
			fmt.Sprintf("%.1f", nvl),
			fmt.Sprintf("%.1f", hy.ThroughputGBs),
			fmt.Sprintf("%+.1f", gain))
		t.Metrics[fmt.Sprintf("gain_%dgpu", len(devs))] = gain
	}
	t.note("paper: ~5 GB/s gain at 3-4 GPUs shrinking to ~2 GB/s at 7-8 (peer-access switching cost grows with GPU count)")
	return t, nil
}

// Fig22a compares multi-server training throughput (images/sec) on a
// fragmented 3+5 GPU allocation across two DGX-1Vs with 40 Gbps NICs.
func Fig22a() (*Table, error) {
	t := newTable("fig22a", "2x DGX-1V training (3+5 GPUs, 40 Gbps): images/sec",
		"model", "NCCL", "Blink", "speedup")
	c, err := fragmentedPair(40)
	if err != nil {
		return nil, err
	}
	blinkComm := dnn.MultiServerComm(c, simgpu.Config{})
	// NCCL baseline: one global ring whose throughput is bound by
	// min(NIC, PCIe) with the ring factor (§5.4). Both stacks fuse
	// gradients into 64 MB buckets (Horovod tensor fusion).
	ncclBW := core.NCCLCrossMachineAllReduceGBs(c.NICGBs, 5.5, c.TotalGPUs())
	ncclComm := dnn.AnalyticComm(ncclBW, dnn.CollectiveCallLatency)
	for _, base := range dnn.Zoo() {
		m := dnn.Bucketed(base, 64<<20)
		nccl, err := dnn.SimulateIteration(m, topology.GenV100, c.TotalGPUs(), ncclComm)
		if err != nil {
			return nil, err
		}
		blink, err := dnn.SimulateIteration(m, topology.GenV100, c.TotalGPUs(), blinkComm)
		if err != nil {
			return nil, err
		}
		sp := blink.ImagesPerSec / nccl.ImagesPerSec
		t.addRow(base.Name, fmt.Sprintf("%.0f", nccl.ImagesPerSec),
			fmt.Sprintf("%.0f", blink.ImagesPerSec), fmt.Sprintf("%.2fx", sp))
		t.Metrics["speedup_"+base.Name] = sp
	}
	t.note("paper: Blink outperforms Horovod+NCCL/MPI by up to 11%%")
	return t, nil
}

// fragmentedPair is the 3+5 GPU allocation across two DGX-1Vs of Fig 22,
// joined by NICs of gbps.
func fragmentedPair(gbps float64) (*topology.Cluster, error) {
	return topology.NewCluster([]topology.Server{
		{Machine: topology.DGX1V(), Devs: []int{0, 1, 2}},
		{Machine: topology.DGX1V(), Devs: []int{0, 1, 2, 3, 4}},
	}, gbps)
}

// Fig22b projects cross-machine AllReduce throughput as NIC bandwidth
// scales (100 MB payload, 3+5 GPU fragmented allocation).
func Fig22b() (*Table, error) {
	t := newTable("fig22b", "Cross-machine AllReduce vs NIC speed (100 MB, 2 servers)",
		"NIC Gbps", "NCCL model GB/s", "NCCL sim GB/s", "Blink GB/s", "ratio")
	for _, gbps := range []float64{40, 100, 400} {
		c, err := fragmentedPair(gbps)
		if err != nil {
			return nil, err
		}
		eng, err := collective.NewClusterEngine(c, simgpu.Config{})
		if err != nil {
			return nil, err
		}
		blink, err := eng.Run(collective.Blink, collective.AllReduce, 0, 100<<20, collective.Options{ChunkBytes: dnn.MultiServerChunkBytes})
		if err != nil {
			return nil, err
		}
		nccl := core.NCCLCrossMachineAllReduceGBs(c.NICGBs, 5.5, c.TotalGPUs())
		ncclSim, err := core.SimulatedCrossMachineAllReduceGBs(c, gbps, 100<<20, simgpu.Config{})
		if err != nil {
			return nil, err
		}
		t.addRow(fmt.Sprintf("%.0f", gbps), fmt.Sprintf("%.2f", nccl),
			fmt.Sprintf("%.2f", ncclSim),
			fmt.Sprintf("%.2f", blink.ThroughputGBs),
			fmt.Sprintf("%.2fx", blink.ThroughputGBs/ncclSim))
		t.Metrics[fmt.Sprintf("blink_%.0fgbps", gbps)] = blink.ThroughputGBs
		t.Metrics[fmt.Sprintf("ncclsim_%.0fgbps", gbps)] = ncclSim
	}
	t.note("paper: NCCL is bound by intra-server PCIe; Blink scales with the NIC until NVLink trees bind")
	return t, nil
}

// TreeMin reports the §3.2.1 headline: MWU emits a large candidate set that
// the ILP reduces to 6 trees at rate 6 on the full DGX-1V.
func TreeMin() (*Table, error) {
	t := newTable("treemin", "Tree minimization on the 8-GPU DGX-1V (root 0)",
		"stage", "trees", "rate", "min weight", "max weight")
	g := topology.DGX1V().GPUGraph()
	mwu, err := core.PackTrees(g, 0)
	if err != nil {
		return nil, err
	}
	ilp := core.MinimizeTrees(g, mwu)
	for _, stage := range []struct {
		name string
		p    *core.Packing
	}{{"MWU", mwu}, {"ILP-minimized", ilp}} {
		minW, maxW := 1e9, 0.0
		for _, tr := range stage.p.Trees {
			minW, maxW = min(minW, tr.Weight), max(maxW, tr.Weight)
		}
		t.addRow(stage.name, fmt.Sprintf("%d", len(stage.p.Trees)), fmt.Sprintf("%.3f", stage.p.Rate),
			fmt.Sprintf("%.4f", minW), fmt.Sprintf("%.4f", maxW))
	}
	t.Metrics["mwu_trees"] = float64(len(mwu.Trees))
	t.Metrics["min_trees"] = float64(len(ilp.Trees))
	t.Metrics["min_rate"] = ilp.Rate
	t.note("paper: 181 MWU trees (weights 0.002-0.899) reduced to 6 trees of weight 1.0")
	return t, nil
}

// Fig24 reports the appendix depth tests for all three traffic patterns.
func Fig24() (*Table, error) {
	t := newTable("fig24", "Depth tests over GPU chains (GB/s, 1000 MB)",
		"GPUs", "forward", "reduce+forward", "reduce-bcast")
	for k := 3; k <= 8; k++ {
		f, err := micro.ChainFabric(k, simgpu.Config{})
		if err != nil {
			return nil, err
		}
		tps, err := microRow(t, fmt.Sprintf("%d", k), f, 1000<<20, micro.ChainForward, micro.ChainReduceForward, micro.ChainReduceBroadcast)
		if err != nil {
			return nil, err
		}
		if k == 8 {
			t.Metrics["fwd_8gpu"] = tps[0]
			t.Metrics["rbcast_8gpu"] = tps[2]
		}
	}
	t.note("paper: forward ~22->20, reduce+forward ~18, reduce-bcast ~19->16 GB/s")
	return t, nil
}

// Fig26 reports the appendix breadth tests.
func Fig26() (*Table, error) {
	t := newTable("fig26", "Breadth tests: fan-in/fan-out (GB/s, 500 MB)",
		"degree", "fan-in fwd", "fan-in reduce", "fan-out fwd")
	for deg := 1; deg <= 3; deg++ {
		f, err := micro.FanFabric(deg, simgpu.Config{})
		if err != nil {
			return nil, err
		}
		if _, err := microRow(t, fmt.Sprintf("%d", deg), f, payload500MB, micro.FanInForward, micro.FanInReduceForward, micro.FanOutForward); err != nil {
			return nil, err
		}
	}
	t.note("paper: near peak link bandwidth; reduce costs 1-2 GB/s at the center")
	return t, nil
}

// microRow adds a row to t: label, then the throughput of each micro
// schedule of bytes over f in 4 MB chunks, which it also returns.
func microRow(t *Table, label string, f *simgpu.Fabric, bytes int64, builds ...func(*simgpu.Fabric, int64, int64) (*core.Plan, error)) ([]float64, error) {
	row, tps := []string{label}, make([]float64, len(builds))
	for i, build := range builds {
		plan, err := build(f, bytes, 4<<20)
		if err != nil {
			return nil, err
		}
		if tps[i], err = plan.ThroughputGBs(); err != nil {
			return nil, err
		}
		row = append(row, fmt.Sprintf("%.1f", tps[i]))
	}
	t.addRow(row...)
	return tps, nil
}
