package core

import (
	"math"
	"testing"

	"blink/internal/simgpu"
	"blink/internal/topology"
)

func induced(t *testing.T, devs []int) (*topology.Topology, *simgpu.Fabric) {
	t.Helper()
	ind, err := topology.DGX1V().Induce(devs)
	if err != nil {
		t.Fatal(err)
	}
	return ind, simgpu.NewFabric(ind, ind.GPUGraph(), simgpu.Config{})
}

func TestFindRingsFullDGX1V(t *testing.T) {
	ind, _ := induced(t, []int{0, 1, 2, 3, 4, 5, 6, 7})
	rings := FindRings(ind.GPUGraph())
	if len(rings) == 0 {
		t.Fatal("no rings on fully allocated DGX-1V")
	}
	// Port budget: each V100 has 6 ports, so at most 6 directed rings.
	if len(rings) > 6 {
		t.Fatalf("found %d rings, exceeds port budget 6", len(rings))
	}
	for _, r := range rings {
		if err := r.Validate(ind.GPUGraph()); err != nil {
			t.Fatal(err)
		}
		if len(r.Verts) != 8 {
			t.Fatalf("ring covers %d GPUs, want 8", len(r.Verts))
		}
	}
	// Edge-disjointness within capacity is enforced by construction; check
	// aggregate usage stays within total capacity.
	if UsedLinkUnits(rings) > ind.GPUGraph().TotalCap() {
		t.Fatal("rings oversubscribe links")
	}
}

func TestFindRingsPartialConnectivity(t *testing.T) {
	// GPUs 0,1,4 on DGX-1V: no NVLink ring exists (no 1-4 link), which is
	// exactly the Figure 2b scenario forcing NCCL onto PCIe.
	ind, _ := induced(t, []int{0, 1, 4})
	rings := FindRings(ind.GPUGraph())
	if len(rings) != 0 {
		t.Fatalf("expected no rings for {0,1,4}, got %d", len(rings))
	}
}

func TestFindRingsDropsLinks(t *testing.T) {
	// Figure 4: the 6-GPU group {0,1,3,4,5,7} on DGX-1P builds rings but
	// cannot use every link.
	ind, err := topology.DGX1P().Induce([]int{0, 1, 3, 4, 5, 7})
	if err != nil {
		t.Fatal(err)
	}
	g := ind.GPUGraph()
	rings := FindRings(g)
	if len(rings) == 0 {
		t.Fatal("expected at least one ring for the Fig 4 allocation")
	}
	if UsedLinkUnits(rings) >= g.TotalCap() {
		t.Fatalf("rings use all %v units; paper shows links must be dropped", g.TotalCap())
	}
}

func TestRingNext(t *testing.T) {
	ind, _ := induced(t, []int{5, 6, 7})
	rings := FindRings(ind.GPUGraph())
	if len(rings) == 0 {
		t.Fatal("triangle 5,6,7 should form a ring")
	}
	r := rings[0]
	v, _, ok := r.Next(r.Verts[0])
	if !ok || v != r.Verts[1] {
		t.Fatalf("Next broken: %v %v", v, ok)
	}
	if _, _, ok := r.Next(99); ok {
		t.Fatal("Next on absent vertex should fail")
	}
}

func TestRingBroadcastThroughput(t *testing.T) {
	_, f := induced(t, []int{0, 1, 2, 3, 4, 5, 6, 7})
	tp := gbs(t)(BuildRingBroadcastPlan(f, FabricNVLink, 0, 500<<20, PlanOptions{}))
	// NCCL on the full DGX-1V reaches ~90-120 GB/s broadcast (Fig 15).
	if tp < 70 || tp > 140 {
		t.Fatalf("ring broadcast = %.1f GB/s, outside NCCL's regime", tp)
	}
}

func TestRingBroadcastData(t *testing.T) {
	ind, _ := induced(t, []int{0, 1, 2, 3})
	f := simgpu.NewFabric(ind, ind.GPUGraph(), simgpu.Config{DataMode: true})
	rings := FindRings(ind.GPUGraph())
	if len(rings) == 0 {
		t.Fatal("no rings")
	}
	const n = 4096
	src := make([]float32, n)
	for i := range src {
		src[i] = float32(i)
	}
	bufs := simgpu.NewBufferSet()
	bufs.SetBuffer(0, BufData, append([]float32(nil), src...))
	plan, err := BuildRingBroadcastPlan(f, FabricNVLink, 0, n*4, PlanOptions{ChunkBytes: 1024, DataMode: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Freeze().ReplayData(bufs); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 4; v++ {
		got := bufs.Buffer(v, BufData, n)
		for i := range src {
			if got[i] != src[i] {
				t.Fatalf("device %d float %d = %v, want %v", v, i, got[i], src[i])
			}
		}
	}
}

func TestRingAllReduceData(t *testing.T) {
	for _, devs := range [][]int{{0, 1, 2, 3}, {0, 1, 2, 3, 4, 5, 6, 7}} {
		ind, _ := induced(t, devs)
		f := simgpu.NewFabric(ind, ind.GPUGraph(), simgpu.Config{DataMode: true})
		if len(FindRings(ind.GPUGraph())) == 0 {
			t.Fatalf("no rings for %v", devs)
		}
		plan, err := BuildRingAllReducePlan(f, FabricNVLink, 2048*4, PlanOptions{DataMode: true})
		if err != nil {
			t.Fatal(err)
		}
		checkAllReduceData(t, plan, len(devs), 2048, 9)
	}
}

func TestPCIeFallback(t *testing.T) {
	ind, err := topology.DGX1V().Induce([]int{0, 1, 4})
	if err != nil {
		t.Fatal(err)
	}
	f := simgpu.NewFabric(ind, ind.PCIeGraph(), simgpu.Config{})
	tp := gbs(t)(BuildRingBroadcastPlan(f, FabricPCIe, 0, 500<<20, PlanOptions{}))
	// Fig 2b: NCCL over PCIe lands near 5 GB/s.
	if tp < 2 || tp > 8 {
		t.Fatalf("PCIe fallback broadcast = %.2f GB/s, want ~5", tp)
	}
}

func TestPCIeAllReduceData(t *testing.T) {
	ind, err := topology.DGX1V().Induce([]int{0, 1, 4})
	if err != nil {
		t.Fatal(err)
	}
	f := simgpu.NewFabric(ind, ind.PCIeGraph(), simgpu.Config{DataMode: true})
	plan, err := BuildRingAllReducePlan(f, FabricPCIe, 1024*4, PlanOptions{DataMode: true})
	if err != nil {
		t.Fatal(err)
	}
	checkAllReduceData(t, plan, 3, 1024, 3)
}

func TestDoubleBinaryTrees(t *testing.T) {
	lg := topology.DGX2Logical()
	packs, err := DoubleBinaryTrees(lg)
	if err != nil {
		t.Fatal(err)
	}
	if len(packs) != 2 {
		t.Fatalf("packs = %d, want 2", len(packs))
	}
	// Complementarity: a leaf in tree 1 is interior in tree 2.
	interior := func(p *Packing) map[int]bool {
		m := map[int]bool{}
		for _, id := range p.Trees[0].Arbo.Edges {
			m[lg.Edges[id].From] = true
		}
		return m
	}
	i1, i2 := interior(packs[0]), interior(packs[1])
	for v := 0; v < lg.N; v++ {
		if !i1[v] && !i2[v] {
			t.Fatalf("rank %d is a leaf in both trees", v)
		}
	}
}

func TestDBTreeAllReduceDGX2(t *testing.T) {
	f := simgpu.NewSwitchFabric(topology.DGX2(), topology.DGX2Logical(), topology.DGX2LinksPerGPU, simgpu.Config{DataMode: true})
	plan, err := BuildDBTreeAllReducePlan(f, 4096*4, PlanOptions{ChunkBytes: 2048, DataMode: true})
	if err != nil {
		t.Fatal(err)
	}
	checkAllReduceData(t, plan, 16, 4096, 16)
}

func TestSwitchRingAllReduceDGX2(t *testing.T) {
	topo := topology.DGX2()
	lg := topology.DGX2Logical()
	f := simgpu.NewSwitchFabric(topo, lg, topology.DGX2LinksPerGPU, simgpu.Config{})
	tp := gbs(t)(BuildRingAllReducePlan(f, FabricSwitch, 256<<20, PlanOptions{}))
	// Ring AllReduce on DGX-2 should land in the same large-payload regime
	// as Blink's one-hop trees (tens of GB/s).
	if tp < 30 || tp > 90 {
		t.Fatalf("DGX-2 ring AllReduce = %.1f GB/s out of range", tp)
	}
}

func TestTheoreticalRates(t *testing.T) {
	ind, _ := induced(t, []int{0, 1, 2, 3, 4, 5, 6, 7})
	nccl, blink, err := TheoreticalRates(ind.GPUGraph(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if blink != 6 {
		t.Fatalf("blink rate = %v, want 6", blink)
	}
	if nccl <= 0 || nccl > blink {
		t.Fatalf("nccl rate = %v must be in (0, %v]", nccl, blink)
	}
	// Partially connected: NCCL falls to the PCIe approximation.
	ind2, _ := induced(t, []int{0, 1, 4})
	nccl2, blink2, err := TheoreticalRates(ind2.GPUGraph(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if nccl2 != PCIeRingUnits {
		t.Fatalf("nccl rate = %v, want PCIe fallback %v", nccl2, PCIeRingUnits)
	}
	if blink2 < 1 {
		t.Fatalf("blink rate = %v, want >= 1 (spanning tree exists)", blink2)
	}
}

func TestLowerBoundMessages(t *testing.T) {
	b, a := LowerBoundMessages(8)
	if math.Abs(b-7.0/8.0) > 1e-12 || math.Abs(a-2*7.0/8.0) > 1e-12 {
		t.Fatalf("bounds = %v %v", b, a)
	}
	b1, a1 := LowerBoundMessages(1)
	if b1 != 0 || a1 != 0 {
		t.Fatal("single process needs no messages")
	}
}

func TestCrossMachineModels(t *testing.T) {
	// NCCL saturates at PCIe regardless of NIC speed.
	at40 := NCCLCrossMachineAllReduceGBs(5, 5.5, 8)
	at400 := NCCLCrossMachineAllReduceGBs(50, 5.5, 8)
	if at400 > at40*1.3 {
		t.Fatalf("NCCL model scales with NIC beyond PCIe: %v -> %v", at40, at400)
	}
	// Blink scales until the NVLink tree rate binds.
	b40 := BlinkCrossMachineAllReduceGBs(5, 40, 2)
	b400 := BlinkCrossMachineAllReduceGBs(50, 40, 2)
	if b400 <= b40 {
		t.Fatalf("Blink model did not scale: %v -> %v", b40, b400)
	}
	if b400 > 40 {
		t.Fatalf("Blink model exceeded intra-server bound: %v", b400)
	}
}

func TestBuildInOrderTree(t *testing.T) {
	p := buildInOrderTree(7)
	roots := 0
	for _, par := range p {
		if par == -1 {
			roots++
		}
	}
	if roots != 1 {
		t.Fatalf("in-order tree has %d roots", roots)
	}
	// Even ranks are leaves.
	children := map[int]int{}
	for r, par := range p {
		if par >= 0 {
			children[par]++
		}
		_ = r
	}
	for r := 0; r < 7; r += 2 {
		if children[r] != 0 {
			t.Fatalf("even rank %d is not a leaf", r)
		}
	}
}

func TestCrossMachineSimulatedRing(t *testing.T) {
	mk := func(gbps float64) float64 {
		c, err := topology.NewCluster([]topology.Server{
			{Machine: topology.DGX1V(), Devs: []int{0, 1, 2}},
			{Machine: topology.DGX1V(), Devs: []int{0, 1, 2, 3, 4}},
		}, gbps)
		if err != nil {
			t.Fatal(err)
		}
		tp, err := SimulatedCrossMachineAllReduceGBs(c, gbps, 100<<20, simgpu.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}
	at40 := mk(40)
	at400 := mk(400)
	if at40 <= 0 {
		t.Fatal("no throughput at 40 Gbps")
	}
	// The paper's point: NCCL is bound by intra-server PCIe, so 10x faster
	// NICs barely help.
	if at400 > at40*1.6 {
		t.Fatalf("simulated NCCL scaled with NIC beyond PCIe bound: %.2f -> %.2f GB/s", at40, at400)
	}
	// The simulated ring should land near the analytic model.
	analytic := NCCLCrossMachineAllReduceGBs(5, 5.5, 8)
	ratio := at40 / analytic
	if ratio < 0.4 || ratio > 2.0 {
		t.Fatalf("simulated %.2f vs analytic %.2f GB/s diverge by %.2fx", at40, analytic, ratio)
	}
}

func TestCrossMachineFabricShape(t *testing.T) {
	c, err := topology.NewCluster([]topology.Server{
		{Machine: topology.DGX1V(), Devs: []int{0, 1}},
		{Machine: topology.DGX1V(), Devs: []int{2, 3}},
	}, 100)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := NewCrossMachineFabric(c, 100, simgpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if cf.TotalGPUs != 4 || len(cf.Ring.verts) != 4 {
		t.Fatalf("ring covers %d GPUs, want 4", len(cf.Ring.verts))
	}
	// Two cross-server hops (one each way), each with 3 legs.
	cross := 0
	for _, h := range cf.Ring.hops {
		if len(h) == 3 {
			cross++
		}
	}
	if cross != 2 {
		t.Fatalf("cross-server hops = %d, want 2", cross)
	}
	if _, err := NewCrossMachineFabric(&topology.Cluster{}, 40, simgpu.Config{}); err == nil {
		t.Fatal("empty cluster accepted")
	}
}
