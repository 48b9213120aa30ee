package core

import (
	"errors"
	"math"
	"testing"

	"blink/internal/simgpu"
	"blink/internal/topology"
)

// TestCodeGenEveryIRKind: CodeGen compiles every IR kind from this package
// alone. Each kind is built on a fabric where it applies — the full DGX-1V's
// NVLink or PCIe plane for the tree and ring kinds, the DGX-2 switch for its
// one-hop AllReduce and the double binary trees — and its frozen plan
// round-trips through EncodePlan / DecodePlan to the same op count and the
// same simulated makespan. The compile budget's bound (opCount) holds every
// kind's ops, at 4 and at 256 chunks of the payload, and CodeGen refuses an
// IR above the budget before building it.
func TestCodeGenEveryIRKind(t *testing.T) {
	ind := must(topology.DGX1V().Induce([]int{0, 1, 2, 3, 4, 5, 6, 7}))(t)
	d2, lg := topology.DGX2(), topology.DGX2Logical()
	fabrics := map[FabricSel]*simgpu.Fabric{
		FabricNVLink: simgpu.NewFabric(ind, ind.GPUGraph(), simgpu.Config{}),
		FabricPCIe:   simgpu.NewFabric(ind, ind.PCIeGraph(), simgpu.Config{}),
		FabricSwitch: simgpu.NewSwitchFabric(d2, lg, topology.DGX2LinksPerGPU, simgpu.Config{}),
	}
	resolve := func(sel FabricSel) *simgpu.Fabric { return fabrics[sel] }
	var packs []*Packing
	for root := 0; root < 8; root++ {
		p := must(GenerateTrees(ind.GPUGraph(), root))(t)
		packs = append(packs, p)
	}
	oneHop, err := OneHopTrees(d2, lg)
	if err != nil {
		t.Fatal(err)
	}
	chain := []int{7, 6, 5, 4, 3, 2, 1, 0}
	neighbors := make([][]int, 8)
	for v := range neighbors {
		neighbors[v] = []int{(v + 1) % 8, (v + 7) % 8}
	}
	one := packs[3:4]
	irs := map[IRKind]*PlanIR{
		IRTreeBroadcast:     {Root: 3, Packings: one},
		IRTreeGather:        {Root: 3, Packings: one},
		IRTreeAllReduce:     {Root: 3, Packings: one},
		IRTreeAllGather:     {Root: 3, Packings: one},
		IRTreeReduce:        {Root: 3, Packings: one},
		IRTreeReduceScatter: {Root: 3, Packings: one},
		IRTreeScatter:       {Root: 3, Packings: one},
		IRTreeAllToAll:      {Packings: packs},
		IRSendRecvChain:     {Chain: chain},
		IRNeighborExchange:  {Neighbors: neighbors},
		IRDGX2AllReduce:     {Fabric: FabricSwitch, Packings: oneHop},
		IRRingBroadcast:     {Root: 5},
		IRRingAllReduce:     {Fabric: FabricPCIe},
		IRRingP2P:           {Pairs: []IRPair{{Src: 0, Dst: 5, Bytes: 1 << 20}, {Src: 6, Dst: 2, Bytes: 1 << 19}}, Chained: true},
		IRDBTreeAllReduce:   {Fabric: FabricSwitch},
	}
	for kind := IRKind(1); kind <= irKindMax; kind++ {
		ir, ok := irs[kind]
		if !ok {
			t.Fatalf("%v has no row", kind)
		}
		for _, chunk := range []int64{4 << 10, 256 << 10} {
			ir.Kind, ir.Bytes, ir.Opts = kind, 1<<20, PlanOptions{ChunkBytes: chunk}
			plan, err := CodeGen(ir, resolve(ir.Fabric))
			if err != nil {
				t.Fatalf("%v: %v", kind, err)
			}
			if bound := ir.opCount(resolve(ir.Fabric), chunk); bound < int64(len(plan.Ops)) {
				t.Fatalf("%v at %d B chunks: %d ops, opCount bounds them at %d", kind, chunk, len(plan.Ops), bound)
			}
		}
		plan := must(CodeGen(ir, resolve(ir.Fabric)))(t)
		fp := plan.Freeze()
		blob, err := EncodePlan(fp)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		dec, err := DecodePlan(blob, resolve)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		want, err := fp.Replay()
		got, err2 := dec.Replay()
		if err != nil || err2 != nil {
			t.Fatal(err, err2)
		}
		if dec.NumOps() != fp.NumOps() || got.Makespan != want.Makespan {
			t.Fatalf("%v decoded to %d ops, %v s; encoded %d ops, %v s", kind, dec.NumOps(), got.Makespan, fp.NumOps(), want.Makespan)
		}
	}
	// In 4-byte chunks a 128 KB chain (262K ops, bounded at 2.1M since each
	// hop may cross a path) and a 1 GiB AllReduce (~10^9 ops) are over the
	// compile budget, and CodeGen says so in a handful of allocations.
	for _, ir := range []*PlanIR{{Kind: IRSendRecvChain, Bytes: 128 << 10, Chain: chain}, {Kind: IRTreeAllReduce, Bytes: 1 << 30, Packings: one}} {
		ir.Opts.ChunkBytes = 4
		var budget *PlanBudgetError
		if allocs := testing.AllocsPerRun(2, func() { _, err = CodeGen(ir, fabrics[FabricNVLink]) }); !errors.As(err, &budget) || allocs > 10 {
			t.Fatalf("%v of %d B in 4 B chunks: %v in %.0f allocations, want a PlanBudgetError before building", ir.Kind, ir.Bytes, err, allocs)
		}
	}
}

// TestPruneKeepsTheWinner races the AllReduce candidate table over the
// directed packing and the undirected one (Undirected.For) on the sweep's
// 60 allocations and sizes. A row is pruned only when its LowerBound shows
// it cannot win, so the race reaches the makespan of the faster packing
// compiled alone. The plan records only the winning packing and the
// winning row, and decodes to that row and the same makespan; re-encoded
// with a winner of another shape's packing and chunk but the root-hung or
// the rank-rooted shape, it decodes to a losing row's makespan instead (the
// shallow packing's root-hung trees may tie its centered winner).
func TestPruneKeepsTheWinner(t *testing.T) {
	for _, m := range []struct {
		machine *topology.Topology
		allocs  [][]int
	}{{topology.DGX1V(), topology.Fig15AllocationsDGX1V}, {topology.DGX1P(), topology.Fig16AllocationsDGX1P}} {
		for _, devs := range m.allocs {
			f, p := fabricFor(t, m.machine, devs, false)
			packs := append([]*Packing{p}, new(Undirected).For(f.Graph, p)...)
			for _, bytes := range []int64{256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20} {
				ir, want := &PlanIR{Kind: IRTreeAllReduce, Bytes: bytes, Opts: PlanOptions{NoStreamReuse: true}, Packings: packs}, math.Inf(1)
				for i := range packs {
					one := *ir
					one.Packings = packs[i : i+1]
					alone := must(Compile(&one, f))(t)
					want = min(want, alone.res.Makespan)
				}
				got := must(Compile(ir, f))(t)
				blob := must(EncodePlan(got))(t)
				resolve := func(FabricSel) *simgpu.Fabric { return f }
				dec, err := DecodePlan(blob, resolve)
				if err != nil || len(got.IR().Packings) != 1 || got.res.Makespan != want || dec.res.Makespan != want || dec.IR().Row != got.IR().Row {
					t.Errorf("%v %d: %.6g s raced over %d packings, want %.6g s (error %v)", devs, bytes, got.res.Makespan, len(got.IR().Packings), want, err)
				}
				if lost, differs := *got.IR(), false; lost.Row.Shape != ShapeTrees {
					hdr, _, _ := DecodePlanIR(blob)
					for _, s := range []Shape{ShapeTrees, ShapeRankRooted} {
						lost.Row.Shape = s
						dec, err := DecodePlan(encodePlan(hdr, &lost), resolve)
						differs = differs || err == nil && dec.res.Makespan != want
					}
					if !differs {
						t.Errorf("%v %d: a blob recording the root-hung or rank-rooted row at %d B decodes to the winner's %.6g s", devs, bytes, lost.Row.Chunk, want)
					}
				}
			}
		}
	}
}
