package core

import (
	"testing"

	"blink/internal/simgpu"
	"blink/internal/topology"
)

// TestCodeGenEveryIRKind: CodeGen compiles every IR kind from this package
// alone. Each kind is built on a fabric where it applies — the full DGX-1V's
// NVLink or PCIe plane for the tree and ring kinds, the DGX-2 switch for its
// one-hop AllReduce and the double binary trees — and its frozen plan
// round-trips through EncodePlan / DecodePlan to the same op count and the
// same simulated makespan.
func TestCodeGenEveryIRKind(t *testing.T) {
	ind, err := topology.DGX1V().Induce([]int{0, 1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	d2, lg := topology.DGX2(), topology.DGX2Logical()
	fabrics := map[FabricSel]*simgpu.Fabric{
		FabricNVLink: simgpu.NewFabric(ind, ind.GPUGraph(), simgpu.Config{}),
		FabricPCIe:   simgpu.NewFabric(ind, ind.PCIeGraph(), simgpu.Config{}),
		FabricSwitch: simgpu.NewSwitchFabric(d2, lg, topology.DGX2LinksPerGPU, simgpu.Config{}),
	}
	resolve := func(sel FabricSel) *simgpu.Fabric { return fabrics[sel] }
	var packs []*Packing
	for root := 0; root < 8; root++ {
		p, err := GenerateTrees(ind.GPUGraph(), root)
		if err != nil {
			t.Fatal(err)
		}
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
		ir.Kind, ir.Bytes, ir.Opts = kind, 1<<20, PlanOptions{ChunkBytes: 256 << 10}
		plan, err := CodeGen(ir, resolve(ir.Fabric))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
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
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Replay()
		if err != nil {
			t.Fatal(err)
		}
		if dec.NumOps() != fp.NumOps() || got.Makespan != want.Makespan {
			t.Fatalf("%v decoded to %d ops, %v s; encoded %d ops, %v s", kind, dec.NumOps(), got.Makespan, fp.NumOps(), want.Makespan)
		}
	}
}
