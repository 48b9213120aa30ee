package core_test

import (
	"strings"
	"testing"

	"blink/internal/core"
	_ "blink/internal/ring" // registers the baseline IR kinds' builders
	"blink/internal/simgpu"
	"blink/internal/topology"
)

// TestRingIRNeedsARingOnItsPlane: a ring kind names a schedule, and the
// plane it walks is the IR's Fabric. An IR that names a plane with no ring —
// NVLink over the ringless {0,1,4} allocation, where the encoder would have
// recorded the PCIe plane — must fail codegen cleanly, whether hand-built or
// decoded from a blob, while the same IR on the PCIe plane generates.
func TestRingIRNeedsARingOnItsPlane(t *testing.T) {
	ind, err := topology.DGX1V().Induce([]int{0, 1, 4})
	if err != nil {
		t.Fatal(err)
	}
	fabrics := map[core.FabricSel]*simgpu.Fabric{
		core.FabricNVLink: simgpu.NewFabric(ind, ind.GPUGraph(), simgpu.Config{}),
		core.FabricPCIe:   simgpu.NewFabric(ind, ind.PCIeGraph(), simgpu.Config{}),
	}
	resolve := func(sel core.FabricSel) *simgpu.Fabric { return fabrics[sel] }
	for _, kind := range []core.IRKind{core.IRRingBroadcast, core.IRRingAllReduce, core.IRRingP2P} {
		ir := &core.PlanIR{Kind: kind, Fabric: core.FabricPCIe, Strategy: "pcie-ring", Bytes: 1 << 20,
			Pairs: []core.IRPair{{Src: 0, Dst: 2, Bytes: 1 << 20}}}
		plan, err := core.CodeGen(ir, resolve(ir.Fabric))
		if err != nil {
			t.Fatalf("%v on the PCIe plane: %v", kind, err)
		}
		blob, err := core.EncodePlan(plan.Freeze())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.DecodePlan(blob, resolve); err != nil {
			t.Fatalf("%v on the PCIe plane did not round-trip: %v", kind, err)
		}
		wrong := *ir
		wrong.Fabric = core.FabricNVLink
		if _, err := core.CodeGen(&wrong, resolve(wrong.Fabric)); err == nil || !strings.Contains(err.Error(), "no NVLink rings") {
			t.Fatalf("%v on the ringless NVLink plane: %v, want the no-rings error", kind, err)
		}
		// The same mistake arriving as a blob: every plane resolves to the
		// ringless NVLink fabric.
		if _, err := core.DecodePlan(blob, func(core.FabricSel) *simgpu.Fabric { return fabrics[core.FabricNVLink] }); err == nil {
			t.Fatalf("%v blob decoded over a fabric with no PCIe ring", kind)
		}
	}
}
