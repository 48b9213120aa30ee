package ring

import (
	"blink/internal/core"
	"blink/internal/simgpu"
)

// This file wires the baseline builders into core's IR codegen dispatch. The
// ring package already imports core (its builders produce core.Plan), so
// core cannot call these builders directly; instead each baseline IR kind
// registers a builder hook here. A kind names a schedule; the plane it runs
// over is the IR's Fabric field. Rings are not serialized in the IR — they
// are a deterministic function of the fabric graph (logicalRings), so the
// decoding process recomputes them and gets the identical logical rings the
// encoder scheduled over.

func init() {
	core.RegisterIRBuilder(core.IRRingBroadcast, func(ir *core.PlanIR, f *simgpu.Fabric) (*core.Plan, error) {
		return BuildBroadcastPlan(f, ir.Fabric, ir.Root, ir.Bytes, ir.Opts)
	})
	core.RegisterIRBuilder(core.IRRingAllReduce, func(ir *core.PlanIR, f *simgpu.Fabric) (*core.Plan, error) {
		return BuildAllReducePlan(f, ir.Fabric, ir.Bytes, ir.Opts)
	})
	core.RegisterIRBuilder(core.IRRingP2P, func(ir *core.PlanIR, f *simgpu.Fabric) (*core.Plan, error) {
		return BuildP2PPlan(f, ir.Fabric, ir.Pairs, ir.Chained, ir.Opts)
	})
	core.RegisterIRBuilder(core.IRDBTreeAllReduce, func(ir *core.PlanIR, f *simgpu.Fabric) (*core.Plan, error) {
		return BuildDBTreeAllReducePlan(f, ir.Bytes, ir.Opts)
	})
}
