package core_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"blink/internal/core"
	"blink/internal/ring"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

// stripeFloats is every rank's input length in the striping property: not a
// multiple of the 128-float chunk, and split by 3, 8 and 16 ranks into
// shards of odd and even lengths.
const (
	stripeFloats = 1552
	stripeChunk  = 512 // bytes
)

// stripePlan is one data-mode schedule of the property: a builder, fresh on
// every call, and the ranks whose inputs it reads.
type stripePlan struct {
	name  string
	ranks int
	build func() (*core.Plan, error)
}

// stripeMachine is a single-machine row: one plane of an allocation and its
// packing per root.
type stripeMachine struct {
	name  string
	f     *simgpu.Fabric
	plane core.FabricSel
	packs []*core.Packing
}

func newStripeMachine(t *testing.T, name string, m *topology.Topology, devs []int, plane core.FabricSel, cfg simgpu.Config) stripeMachine {
	t.Helper()
	ind, err := m.Induce(devs)
	if err != nil {
		t.Fatal(err)
	}
	g := ind.GPUGraph()
	if plane == core.FabricPCIe {
		g = ind.PCIeGraph()
	}
	sm := stripeMachine{name: name, f: simgpu.NewFabric(ind, g, cfg), plane: plane}
	for root := 0; root < ind.NumGPUs; root++ {
		p, err := core.GenerateTrees(g, root, core.PackOptions{}, core.MinimizeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sm.packs = append(sm.packs, p)
	}
	return sm
}

// ir compiles one IR kind over the row's plane.
func (sm stripeMachine) ir(name string, kind core.IRKind, root int, packs []*core.Packing, shape func(*core.PlanIR)) stripePlan {
	n := len(sm.packs)
	return stripePlan{name: sm.name + "/" + name, ranks: n, build: func() (*core.Plan, error) {
		ir := &core.PlanIR{Kind: kind, Fabric: sm.plane, Root: root, Bytes: stripeFloats * 4, Packings: packs,
			Opts: core.PlanOptions{DataMode: true, ChunkBytes: stripeChunk, NoStreamReuse: true}}
		if shape != nil {
			shape(ir)
		}
		return core.CodeGen(ir, sm.f)
	}}
}

// trees is every Blink tree builder over the row, rooted ops at rank 0 and
// the highest rank as the conformance matrix runs them.
func (sm stripeMachine) trees() []stripePlan {
	n := len(sm.packs)
	chain := make([]int, n)
	neighbors := make([][]int, n)
	for v := range chain {
		chain[v] = n - 1 - v
		neighbors[v] = []int{(v + 1) % n, (v + n - 1) % n}
	}
	var out []stripePlan
	for _, root := range []int{0, n - 1} {
		one := sm.packs[root : root+1]
		out = append(out,
			sm.ir(fmt.Sprintf("Broadcast/root%d", root), core.IRTreeBroadcast, root, one, nil),
			sm.ir(fmt.Sprintf("Reduce/root%d", root), core.IRTreeReduce, root, one, nil),
			sm.ir(fmt.Sprintf("Gather/root%d", root), core.IRTreeGather, root, one, nil),
			sm.ir(fmt.Sprintf("Scatter/root%d", root), core.IRTreeScatter, root, one, nil))
	}
	return append(out,
		sm.ir("AllReduce", core.IRTreeAllReduce, 0, sm.packs[:1], nil),
		sm.ir("AllToAll", core.IRTreeAllToAll, 0, sm.packs, nil),
		sm.ir("SendRecv", core.IRSendRecvChain, 0, nil, func(ir *core.PlanIR) { ir.Chain = chain }),
		sm.ir("NeighborExchange", core.IRNeighborExchange, 0, nil, func(ir *core.PlanIR) { ir.Neighbors = neighbors }))
}

// rings is the NCCL baseline's data-moving builders over the row's plane.
func (sm stripeMachine) rings() []stripePlan {
	return []stripePlan{
		sm.ir("NCCL/Broadcast/root1", core.IRRingBroadcast, 1, nil, nil),
		sm.ir("NCCL/AllReduce", core.IRRingAllReduce, 0, nil, nil),
	}
}

// stripePlans is the striping property's table: the data conformance
// matrix's fabrics (DGX-1P, DGX-1V, a fragmented DGX-1V allocation, a PCIe
// plane with its hub relay, the DGX-2 switch, a 3+5 and a 1+4 cluster), every
// data-moving builder each one compiles under Blink and NCCL, and the hybrid
// two-plane broadcast. Ring P2P schedules move no data and are not in it.
func stripePlans(t *testing.T) []stripePlan {
	// A negligible peer-access switch gives the hybrid broadcast's PCIe
	// plane a share of a small payload.
	cfg := simgpu.Config{DataMode: true, DisablePeerBase: 1e-9, DisablePeerPerGPU: 1e-9}
	full := []int{0, 1, 2, 3, 4, 5, 6, 7}
	dgx1p := newStripeMachine(t, "dgx1p", topology.DGX1P(), full, core.FabricNVLink, cfg)
	dgx1v := newStripeMachine(t, "dgx1v", topology.DGX1V(), full, core.FabricNVLink, cfg)
	pcie := newStripeMachine(t, "dgx1v-pcie", topology.DGX1V(), full, core.FabricPCIe, cfg)
	frag := newStripeMachine(t, "dgx1v-frag", topology.DGX1V(), []int{1, 4, 5, 6, 7}, core.FabricNVLink, cfg)
	hub := newStripeMachine(t, "dgx1v-0-1-4-pcie", topology.DGX1V(), []int{0, 1, 4}, core.FabricPCIe, cfg)

	var plans []stripePlan
	for _, sm := range []stripeMachine{dgx1p, dgx1v, frag, hub} {
		plans = append(plans, sm.trees()...)
	}
	for _, sm := range []stripeMachine{dgx1p, dgx1v, hub} {
		plans = append(plans, sm.rings()...)
	}
	plans = append(plans, stripePlan{name: "dgx1v/HybridBroadcast", ranks: 8, build: func() (*core.Plan, error) {
		// The default chunk: the split is calibrated on 64 MB probe runs.
		plan, split, err := core.BuildHybridBroadcastPlan(dgx1v.f, dgx1v.packs[0], pcie.f, pcie.packs[0], stripeFloats*4,
			core.PlanOptions{DataMode: true})
		if err == nil && split.PCIeBytes == 0 {
			err = fmt.Errorf("the split gave PCIe nothing: the row covers one plane only")
		}
		return plan, err
	}})

	d2 := topology.DGX2()
	lg := topology.DGX2Logical()
	oneHop, err := core.OneHopTrees(d2, lg)
	if err != nil {
		t.Fatal(err)
	}
	dgx2 := stripeMachine{name: "dgx2", f: simgpu.NewSwitchFabric(d2, lg, topology.DGX2LinksPerGPU, cfg), plane: core.FabricSwitch, packs: oneHop}
	plans = append(plans,
		dgx2.ir("Broadcast/root5", core.IRTreeBroadcast, 5, oneHop[5:6], nil),
		dgx2.ir("AllReduce", core.IRDGX2AllReduce, 0, oneHop, nil),
		dgx2.ir("AllToAll", core.IRTreeAllToAll, 0, oneHop, nil),
		dgx2.ir("NCCL/AllReduce", core.IRRingAllReduce, 0, nil, nil),
		dgx2.ir("NCCL/DBTreeAllReduce", core.IRDBTreeAllReduce, 0, nil, nil))

	return append(plans, clusterStripePlans(t, cfg)...)
}

// clusterStripePlans is the 3+5 DGX-1V cluster's rows — the three-phase
// protocols and the NCCL flat ring — and a 1+4 cluster's AllReduce, whose
// one-GPU server reduces over no tree and seeds its accumulator instead.
func clusterStripePlans(t *testing.T, cfg simgpu.Config) []stripePlan {
	opts := core.PlanOptions{DataMode: true, ChunkBytes: stripeChunk}
	const bytes = stripeFloats * 4
	var plans []stripePlan
	for _, sizes := range [][2]int{{3, 5}, {1, 4}} {
		c, err := topology.NewCluster([]topology.Server{
			{Machine: topology.DGX1V(), Devs: []int{0, 1, 2, 3, 4}[:sizes[0]]},
			{Machine: topology.DGX1V(), Devs: []int{0, 1, 2, 3, 4}[:sizes[1]]},
		}, 100)
		if err != nil {
			t.Fatal(err)
		}
		fabrics := make([]*simgpu.Fabric, len(c.Servers))
		for si, s := range c.Servers {
			fabrics[si] = simgpu.NewFabric(s, s.GPUGraph(), cfg)
		}
		wide := core.NewClusterFabric(c, fabrics, cfg)
		packFor := func(si, root int) (*core.Packing, error) {
			return core.GenerateTrees(c.Servers[si].GPUGraph(), root, core.PackOptions{}, core.MinimizeOptions{})
		}
		row := func(name string, build func() (*core.Plan, error)) stripePlan {
			return stripePlan{name: fmt.Sprintf("cluster/%d+%d/%s", sizes[0], sizes[1], name), ranks: c.TotalGPUs(), build: build}
		}
		plans = append(plans, row("AllReduce", func() (*core.Plan, error) {
			return core.BuildThreePhaseAllReduce(c, fabrics, wide, packFor, bytes, opts)
		}))
		if sizes[0] == 1 {
			continue
		}
		flat, err := ring.NewCrossMachineFabric(c, 100, cfg)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans,
			row("Broadcast/root0", func() (*core.Plan, error) {
				return core.BuildThreePhaseBroadcast(c, fabrics, wide, packFor, 0, bytes, opts)
			}),
			row("Broadcast/root7", func() (*core.Plan, error) {
				return core.BuildThreePhaseBroadcast(c, fabrics, wide, packFor, 7, bytes, opts)
			}),
			row("AllToAll", func() (*core.Plan, error) {
				return core.BuildThreePhaseAllToAll(c, fabrics, wide, packFor, bytes, opts)
			}),
			row("NCCL/AllReduce", func() (*core.Plan, error) { return flat.BuildCrossMachineAllReducePlan(bytes, opts) }),
			row("NCCL/Broadcast/root4", func() (*core.Plan, error) { return flat.BuildCrossMachineBroadcastPlan(4, bytes, opts) }),
		)
	}
	return plans
}

// stage fills an arena with every rank's input: non-integer values, so the
// order a reduction summed in shows in the low bits of its result, in
// buffers whose capacity is their length.
func (sp stripePlan) stage() *simgpu.BufferSet {
	bufs := simgpu.NewBufferSet()
	for v := 0; v < sp.ranks; v++ {
		in := make([]float32, stripeFloats)
		for i := range in {
			in[i] = float32(v+1)*1.1 + float32(i%977)*0.37
		}
		bufs.SetBuffer(v, core.BufData, in)
	}
	return bufs
}

// stripeDiff reports the first difference between two arenas over every
// buffer a schedule of the table can name — payload, accumulator and every
// source's exchange tag, on every rank and relay — read whole without
// growing it.
func stripeDiff(a, b *simgpu.BufferSet) string {
	tags := []int{core.BufData, core.BufAcc}
	for r := 0; r < 16; r++ {
		tags = append(tags, core.ExchangeTag(r))
	}
	whole := func(s *simgpu.BufferSet, v, tag int) []float32 {
		buf := s.Buffer(v, tag, 0)
		return buf[:cap(buf)]
	}
	for v := 0; v < 64; v++ {
		for _, tag := range tags {
			x, y := whole(a, v, tag), whole(b, v, tag)
			if len(x) != len(y) {
				return fmt.Sprintf("device %d tag %d: %d floats, want %d", v, tag, len(x), len(y))
			}
			for i := range x {
				if math.Float32bits(x[i]) != math.Float32bits(y[i]) {
					return fmt.Sprintf("device %d tag %d float %d: %v, want %v", v, tag, i, x[i], y[i])
				}
			}
		}
	}
	return ""
}

// TestStripedReplayIsExact is the property striped replay rests on: every
// Exec closure is index-aligned, so walking the launch order once per float
// window, the windows concurrently, leaves every arena buffer bit-equal to
// the simulator's one serial walk. Each schedule of the table is replayed
// with one stripe; two even ones; three split inside a chunk and at an odd
// float; and seven with empty stripes at both ends and in the middle. `make
// race` runs it at GOMAXPROCS=4.
func TestStripedReplayIsExact(t *testing.T) {
	for _, sp := range stripePlans(t) {
		t.Run(sp.name, func(t *testing.T) {
			ref, err := sp.build()
			if err != nil {
				t.Fatal(err)
			}
			want := sp.stage()
			if _, err := simgpu.Run(ref.Fabric.Links, ref.Ops, want); err != nil {
				t.Fatal(err)
			}
			plan, err := sp.build()
			if err != nil {
				t.Fatal(err)
			}
			fp := plan.Freeze()
			if !fp.HasExec() {
				t.Fatal("not a data-mode schedule")
			}
			span, odd := want.Span(), stripeChunk/4+stripeChunk/8
			for name, cuts := range map[string][]int{
				"1":       {0, math.MaxInt},
				"2-even":  {0, span / 2, span},
				"3-odd":   {0, odd, span/2 | 1, span},
				"7-empty": {0, 0, 5, 5, odd + 3, span - 1, span, span + 1000},
			} {
				got := sp.stage()
				fp.ReplayStripes(got, cuts)
				if d := stripeDiff(got, want); d != "" {
					t.Fatalf("stripes %s %v: %s", name, cuts, d)
				}
			}
		})
	}
}

// TestStripedReplayManifestFirstUse: sixteen goroutines make the first data
// replays of one freshly frozen schedule at once, each in three stripes over
// its own arena, so the stripes of every replay reserve their arena's buffers
// from the one manifest concurrently. Every arena ends bit-equal to the
// simulator's serial run. `make race` runs it at GOMAXPROCS=4.
func TestStripedReplayManifestFirstUse(t *testing.T) {
	for _, sp := range stripePlans(t) {
		t.Run(sp.name, func(t *testing.T) {
			ref, err := sp.build()
			if err != nil {
				t.Fatal(err)
			}
			want := sp.stage()
			if _, err := simgpu.Run(ref.Fabric.Links, ref.Ops, want); err != nil {
				t.Fatal(err)
			}
			plan, err := sp.build()
			if err != nil {
				t.Fatal(err)
			}
			fp, span := plan.Freeze(), want.Span()
			cuts := []int{0, span / 3, span/3*2 | 1, span}
			arenas := make([]*simgpu.BufferSet, 16)
			var wg sync.WaitGroup
			for g := range arenas {
				arenas[g] = sp.stage()
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					fp.ReplayStripes(arenas[g], cuts)
				}(g)
			}
			wg.Wait()
			for g, got := range arenas {
				if d := stripeDiff(got, want); d != "" {
					t.Fatalf("replay %d: %s", g, d)
				}
			}
		})
	}
}
