package collective

import (
	"math"
	"math/rand"
	"testing"

	"blink/internal/core"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

// TestBaselineDataEveryPlane moves real data through every (baseline IR
// kind, plane) pair the NCCL backend can select: the NVLink rings of a full
// DGX-1V, the PCIe fallback ring of the ringless {0,1,4} allocation, and on
// the DGX-2 the double binary trees (below DBTreeThresholdBytes) and the
// switch ring (above it). Since the plane is PlanIR.Fabric rather than a
// kind of its own, each row checks the compiled IR names the expected kind
// and plane, that Broadcast and AllReduce are elementwise-exact against the
// sequential reference, and that the plan survives EncodePlan → DecodePlan:
// the decoded plan replayed into a fresh arena leaves equal bytes and
// bit-equal simulated seconds.
func TestBaselineDataEveryPlane(t *testing.T) {
	full := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, row := range []struct {
		name     string
		machine  *topology.Topology
		devs     []int
		bytes    int64
		plane    core.FabricSel
		reduce   core.IRKind
		strategy string
	}{
		{"dgx1v-full", topology.DGX1V(), full, 1 << 20, core.FabricNVLink, core.IRRingAllReduce, "rings"},
		{"dgx1v-0-1-4", topology.DGX1V(), []int{0, 1, 4}, 1 << 20, core.FabricPCIe, core.IRRingAllReduce, "pcie-ring"},
		{"dgx2-256KB", topology.DGX2(), nil, 256 << 10, core.FabricSwitch, core.IRDBTreeAllReduce, "db-tree"},
		{"dgx2-4MB", topology.DGX2(), nil, 4 << 20, core.FabricSwitch, core.IRRingAllReduce, "ring"},
	} {
		e, err := NewEngine(row.machine, row.devs, simgpu.Config{DataMode: true})
		if err != nil {
			t.Fatal(err)
		}
		st := e.st.Load()
		ranks, n := st.topo.NumGPUs, int(row.bytes/4)
		rng := rand.New(rand.NewSource(11))
		inputs := make([][]float32, ranks)
		sum := make([]float32, n)
		for r := range inputs {
			inputs[r] = make([]float32, n)
			for i := range inputs[r] {
				inputs[r][i] = float32(rng.Intn(64)) // integers sum exactly in any order
				sum[i] += inputs[r][i]
			}
		}
		const root = 1
		for _, c := range []struct {
			op       Op
			kind     core.IRKind
			strategy string
			tag      int
			want     []float32
		}{
			{Broadcast, core.IRRingBroadcast, planes[row.plane].ring, core.BufData, inputs[root]},
			{AllReduce, row.reduce, row.strategy, core.BufAcc, sum},
		} {
			stage := func() *simgpu.BufferSet {
				bs := simgpu.NewBufferSet()
				for r, in := range inputs {
					if c.op == AllReduce || r == root {
						bs.SetBuffer(r, core.BufData, append([]float32(nil), in...))
					}
				}
				return bs
			}
			check := func(how string, bs *simgpu.BufferSet) {
				t.Helper()
				for r := 0; r < ranks; r++ {
					got := bs.Buffer(r, c.tag, n)
					for i, w := range c.want {
						if got[i] != w {
							t.Fatalf("%s %v %s: rank %d float %d = %v, want %v", row.name, c.op, how, r, i, got[i], w)
						}
					}
				}
			}
			rq := request{b: NCCL, op: c.op, root: root, bytes: row.bytes, opts: Options{DataMode: true, Buffers: stage()}}
			res, err := e.Run(rq.b, rq.op, rq.root, rq.bytes, rq.opts)
			if err != nil {
				t.Fatalf("%s %v: %v", row.name, c.op, err)
			}
			check("compiled", rq.opts.Buffers)
			cp, hit, err := e.lookupOrCompile(st, rq)
			if err != nil || !hit {
				t.Fatalf("%s %v: second lookup hit=%v err=%v", row.name, c.op, hit, err)
			}
			if ir := cp.Plan.IR(); ir.Kind != c.kind || ir.Fabric != row.plane || res.Strategy != c.strategy {
				t.Fatalf("%s %v: compiled %v on %v as %q, want %v on %v as %q",
					row.name, c.op, ir.Kind, ir.Fabric, res.Strategy, c.kind, row.plane, c.strategy)
			}
			blob, err := core.EncodePlan(cp.Plan)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := core.DecodePlan(blob, st.fabricFor)
			if err != nil {
				t.Fatalf("%s %v: decode: %v", row.name, c.op, err)
			}
			fresh := stage()
			r, err := dec.ReplayData(fresh)
			if err != nil {
				t.Fatal(err)
			}
			check("decoded", fresh)
			if math.Float64bits(r.Makespan) != math.Float64bits(res.Seconds) {
				t.Fatalf("%s %v: decoded plan replays %v s, compiled %v s", row.name, c.op, r.Makespan, res.Seconds)
			}
		}
	}
}
