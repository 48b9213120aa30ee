package collective

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"blink/internal/core"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

// TestGoldenSelectionMatrix pins what the planner selects — the reported
// strategy and the simulated makespan to the last bit, or the error — for
// every (allocation, backend, op, size) cell of the selection space: the
// four plane situations (NVLink for both backends; NVLink for Blink while
// NCCL falls to PCIe; NVLink-disconnected, both on PCIe; switch) crossed
// with both backends, all ten ops, and a payload on each side of
// DBTreeThresholdBytes. The table was captured before plan selection became
// table-driven and must never change as a side effect of a refactor.
func TestGoldenSelectionMatrix(t *testing.T) {
	allocs := []struct {
		name    string
		machine *topology.Topology
		devs    []int
	}{
		{"dgx1v-full", topology.DGX1V(), []int{0, 1, 2, 3, 4, 5, 6, 7}},
		{"dgx1v-014", topology.DGX1V(), []int{0, 1, 4}},
		{"dgx1v-016", topology.DGX1V(), []int{0, 1, 6}},
		{"dgx2", topology.DGX2(), nil},
	}
	ops := []Op{Broadcast, Gather, AllReduce, AllGather, ReduceScatter, Reduce, Scatter, AllToAll, SendRecv, NeighborExchange}
	var got []string
	for _, a := range allocs {
		e, err := NewEngine(a.machine, a.devs, simgpu.Config{})
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		n := e.Topo().NumGPUs
		opts := Options{Chain: []int{0, 1, 2}, Neighbors: make([][]int, n)}
		for v := range opts.Neighbors {
			opts.Neighbors[v] = []int{(v + 1) % n}
		}
		for _, b := range []Backend{Blink, NCCL} {
			for _, op := range ops {
				for _, bytes := range []int64{256 << 10, 16 << 20} {
					cell := fmt.Sprintf("%s %v %v %d: ", a.name, b, op, bytes)
					if r, err := e.Run(b, op, 0, bytes, opts); err != nil {
						cell += "error " + err.Error()
					} else {
						checkBound(t, e, b, op, bytes, opts, r)
						cell += fmt.Sprintf("%s %x", r.Strategy, math.Float64bits(r.Seconds))
					}
					got = append(got, cell)
				}
			}
		}
	}
	if len(got) != len(goldenSelection) {
		t.Errorf("matrix has %d cells, golden table %d", len(got), len(goldenSelection))
	}
	for i, cell := range got {
		if i >= len(goldenSelection) || cell != goldenSelection[i] {
			t.Errorf("cell %d:\n got  %q", i, cell)
			if i < len(goldenSelection) {
				t.Errorf(" want %q", goldenSelection[i])
			}
		}
	}
	if t.Failed() {
		t.Logf("full matrix as a literal:\n\t%s", "\""+strings.Join(got, "\",\n\t\"")+"\",")
	}
}

// TestChunkSweep holds Blink's auto chunk — the candidate table of
// core.PlanIR.tuned — against the rule it retired, a sixteenth of the
// payload at most 2 MiB (now core.ResolveChunk's, run here as an override
// on the directed packing alone), over the paper's 46 DGX-1V and 14 DGX-1P
// allocations × {Broadcast, AllReduce} × 256 KB–64 MB. No cell is more than
// 2% slower than under the rule, and the geomean speed-up over NCCL rises
// over it. No Blink or NCCL cell beats its plan's lower bound. Since an
// AllReduce races the undirected packing too (core.Undirected), each
// packing's trees hung from their centers, and last the shallow packing (a
// least-height tree per rank, centered), at most 5 of the 600 cells trail
// NCCL, down from 48, and the AllReduce geomean is above 2.65 (2.6569; the
// directed packing alone reached 2.1137); at 64 MB every AllReduce
// reaches at least 0.65 of its bound (0.69–0.96). An auto-chunk Broadcast
// may also take the hybrid split, which the rule's override never does: 33
// of the 60 at 64 MB do, 0.2–16% faster than their NVLink trees, and no
// smaller one does.
func TestChunkSweep(t *testing.T) {
	if core.ResolveChunk(1<<30, 0) != 2<<20 || core.ResolveChunk(1024, 0) != 64 || core.ResolveChunk(1<<30, 6) != 8 {
		t.Fatal("ResolveChunk: want 2 MiB for 1 GB, 64 B for 1 KB, and overrides in whole float32s")
	}
	sizes := []int64{256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20}
	var model, rule, cells float64 // summed log speed-ups over NCCL
	allReduce := make([]float64, len(sizes))
	below := 0
	for _, m := range []struct {
		machine *topology.Topology
		allocs  [][]int
	}{{topology.DGX1V(), topology.Fig15AllocationsDGX1V}, {topology.DGX1P(), topology.Fig16AllocationsDGX1P}} {
		for _, devs := range m.allocs {
			e := mustEngine(t, m.machine, devs, simgpu.Config{})
			for _, op := range []Op{Broadcast, AllReduce} {
				for i, bytes := range sizes {
					run := func(b Backend, chunk int64) Result {
						r := mustRun(t, e, b, op, bytes, Options{ChunkBytes: chunk})
						bound := checkBound(t, e, b, op, bytes, Options{ChunkBytes: chunk}, r)
						if op == AllReduce && b == Blink && chunk == 0 && bytes == 64<<20 && bound < 0.65*r.Seconds {
							t.Errorf("%v %v %d: %.4g s, under 0.65 of its bound %.4g s", devs, op, bytes, r.Seconds, bound)
						}
						return r
					}
					auto, old, nccl := run(Blink, 0).Seconds, run(Blink, core.ResolveChunk(bytes, 0)).Seconds, run(NCCL, 0).Seconds
					if auto > old || nccl < auto {
						t.Logf("%s %v %v %d: %.3fx NCCL, %.3fx under the rule", m.machine.Name, devs, op, bytes, nccl/auto, nccl/old)
					}
					if auto > old*1.02 {
						t.Errorf("%v %v %d: %.4g s, more than 2%% slower than the rule's %.4g s", devs, op, bytes, auto, old)
					}
					if nccl < auto {
						below++
					}
					if op == AllReduce {
						allReduce[i] += math.Log(nccl / auto)
					}
					model, rule, cells = model+math.Log(nccl/auto), rule+math.Log(nccl/old), cells+1
				}
			}
		}
	}
	sum := 0.0
	for i, l := range allReduce {
		sum += l
		t.Logf("AllReduce geomean at %d bytes: %.4f", sizes[i], math.Exp(l/cells*2*float64(len(sizes))))
	}
	geomean := math.Exp(sum / cells * 2)
	t.Logf("geomean Blink/NCCL over %.0f cells: %.4f, %.4f under the rule; AllReduce %.4f; %d cells below NCCL", cells, math.Exp(model/cells), math.Exp(rule/cells), geomean, below)
	if model <= rule {
		t.Errorf("the chunk model does not raise the geomean speed-up over the rule")
	}
	if below > 5 || geomean <= 2.65 {
		t.Errorf("%d cells below NCCL (want at most 5), AllReduce geomean %.4f (want above 2.65)", below, geomean)
	}
}

// checkBound fails a cell that beats physics, its simulated seconds below
// the lower bound of the plan it ran (core.PlanIR.LowerBound), and returns
// that bound.
func checkBound(t *testing.T, e *Engine, b Backend, op Op, bytes int64, opts Options, r Result) float64 {
	t.Helper()
	cp, ok := e.cache.Get(planKeyOf(e, &request{b: b, op: op, bytes: bytes, opts: opts}))
	if !ok {
		t.Fatalf("%v %v of %d bytes left no plan in the cache", b, op, bytes)
	}
	bound := cp.Plan.IR().LowerBound(cp.Plan.Fabric())
	if r.Seconds < bound*(1-1e-12) {
		t.Errorf("%v %v of %d bytes on %v in %.4g s beats its bound %.4g s", b, op, bytes, e.AllocatedDevs(), r.Seconds, bound)
	}
	return bound
}

// goldenSelection is the literal selection matrix, one cell per line in
// iteration order: "alloc backend op bytes: strategy seconds-bits".
var goldenSelection = []string{
	"dgx1v-full Blink Broadcast 262144: trees 3f0de79d47c46a10",
	"dgx1v-full Blink Broadcast 16777216: trees 3f33c47ab26be964",
	"dgx1v-full Blink Gather 262144: trees 3f09da58c8729dc4",
	"dgx1v-full Blink Gather 16777216: trees 3f35087acdd18498",
	"dgx1v-full Blink AllReduce 262144: trees 3f088046ab4a982b",
	"dgx1v-full Blink AllReduce 16777216: trees 3f38f195df1d839e",
	"dgx1v-full Blink AllGather 262144: trees+allgather 3f2187611f2d5b59",
	"dgx1v-full Blink AllGather 16777216: trees+allgather 3f4800a673b7c235",
	"dgx1v-full Blink ReduceScatter 262144: trees+reducescatter 3f15ca7a49117b73",
	"dgx1v-full Blink ReduceScatter 16777216: trees+reducescatter 3f3a9c9b8e26bdf3",
	"dgx1v-full Blink Reduce 262144: trees+reduce 3f134b37e418df41",
	"dgx1v-full Blink Reduce 16777216: trees+reduce 3f345bf5a56f6c63",
	"dgx1v-full Blink Scatter 262144: trees+scatter 3f10dee59b818d55",
	"dgx1v-full Blink Scatter 16777216: trees+scatter 3f30267e43fdb0c7",
	"dgx1v-full Blink AllToAll 262144: trees+alltoall 3f19e3fec4150327",
	"dgx1v-full Blink AllToAll 16777216: trees+alltoall 3f418c7e4647ea78",
	"dgx1v-full Blink SendRecv 262144: trees+sendrecv 3f22440a289c195a",
	"dgx1v-full Blink SendRecv 16777216: trees+sendrecv 3f4d0b2422b36989",
	"dgx1v-full Blink NeighborExchange 262144: trees+neighbor 3f2183249571f97c",
	"dgx1v-full Blink NeighborExchange 16777216: trees+neighbor 3f4c0b546eee9f70",
	"dgx1v-full NCCL Broadcast 262144: rings 3f15a7bbd6d2f9aa",
	"dgx1v-full NCCL Broadcast 16777216: rings 3f3ea1f28b1e98fd",
	"dgx1v-full NCCL Gather 262144: rings 3f15a7bbd6d2f9aa",
	"dgx1v-full NCCL Gather 16777216: rings 3f3ea1f28b1e98fd",
	"dgx1v-full NCCL AllReduce 262144: rings 3f21abe96896dad6",
	"dgx1v-full NCCL AllReduce 16777216: rings 3f3ea1d673ed7c9d",
	"dgx1v-full NCCL AllGather 262144: rings 3f21abe96896dad6",
	"dgx1v-full NCCL AllGather 16777216: rings 3f3ea1d673ed7c9d",
	"dgx1v-full NCCL ReduceScatter 262144: rings 3f21abe96896dad6",
	"dgx1v-full NCCL ReduceScatter 16777216: rings 3f3ea1d673ed7c9d",
	"dgx1v-full NCCL Reduce 262144: rings 3f21abe96896dad6",
	"dgx1v-full NCCL Reduce 16777216: rings 3f3ea1d673ed7c9d",
	"dgx1v-full NCCL Scatter 262144: rings 3f15a7bbd6d2f9aa",
	"dgx1v-full NCCL Scatter 16777216: rings 3f3ea1f28b1e98fd",
	"dgx1v-full NCCL AllToAll 262144: rings 3f148da41bbc3f4f",
	"dgx1v-full NCCL AllToAll 16777216: rings 3f49bbeed60d927b",
	"dgx1v-full NCCL SendRecv 262144: rings 3f28a28cb31662ca",
	"dgx1v-full NCCL SendRecv 16777216: rings 3f5306cc52fc52ca",
	"dgx1v-full NCCL NeighborExchange 262144: rings 3f278ec77e4675e2",
	"dgx1v-full NCCL NeighborExchange 16777216: rings 3f5ca0101268bcd1",
	"dgx1v-014 Blink Broadcast 262144: trees 3ef3eb9d45f7453c",
	"dgx1v-014 Blink Broadcast 16777216: trees 3f485b9c85dea5ff",
	"dgx1v-014 Blink Gather 262144: trees 3f099a2e6ab6a29a",
	"dgx1v-014 Blink Gather 16777216: trees 3f33061adfcb718c",
	"dgx1v-014 Blink AllReduce 262144: trees 3f0668d47bc2b7b2",
	"dgx1v-014 Blink AllReduce 16777216: trees 3f4cc38e1a967809",
	"dgx1v-014 Blink AllGather 262144: trees+allgather 3f22b86c8f8de87a",
	"dgx1v-014 Blink AllGather 16777216: trees+allgather 3f4e1fd828fd3358",
	"dgx1v-014 Blink ReduceScatter 262144: trees+reducescatter 3f21a4a75abdfb92",
	"dgx1v-014 Blink ReduceScatter 16777216: trees+reducescatter 3f4c5f22e20e4960",
	"dgx1v-014 Blink Reduce 262144: trees+reduce 3ef8e60bb18e2a28",
	"dgx1v-014 Blink Reduce 16777216: trees+reduce 3f4c1f06f43947a6",
	"dgx1v-014 Blink Scatter 262144: trees+scatter 3f16a1ac4d85ea7c",
	"dgx1v-014 Blink Scatter 16777216: trees+scatter 3f357b4025d617d8",
	"dgx1v-014 Blink AllToAll 262144: trees+alltoall 3f19a2377aea01d1",
	"dgx1v-014 Blink AllToAll 16777216: trees+alltoall 3f434667561bafe8",
	"dgx1v-014 Blink SendRecv 262144: trees+sendrecv 3f2357cf5d6c0641",
	"dgx1v-014 Blink SendRecv 16777216: trees+sendrecv 3f4ecbd969a25380",
	"dgx1v-014 Blink NeighborExchange 262144: trees+neighbor 3f22440a289c195a",
	"dgx1v-014 Blink NeighborExchange 16777216: trees+neighbor 3f4d0b2422b36989",
	"dgx1v-014 NCCL Broadcast 262144: pcie-ring 3f27ac6378c15e0d",
	"dgx1v-014 NCCL Broadcast 16777216: pcie-ring 3f6ce42e4941ed33",
	"dgx1v-014 NCCL Gather 262144: pcie-ring 3f27ac6378c15e0d",
	"dgx1v-014 NCCL Gather 16777216: pcie-ring 3f6ce42e4941ed33",
	"dgx1v-014 NCCL AllReduce 262144: pcie-ring 3f2a3ac1d9175d74",
	"dgx1v-014 NCCL AllReduce 16777216: pcie-ring 3f720492ecf17afd",
	"dgx1v-014 NCCL AllGather 262144: pcie-ring 3f2a3ac1d9175d74",
	"dgx1v-014 NCCL AllGather 16777216: pcie-ring 3f720492ecf17afd",
	"dgx1v-014 NCCL ReduceScatter 262144: pcie-ring 3f2a3ac1d9175d74",
	"dgx1v-014 NCCL ReduceScatter 16777216: pcie-ring 3f720492ecf17afd",
	"dgx1v-014 NCCL Reduce 262144: pcie-ring 3f2a3ac1d9175d74",
	"dgx1v-014 NCCL Reduce 16777216: pcie-ring 3f720492ecf17afd",
	"dgx1v-014 NCCL Scatter 262144: pcie-ring 3f27ac6378c15e0d",
	"dgx1v-014 NCCL Scatter 16777216: pcie-ring 3f6ce42e4941ed33",
	"dgx1v-014 NCCL AllToAll 262144: pcie-ring 3f17edd22bf8c9f5",
	"dgx1v-014 NCCL AllToAll 16777216: pcie-ring 3f6a873d8d1dfb5d",
	"dgx1v-014 NCCL SendRecv 262144: pcie-ring 3f27ac6378c15e0d",
	"dgx1v-014 NCCL SendRecv 16777216: pcie-ring 3f6ce42e4941ed33",
	"dgx1v-014 NCCL NeighborExchange 262144: pcie-ring 3f2647e5265ba3d0",
	"dgx1v-014 NCCL NeighborExchange 16777216: pcie-ring 3f6b311c812efd5d",
	"dgx1v-016 Blink Broadcast 262144: pcie-trees 3f198e0a0d9334d7",
	"dgx1v-016 Blink Broadcast 16777216: pcie-trees 3f6cd76d72965ecd",
	"dgx1v-016 Blink Gather 262144: pcie-trees 3f17515604e626b9",
	"dgx1v-016 Blink Gather 16777216: pcie-trees 3f638a68b2449cd0",
	"dgx1v-016 Blink AllReduce 262144: pcie-trees 3f21c5760536cb27",
	"dgx1v-016 Blink AllReduce 16777216: pcie-trees 3f72dd39a47e12ba",
	"dgx1v-016 Blink AllGather 262144: pcie-trees+allgather 3f30b588957e8a62",
	"dgx1v-016 Blink AllGather 16777216: pcie-trees+allgather 3f7d4a5cba7a05e1",
	"dgx1v-016 Blink ReduceScatter 262144: pcie-trees+reducescatter 3f2ea2148631a04b",
	"dgx1v-016 Blink ReduceScatter 16777216: pcie-trees+reducescatter 3f7b974af267160b",
	"dgx1v-016 Blink Reduce 262144: pcie-trees+reduce 3f23d65dd4163f9f",
	"dgx1v-016 Blink Reduce 16777216: pcie-trees+reduce 3f7b8cd9a816f3ba",
	"dgx1v-016 Blink Scatter 262144: pcie-trees+scatter 3f204d0f7f6ca9d9",
	"dgx1v-016 Blink Scatter 16777216: pcie-trees+scatter 3f62c17db82128c2",
	"dgx1v-016 Blink AllToAll 262144: pcie-trees+alltoall 3f20a25ab48b2688",
	"dgx1v-016 Blink AllToAll 16777216: pcie-trees+alltoall 3f63d2c2be29ad61",
	"dgx1v-016 Blink SendRecv 262144: pcie-trees+sendrecv 3f2a75601d8cd287",
	"dgx1v-016 Blink SendRecv 16777216: pcie-trees+sendrecv 3f702528ecb3e66f",
	"dgx1v-016 Blink NeighborExchange 262144: pcie-trees+neighbor 3f27ac6378c15e0d",
	"dgx1v-016 Blink NeighborExchange 16777216: pcie-trees+neighbor 3f6ce42e4941ed33",
	"dgx1v-016 NCCL Broadcast 262144: pcie-ring 3f27ac6378c15e0d",
	"dgx1v-016 NCCL Broadcast 16777216: pcie-ring 3f6ce42e4941ed33",
	"dgx1v-016 NCCL Gather 262144: pcie-ring 3f27ac6378c15e0d",
	"dgx1v-016 NCCL Gather 16777216: pcie-ring 3f6ce42e4941ed33",
	"dgx1v-016 NCCL AllReduce 262144: pcie-ring 3f2a3ac1d9175d74",
	"dgx1v-016 NCCL AllReduce 16777216: pcie-ring 3f720492ecf17afd",
	"dgx1v-016 NCCL AllGather 262144: pcie-ring 3f2a3ac1d9175d74",
	"dgx1v-016 NCCL AllGather 16777216: pcie-ring 3f720492ecf17afd",
	"dgx1v-016 NCCL ReduceScatter 262144: pcie-ring 3f2a3ac1d9175d74",
	"dgx1v-016 NCCL ReduceScatter 16777216: pcie-ring 3f720492ecf17afd",
	"dgx1v-016 NCCL Reduce 262144: pcie-ring 3f2a3ac1d9175d74",
	"dgx1v-016 NCCL Reduce 16777216: pcie-ring 3f720492ecf17afd",
	"dgx1v-016 NCCL Scatter 262144: pcie-ring 3f27ac6378c15e0d",
	"dgx1v-016 NCCL Scatter 16777216: pcie-ring 3f6ce42e4941ed33",
	"dgx1v-016 NCCL AllToAll 262144: pcie-ring 3f17edd22bf8c9f5",
	"dgx1v-016 NCCL AllToAll 16777216: pcie-ring 3f6a873d8d1dfb5d",
	"dgx1v-016 NCCL SendRecv 262144: pcie-ring 3f27ac6378c15e0d",
	"dgx1v-016 NCCL SendRecv 16777216: pcie-ring 3f6ce42e4941ed33",
	"dgx1v-016 NCCL NeighborExchange 262144: pcie-ring 3f2647e5265ba3d0",
	"dgx1v-016 NCCL NeighborExchange 16777216: pcie-ring 3f6b311c812efd5d",
	"dgx2 Blink Broadcast 262144: one-hop 3f39f9e0cf519535",
	"dgx2 Blink Broadcast 16777216: one-hop 3f6224b6b049fa9c",
	"dgx2 Blink Gather 262144: one-hop 3f00bbba40380e89",
	"dgx2 Blink Gather 16777216: one-hop 3f2401c3a282a0dc",
	"dgx2 Blink AllReduce 262144: one-hop 3f17add6c75ddf08",
	"dgx2 Blink AllReduce 16777216: one-hop 3f400632c3d692d1",
	"dgx2 Blink AllGather 262144: one-hop 3f17add6c75ddf08",
	"dgx2 Blink AllGather 16777216: one-hop 3f400632c3d692d1",
	"dgx2 Blink ReduceScatter 262144: one-hop 3f17add6c75ddf08",
	"dgx2 Blink ReduceScatter 16777216: one-hop 3f400632c3d692d1",
	"dgx2 Blink Reduce 262144: one-hop 3f17add6c75ddf08",
	"dgx2 Blink Reduce 16777216: one-hop 3f400632c3d692d1",
	"dgx2 Blink Scatter 262144: one-hop+scatter 3f3833c47a5a02b2",
	"dgx2 Blink Scatter 16777216: one-hop+scatter 3f3f9e98bb73761f",
	"dgx2 Blink AllToAll 262144: one-hop+alltoall 3f3833e6a301677d",
	"dgx2 Blink AllToAll 16777216: one-hop+alltoall 3f3fa72aeedd754a",
	"dgx2 Blink SendRecv 262144: one-hop+sendrecv 3f216735566f7d23",
	"dgx2 Blink SendRecv 16777216: one-hop+sendrecv 3f3218c92e2cfbeb",
	"dgx2 Blink NeighborExchange 262144: one-hop+neighbor 3f20312e5c564670",
	"dgx2 Blink NeighborExchange 16777216: one-hop+neighbor 3f3080985ff916be",
	"dgx2 NCCL Broadcast 262144: ring 3f3092c804dba21e",
	"dgx2 NCCL Broadcast 16777216: ring 3f4369a1d367cf9d",
	"dgx2 NCCL Gather 262144: ring 3f3092c804dba21e",
	"dgx2 NCCL Gather 16777216: ring 3f4369a1d367cf9d",
	"dgx2 NCCL AllReduce 262144: db-tree 3f2433a1ede5d314",
	"dgx2 NCCL AllReduce 16777216: ring 3f4b1c26d647e6e7",
	"dgx2 NCCL AllGather 262144: db-tree 3f2433a1ede5d314",
	"dgx2 NCCL AllGather 16777216: ring 3f4b1c26d647e6e7",
	"dgx2 NCCL ReduceScatter 262144: db-tree 3f2433a1ede5d314",
	"dgx2 NCCL ReduceScatter 16777216: ring 3f4b1c26d647e6e7",
	"dgx2 NCCL Reduce 262144: db-tree 3f2433a1ede5d314",
	"dgx2 NCCL Reduce 16777216: ring 3f4b1c26d647e6e7",
	"dgx2 NCCL Scatter 262144: ring 3f3092c804dba21e",
	"dgx2 NCCL Scatter 16777216: ring 3f4369a1d367cf9d",
	"dgx2 NCCL AllToAll 262144: ring 3f2d589911faf171",
	"dgx2 NCCL AllToAll 16777216: ring 3f529d4a20f9932e",
	"dgx2 NCCL SendRecv 262144: ring 3f216735566f7d23",
	"dgx2 NCCL SendRecv 16777216: ring 3f3218c92e2cfbeb",
	"dgx2 NCCL NeighborExchange 262144: ring 3f20312e5c564670",
	"dgx2 NCCL NeighborExchange 16777216: ring 3f3080985ff916be",
}
