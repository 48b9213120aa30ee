package core

import (
	"math/rand"
	"slices"
	"testing"

	"blink/internal/simgpu"
	"blink/internal/topology"
)

func fabricFor(t testing.TB, topo *topology.Topology, devs []int, data bool) (*simgpu.Fabric, *Packing) {
	t.Helper()
	ind, err := topo.Induce(devs)
	if err != nil {
		t.Fatal(err)
	}
	g := ind.GPUGraph()
	p, err := GenerateTrees(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := simgpu.NewFabric(ind, g, simgpu.Config{DataMode: data})
	return f, p
}

// gbs returns a check that fails the test on a build error or a failed run
// and otherwise returns the plan's simulated throughput in GB/s, as in
// gbs(t)(BuildBroadcastPlan(...)).
func gbs(t *testing.T) func(*Plan, error) float64 {
	return func(plan *Plan, err error) float64 {
		t.Helper()
		var tp float64
		if err == nil {
			tp, err = plan.ThroughputGBs()
		}
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}
}

func TestBroadcastPlanThroughput(t *testing.T) {
	// Full DGX-1V: rate 6 trees => ~6 x 22.8 GB/s aggregate broadcast.
	f, p := fabricFor(t, topology.DGX1V(), []int{0, 1, 2, 3, 4, 5, 6, 7}, false)
	tp := gbs(t)(BuildBroadcastPlan(f, p, 500<<20, PlanOptions{ChunkBytes: 2 << 20, NoStreamReuse: true}))
	if tp < 100 || tp > 140 {
		t.Fatalf("8-GPU DGX-1V broadcast throughput = %.1f GB/s, want ~105-137 (paper Fig 15 ~120)", tp)
	}
}

func TestBroadcastPlanDataCorrectness(t *testing.T) {
	f, p := fabricFor(t, topology.DGX1V(), []int{1, 4, 5, 6}, true)
	const bytes = 1 << 16
	n := bytes / 4
	src := make([]float32, n)
	rng := rand.New(rand.NewSource(3))
	for i := range src {
		src[i] = rng.Float32()
	}
	bufs := simgpu.NewBufferSet()
	bufs.SetBuffer(0, BufData, append([]float32(nil), src...))
	plan, err := BuildBroadcastPlan(f, p, bytes, PlanOptions{ChunkBytes: 4096, DataMode: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Freeze().ReplayData(bufs); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < f.Graph.N; v++ {
		got := bufs.Buffer(v, BufData, n)
		for i := range src {
			if got[i] != src[i] {
				t.Fatalf("device %d float %d = %v, want %v", v, i, got[i], src[i])
			}
		}
	}
}

func TestAllReducePlanDataCorrectness(t *testing.T) {
	for _, devs := range [][]int{{0, 1, 2, 3, 4, 5, 6, 7}, {1, 4, 5, 6}, {5, 6, 7}, {2, 3, 6, 7}} {
		f, p := fabricFor(t, topology.DGX1V(), devs, true)
		plan, err := BuildAllReducePlan(f, p, 1<<14, PlanOptions{ChunkBytes: 2048, DataMode: true})
		if err != nil {
			t.Fatalf("%v: %v", devs, err)
		}
		checkAllReduceData(t, plan, f.Graph.N, 1<<12, int64(len(devs)))
	}
}

// checkAllReduceData replays a data-mode AllReduce plan of n floats on
// integer inputs, so every summation order is exact, and fails unless every
// one of the ranks ends with their sum.
func checkAllReduceData(t *testing.T, plan *Plan, ranks, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	bufs, want := simgpu.NewBufferSet(), make([]float32, n)
	for v := 0; v < ranks; v++ {
		in := make([]float32, n)
		for i := range in {
			in[i] = float32(rng.Intn(64))
			want[i] += in[i]
		}
		bufs.SetBuffer(v, BufData, in)
	}
	if _, err := plan.Freeze().ReplayData(bufs); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < ranks; v++ {
		if got := bufs.Buffer(v, BufAcc, n); !slices.Equal(got, want) {
			t.Fatalf("rank %d of %d ends with a result that is not the sum of the inputs", v, ranks)
		}
	}
}

func TestAllReduceRoughlyHalfBroadcast(t *testing.T) {
	// Paper §5.2.2: AllReduce achieves about half the broadcast throughput
	// because every chunk crosses the trees twice.
	f, p := fabricFor(t, topology.DGX1V(), []int{0, 1, 2, 3, 4, 5, 6, 7}, false)
	bcTp := gbs(t)(BuildBroadcastPlan(f, p, 500<<20, PlanOptions{}))
	arTp := gbs(t)(BuildAllReducePlan(f, p, 500<<20, PlanOptions{}))
	ratio := arTp / bcTp
	if ratio < 0.4 || ratio > 0.65 {
		t.Fatalf("allreduce/broadcast ratio = %.2f (ar=%.1f bc=%.1f), want ~0.5", ratio, arTp, bcTp)
	}
}

func TestStreamReuseImprovesOrMatches(t *testing.T) {
	f, p := fabricFor(t, topology.DGX1V(), []int{0, 1, 2, 3, 4, 5, 6, 7}, false)
	with, err := BuildBroadcastPlan(f, p, 100<<20, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := BuildBroadcastPlan(f, p, 100<<20, PlanOptions{NoStreamReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if with.Streams > without.Streams {
		t.Fatalf("stream reuse increased stream count: %d > %d", with.Streams, without.Streams)
	}
	wres, err := with.Execute()
	if err != nil {
		t.Fatal(err)
	}
	wores, err := without.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if wres.Makespan > wores.Makespan*1.05 {
		t.Fatalf("stream reuse slower: %.6f vs %.6f", wres.Makespan, wores.Makespan)
	}
}

func TestChunkingReducesLatency(t *testing.T) {
	// Fig 11: chunking shortens multi-hop pipelines.
	f, p := fabricFor(t, topology.DGX1V(), []int{0, 1, 2, 3}, false)
	big, err := BuildBroadcastPlan(f, p, 64<<20, PlanOptions{ChunkBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	small, err := BuildBroadcastPlan(f, p, 64<<20, PlanOptions{ChunkBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	bigRes, err := big.Execute()
	if err != nil {
		t.Fatal(err)
	}
	smallRes, err := small.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if smallRes.Makespan >= bigRes.Makespan {
		t.Fatalf("chunking did not help: %.6f >= %.6f", smallRes.Makespan, bigRes.Makespan)
	}
}

func TestGatherPlan(t *testing.T) {
	f, p := fabricFor(t, topology.DGX1V(), []int{0, 1, 2, 3, 4, 5, 6, 7}, false)
	tp := gbs(t)(BuildGatherPlan(f, p, 500<<20, PlanOptions{}))
	// Gather should be in the same regime as Broadcast (paper: "Gather is
	// the inverse of Broadcast").
	if tp < 60 || tp > 160 {
		t.Fatalf("gather throughput = %.1f GB/s out of range", tp)
	}
}

func TestReducePlanRootOps(t *testing.T) {
	f, p := fabricFor(t, topology.DGX1V(), []int{5, 6, 7}, false)
	plan, rootOps, err := BuildReducePlan(f, p, 16<<20, PlanOptions{ChunkBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(rootOps) != len(p.Trees) {
		t.Fatalf("rootOps trees = %d, want %d", len(rootOps), len(p.Trees))
	}
	for ti := range rootOps {
		for k := range rootOps[ti] {
			if len(rootOps[ti][k]) == 0 {
				t.Fatalf("tree %d chunk %d has no root reduce ops", ti, k)
			}
		}
	}
	if _, err := plan.Execute(); err != nil {
		t.Fatal(err)
	}
}

func TestPlanPayloadTooSmall(t *testing.T) {
	f, p := fabricFor(t, topology.DGX1V(), []int{5, 6, 7}, false)
	if _, err := BuildBroadcastPlan(f, p, 2, PlanOptions{}); err == nil {
		t.Fatal("sub-float payload accepted")
	}
	if _, err := BuildGatherPlan(f, p, 4, PlanOptions{}); err == nil {
		t.Fatal("gather payload smaller than device count accepted")
	}
}

func TestOneHopAllReduceDGX2(t *testing.T) {
	// DGX-2 one-hop AllReduce: every GPU roots 1/16 of the data.
	_, _, packs, f, err := NewDGX2Runtime(simgpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tp := gbs(t)(BuildDGX2AllReducePlan(f, packs, 256<<20, PlanOptions{}))
	if tp < 45 || tp > 80 {
		t.Fatalf("DGX-2 one-hop AllReduce throughput = %.1f GB/s, want ~50-75", tp)
	}
}

func TestDGX2AllReduceDataCorrectness(t *testing.T) {
	_, lg, packs, f, err := NewDGX2Runtime(simgpu.Config{DataMode: true})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildDGX2AllReducePlan(f, packs, 16<<10, PlanOptions{ChunkBytes: 1024, DataMode: true})
	if err != nil {
		t.Fatal(err)
	}
	checkAllReduceData(t, plan, lg.N, 4<<10, 5)
}

func TestSplitRegionsRemainderToHeaviest(t *testing.T) {
	// Rounding remainder must land on the heaviest tree, never on whichever
	// tree happens to be positionally last — a trailing zero-weight tree has
	// no capacity and must receive no payload.
	trees := []Tree{{Weight: 3}, {Weight: 1}, {Weight: 0}}
	const total = 1003 // floors: 752 + 250 + 0, remainder 1
	regions := splitRegions(trees, 0, total, 4<<20)
	if regions[2].n != 0 {
		t.Fatalf("zero-weight trailing tree assigned %d floats", regions[2].n)
	}
	if regions[0].n != 753 || regions[1].n != 250 {
		t.Fatalf("regions = %d/%d/%d, want 753/250/0 (remainder to heaviest)",
			regions[0].n, regions[1].n, regions[2].n)
	}
	// Regions stay contiguous and exactly cover [base, base+total).
	off, sum := 0, 0
	for i, r := range regions {
		if r.off != off {
			t.Fatalf("region %d offset %d, want %d (non-contiguous)", i, r.off, off)
		}
		off += r.n
		sum += r.n
	}
	if sum != total {
		t.Fatalf("regions cover %d floats, want %d", sum, total)
	}
	if regions[2].chunks != 0 {
		t.Fatalf("empty region has %d chunks", regions[2].chunks)
	}

	// A non-zero base shifts offsets without changing sizes, and the
	// heaviest tree need not be first.
	regions = splitRegions([]Tree{{Weight: 1}, {Weight: 5}, {Weight: 2}}, 64, 100, 1024)
	// floors of 100*(1/8, 5/8, 2/8) = 12 + 62 + 25 = 99, remainder 1 -> tree 1.
	if regions[0].n != 12 || regions[1].n != 63 || regions[2].n != 25 {
		t.Fatalf("weighted regions = %d/%d/%d, want 12/63/25",
			regions[0].n, regions[1].n, regions[2].n)
	}
	if regions[0].off != 64 || regions[1].off != 76 || regions[2].off != 139 {
		t.Fatalf("offsets = %d/%d/%d, want 64/76/139",
			regions[0].off, regions[1].off, regions[2].off)
	}
}
