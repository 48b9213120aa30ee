package core

import (
	"math/rand"
	"slices"
	"testing"

	"blink/internal/graph"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

func fabricFor(t testing.TB, topo *topology.Topology, devs []int, data bool) (*simgpu.Fabric, *Packing) {
	t.Helper()
	ind := must(topo.Induce(devs))(t)
	g := ind.GPUGraph()
	p := must(GenerateTrees(g, 0))(t)
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
	plan := must(BuildBroadcastPlan(f, p, bytes, PlanOptions{ChunkBytes: 4096, DataMode: true}))(t)
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
	with := must(BuildBroadcastPlan(f, p, 100<<20, PlanOptions{}))(t)
	without := must(BuildBroadcastPlan(f, p, 100<<20, PlanOptions{NoStreamReuse: true}))(t)
	if with.Streams > without.Streams {
		t.Fatalf("stream reuse increased stream count: %d > %d", with.Streams, without.Streams)
	}
	wres := must(with.Execute())(t)
	wores := must(without.Execute())(t)
	if wres.Makespan > wores.Makespan*1.05 {
		t.Fatalf("stream reuse slower: %.6f vs %.6f", wres.Makespan, wores.Makespan)
	}
}

func TestChunkingReducesLatency(t *testing.T) {
	// Fig 11: chunking shortens multi-hop pipelines.
	f, p := fabricFor(t, topology.DGX1V(), []int{0, 1, 2, 3}, false)
	big := must(BuildBroadcastPlan(f, p, 64<<20, PlanOptions{ChunkBytes: 64 << 20}))(t)
	small := must(BuildBroadcastPlan(f, p, 64<<20, PlanOptions{ChunkBytes: 4 << 20}))(t)
	bigRes := must(big.Execute())(t)
	smallRes := must(small.Execute())(t)
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
	plan := must(BuildDGX2AllReducePlan(f, packs, 16<<10, PlanOptions{ChunkBytes: 1024, DataMode: true}))(t)
	checkAllReduceData(t, plan, lg.N, 4<<10, 5)
}

func TestSplitRegionsRemainderToHeaviest(t *testing.T) {
	// Rounding remainder must land on the heaviest tree, never on whichever
	// tree happens to be positionally last — a trailing zero-weight tree has
	// no capacity and must receive no payload.
	trees := []Tree{{Weight: 3}, {Weight: 1}, {Weight: 0}}
	const total = 1003 // floors: 752 + 250 + 0, remainder 1
	regions := splitRegions(nil, trees, 0, total, 4<<20)
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
	regions = splitRegions(nil, []Tree{{Weight: 1}, {Weight: 5}, {Weight: 2}}, 64, 100, 1024)
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

// eachPlane calls check on the connected NVLink and PCIe planes of DGX-1V
// allocations, with each plane's ranks and reverseEdges.
func eachPlane(t *testing.T, check func(devs []int, g *graph.Graph, ranks int, rev []int)) {
	for _, devs := range [][]int{{0, 1, 2, 3, 4, 5, 6, 7}, {1, 4, 5, 6, 7}, {0, 1, 6}, {0, 2, 5, 7}, {3, 6, 7}} {
		ind := must(topology.DGX1V().Induce(devs))(t)
		for _, g := range []*graph.Graph{ind.GPUGraph(), ind.PCIeGraph()} {
			rev := must(reverseEdges(g))(t)
			if g.Connected() { // DGX-1V [0 1 6]'s NVLink plane is not
				check(devs, g, ind.NumGPUs, rev)
			}
		}
	}
}

// hops is the fewest hops between every two vertices of g over edges, taken
// either way, as an N×N table: vertex v's height over them is the most of
// row v.
func hops(g *graph.Graph, edges []int) []int {
	n := g.N
	dist := make([]int, n*n)
	for i := range dist {
		dist[i] = n
		if i%(n+1) == 0 {
			dist[i] = 0
		}
	}
	for _, id := range edges {
		e := g.Edges[id]
		dist[e.From*n+e.To], dist[e.To*n+e.From] = 1, 1
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				dist[i*n+j] = min(dist[i*n+j], dist[i*n+k]+dist[k*n+j])
			}
		}
	}
	return dist
}

// TestCenterHasLeastHeight: every tree of every root's packing, on the
// NVLink and PCIe planes of DGX-1V allocations, hangs from a rank of least
// height in the centered shape — the fewest hops to the tree's farthest
// vertex, relays included, by all-pairs distances over the tree's edges —
// and from the lowest of those ranks.
func TestCenterHasLeastHeight(t *testing.T) {
	eachPlane(t, func(devs []int, g *graph.Graph, ranks int, rev []int) {
		for root := 0; root < ranks; root++ {
			p := must(GenerateTrees(g, root))(t)
			for _, tree := range p.Trees {
				dist := hops(g, tree.Arbo.Edges)
				height := func(v int) int { return slices.Max(dist[v*g.N : v*g.N+g.N]) }
				s := must(shapeOf(g, tree.Arbo, centered, ranks, rev, new(scratch)))(t)
				c := s.bfs[0]
				for r := 0; r < ranks; r++ {
					if c >= ranks || height(r) < height(c) || height(r) == height(c) && r < c {
						t.Fatalf("%v root %d: tree %v hangs from %d of height %d, rank %d has height %d", devs, root, tree.Arbo.Edges, c, height(c), r, height(r))
					}
				}
			}
		}
	})
}

// TestShallowPacking: the shallow packing of a plane whose link pairs are at
// least its vertices holds one tree per rank, valid within the Edmonds
// bound, and tree r is as high from rank r as r's eccentricity over the
// link pairs. Where the pairs form a tree, as on every PCIe plane and on
// DGX-1V [3 6 7]'s NVLink one, there is none.
func TestShallowPacking(t *testing.T) {
	eachPlane(t, func(devs []int, g *graph.Graph, ranks int, rev []int) {
		var pairs []int
		linkPairs(g, rev, func(e graph.Edge, _ float64) { pairs = append(pairs, e.ID) })
		p := shallow(g, ranks, 0, graph.BroadcastRateUpperBound(g, 0), rev, new(scratch))
		if len(pairs) < g.N || p == nil {
			if len(pairs) >= g.N || p != nil {
				t.Errorf("%v (%d vertices): %d link pairs, packing %v", devs, g.N, len(pairs), p)
			}
			return
		}
		if err := p.Validate(g); err != nil || len(p.Trees) != ranks {
			t.Fatalf("%v: %d trees for %d ranks, %v", devs, len(p.Trees), ranks, err)
		}
		all := hops(g, pairs)
		for r, tree := range p.Trees {
			if h, ecc := slices.Max(hops(g, tree.Arbo.Edges)[r*g.N:][:g.N]), slices.Max(all[r*g.N:][:g.N]); h != ecc {
				t.Errorf("%v: tree %d is %d high from its rank, whose eccentricity is %d", devs, r, h, ecc)
			}
		}
	})
}

// TestCenteredTrialSkippedAtRoot: an AllReduce's race skips the centered row
// of a packing whose every tree is centered at its root (rootCentered), the
// root-0 PCIe packing of DGX-1V [0 1 6], whose centered schedule is the
// root-hung one op for op, and races it where a center differs, as on the
// full DGX-1V's NVLink plane.
func TestCenteredTrialSkippedAtRoot(t *testing.T) {
	for _, c := range []struct {
		devs       []int
		pcie, skip bool
	}{{[]int{0, 1, 6}, true, true}, {[]int{0, 1, 2, 3, 4, 5, 6, 7}, false, false}} {
		ind := must(topology.DGX1V().Induce(c.devs))(t)
		g := ind.GPUGraph()
		if c.pcie {
			g = ind.PCIeGraph()
		}
		p := must(GenerateTrees(g, 0))(t)
		f := simgpu.NewFabric(ind, g, simgpu.Config{})
		opts := PlanOptions{ChunkBytes: 256 << 10, NoStreamReuse: true}
		hung, err := BuildAllReducePlan(f, p, 4<<20, opts)
		cen, err2 := BuildCenteredAllReducePlan(f, p, 4<<20, opts)
		if err != nil || err2 != nil {
			t.Fatal(err, err2)
		}
		same := slices.EqualFunc(hung.Ops, cen.Ops, func(x, y *simgpu.Op) bool {
			return x.Link == y.Link && x.Stream == y.Stream && x.Bytes == y.Bytes && slices.Equal(x.Deps, y.Deps)
		})
		if skip := rootCentered(f, p); skip != c.skip || same != c.skip {
			t.Errorf("%v (PCIe %v): centered trial skipped %v, centered schedule is the root-hung one %v; want both %v", c.devs, c.pcie, skip, same, c.skip)
		}
	}
}

// must returns v, failing the test on err: p := must(PackTrees(g, 0))(t).
func must[T any](v T, err error) func(testing.TB) T {
	return func(t testing.TB) T {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}
