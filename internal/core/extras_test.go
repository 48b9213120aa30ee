package core

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"blink/internal/simgpu"
	"blink/internal/topology"
)

func TestMIADTunerConverges(t *testing.T) {
	// Synthetic response surface peaking at 8 MB, like Fig 12.
	perf := func(chunk int64) float64 {
		c := float64(chunk) / float64(8<<20)
		if c <= 1 {
			return 80 * c // undersized chunks: overhead bound
		}
		return 80 / c * 1.2 // oversized: pipeline stalls
	}
	tuner := NewMIADTuner(1 << 20)
	for i := 0; i < 16 && !tuner.Steady(); i++ {
		tuner.Observe(perf(tuner.Chunk()))
	}
	if !tuner.Steady() {
		t.Fatal("tuner did not converge")
	}
	if len(tuner.History) < 3 {
		t.Fatalf("tuner history too short: %d", len(tuner.History))
	}
	// The first phase must be multiplicative doubling (Fig 12 shape).
	if tuner.History[1].ChunkBytes != 2*tuner.History[0].ChunkBytes {
		t.Fatalf("second iteration chunk %d, want double of %d",
			tuner.History[1].ChunkBytes, tuner.History[0].ChunkBytes)
	}
}

// TestMIADSettlesAtBestSeen is the regression test for the
// growth→decrease transition resetting the comparison baseline to the
// declined (trough) throughput: on a unimodal curve whose overshoot region
// is flat, the old tuner settled in the trough, well below the best-seen
// peak. The tuner must settle at the best observation instead.
func TestMIADSettlesAtBestSeen(t *testing.T) {
	// Unimodal response: linear rise to a peak of 80 at 8 MiB, then a
	// sharp drop to a nearly flat plateau around 40 (within the 2%
	// tolerance step to step), the shape that traps trough-relative
	// comparisons.
	perf := func(chunk int64) float64 {
		mb := float64(chunk) / float64(1<<20)
		if mb <= 8 {
			return 10 * mb
		}
		return 40 + (16-mb)*0.5
	}
	tuner := NewMIADTuner(1 << 20)
	for i := 0; i < 32 && !tuner.Steady(); i++ {
		tuner.Observe(perf(tuner.Chunk()))
	}
	if !tuner.Steady() {
		t.Fatal("tuner did not converge")
	}
	bestTp, bestChunk := 0.0, int64(0)
	for _, s := range tuner.History {
		if s.ThroughputGBs > bestTp {
			bestTp, bestChunk = s.ThroughputGBs, s.ChunkBytes
		}
	}
	if tuner.Chunk() != bestChunk {
		t.Fatalf("settled at %d bytes (%.1f GB/s), want best-seen %d bytes (%.1f GB/s)",
			tuner.Chunk(), perf(tuner.Chunk()), bestChunk, bestTp)
	}
	if got := perf(tuner.Chunk()); got < bestTp*(1-0.02) {
		t.Fatalf("steady-state throughput %.1f well below best-seen %.1f", got, bestTp)
	}
}

// TestMIADExploresOvershootGap guards the decrease phase's hill-climb: an
// optimum lying strictly between the growth phase's last good chunk and
// the overshoot (here 12 MiB between 8 and 16) must still be found — the
// walk compares probe to probe, and only the final settle jumps to the
// best-seen observation.
func TestMIADExploresOvershootGap(t *testing.T) {
	perf := func(chunk int64) float64 {
		mb := float64(chunk) / float64(1<<20)
		switch {
		case mb <= 8:
			return 10 * mb // rises to 80 at 8 MiB
		case mb <= 12:
			return 80 + (mb-8)*2.5 // true optimum: 90 at 12 MiB
		default:
			return 90 - (mb-12)*15 // cliff: 30 at 16 MiB
		}
	}
	tuner := NewMIADTuner(1 << 20)
	for i := 0; i < 32 && !tuner.Steady(); i++ {
		tuner.Observe(perf(tuner.Chunk()))
	}
	if !tuner.Steady() {
		t.Fatal("tuner did not converge")
	}
	if got := perf(tuner.Chunk()); got < 90*(1-0.02) {
		t.Fatalf("settled at %d bytes (%.1f GB/s); the 12 MiB / 90 GB/s optimum was missed", tuner.Chunk(), got)
	}
}

func TestMIADTunerDefaults(t *testing.T) {
	tuner := NewMIADTuner(0)
	if tuner.Chunk() != 1<<20 {
		t.Fatalf("default initial chunk = %d, want 1 MiB", tuner.Chunk())
	}
	// Monotonically increasing throughput keeps doubling.
	tp := 10.0
	for i := 0; i < 5; i++ {
		tuner.Observe(tp)
		tp *= 2
	}
	if tuner.Chunk() != 32<<20 {
		t.Fatalf("chunk after 5 doublings = %d, want 32 MiB", tuner.Chunk())
	}
}

func TestMIADFloor(t *testing.T) {
	tuner := NewMIADTuner(1 << 20)
	tuner.DecrementBytes = 4 << 20 // force a huge decrement
	tuner.Observe(50)              // grow to 2 MiB
	tuner.Observe(10)              // decline -> decrease below floor
	if tuner.Chunk() < tuner.MinChunkBytes {
		t.Fatalf("chunk %d fell below floor", tuner.Chunk())
	}
	if !tuner.Steady() {
		t.Fatal("hitting the floor should settle the tuner")
	}
}

func TestAutoTuneChunkOnFabric(t *testing.T) {
	ind, err := topology.DGX1V().Induce([]int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	g := ind.GPUGraph()
	p, err := GenerateTrees(g, 0, PackOptions{}, MinimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f := simgpu.NewFabric(ind, g, simgpu.Config{})
	best, hist, err := AutoTuneChunk(func(chunk int64) (*Plan, error) {
		return BuildBroadcastPlan(f, p, 256<<20, PlanOptions{ChunkBytes: chunk})
	}, 1<<20, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) < 3 {
		t.Fatalf("tuning history too short: %d", len(hist))
	}
	if best < 1<<20 || best > 128<<20 {
		t.Fatalf("selected chunk %d out of plausible range", best)
	}
	// Throughput at the selected chunk must beat the 1 MB starting point.
	if hist[len(hist)-1].ThroughputGBs < hist[0].ThroughputGBs {
		lastBest := 0.0
		for _, s := range hist {
			if s.ThroughputGBs > lastBest {
				lastBest = s.ThroughputGBs
			}
		}
		if lastBest <= hist[0].ThroughputGBs {
			t.Fatalf("tuning never improved on initial chunk: %+v", hist)
		}
	}
}

func TestHybridSplitEquation8(t *testing.T) {
	// With zero Tdpa the split is proportional to bandwidth.
	p, n := HybridSplit(1000<<20, 5, 20, 0)
	ratio := float64(p) / float64(p+n)
	if ratio < 0.19 || ratio > 0.21 {
		t.Fatalf("PCIe share = %.3f, want 0.2", ratio)
	}
	// Large Tdpa on a small transfer pushes everything to NVLink.
	p2, n2 := HybridSplit(1<<20, 5, 20, 1.0)
	if p2 != 0 || n2 != 1<<20 {
		t.Fatalf("small transfer split = %d/%d, want all NVLink", p2, n2)
	}
	// Degenerate bandwidths.
	p3, n3 := HybridSplit(100, 0, 20, 0)
	if p3 != 0 || n3 != 100 {
		t.Fatal("zero PCIe bw should route everything to NVLink")
	}
	// Alignment.
	p4, _ := HybridSplit(1000<<20, 7, 23, 0.001)
	if p4%4 != 0 {
		t.Fatalf("PCIe bytes %d not float-aligned", p4)
	}
}

func TestBuildHybridBroadcast(t *testing.T) {
	ind, err := topology.DGX1V().Induce([]int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	gn := ind.GPUGraph()
	pn, err := GenerateTrees(gn, 0, PackOptions{}, MinimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gp := ind.PCIeGraph()
	pp, err := GenerateTrees(gp, 0, PackOptions{}, MinimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := simgpu.Config{}
	fn := simgpu.NewFabric(ind, gn, cfg)
	fp := simgpu.NewFabric(ind, gp, cfg)

	plan, res, err := BuildHybridBroadcastPlan(fn, pn, fp, pp, 500<<20, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PCIeBytes <= 0 {
		t.Fatal("hybrid split assigned nothing to PCIe for a 500MB transfer")
	}
	if res.NVLBytes+res.PCIeBytes != 500<<20 {
		t.Fatalf("split %d+%d does not cover the payload", res.NVLBytes, res.PCIeBytes)
	}
	// One plan over both link tables: every PCIe op sits behind the single
	// zero-resource op that charges Tdpa, on links and streams past NVLink's.
	gate := -1
	for i, op := range plan.Ops {
		if op.Link == -1 {
			if gate >= 0 {
				t.Fatalf("second zero-resource op at %d", i)
			}
			gate = i
			if op.Overhead != res.Tdpa {
				t.Fatalf("gate overhead %v, want Tdpa %v", op.Overhead, res.Tdpa)
			}
		}
	}
	if gate <= 0 || gate == len(plan.Ops)-1 {
		t.Fatalf("gate at %d of %d ops: want NVLink ops before it and PCIe ops after", gate, len(plan.Ops))
	}
	for i, op := range plan.Ops {
		onPCIe := op.Link >= len(fn.Links)
		if onPCIe != (i > gate) {
			t.Fatalf("op %d on link %d: PCIe ops must be exactly those after the gate (%d)", i, op.Link, gate)
		}
		if onPCIe && (op.Deps[0] != gate || op.Stream < plan.Ops[gate-1].Stream) {
			t.Fatalf("PCIe op %d not behind the gate or on a reused stream: %+v", i, op)
		}
	}
	// The replayed plan lands on the calibrated makespan (the gate shifts the
	// PCIe side by Tdpa, so only float rounding may differ).
	tp, err := plan.ThroughputGBs()
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(500<<20) / res.Makespan / 1e9; math.Abs(tp-want) > 1e-6*want {
		t.Fatalf("plan replays at %.6f GB/s, calibration measured %.6f", tp, want)
	}
	// Hybrid must beat NVLink-only (Fig 21: +2-5 GB/s).
	nvlOnly, err := BuildBroadcastPlan(fn, pn, 500<<20, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	nvlTp, err := nvlOnly.ThroughputGBs()
	if err != nil {
		t.Fatal(err)
	}
	if tp <= nvlTp {
		t.Fatalf("hybrid %.1f GB/s not faster than NVLink-only %.1f", tp, nvlTp)
	}
	if gain := tp - nvlTp; gain > 10 {
		t.Fatalf("hybrid gain %.1f GB/s implausibly large", gain)
	}
}

func TestMergePlansPreservesOps(t *testing.T) {
	ind, err := topology.DGX1V().Induce([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	g := ind.GPUGraph()
	p, err := GenerateTrees(g, 0, PackOptions{}, MinimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f := simgpu.NewFabric(ind, g, simgpu.Config{})
	a, err := BuildBroadcastPlan(f, p, 16<<20, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildBroadcastPlan(f, p, 16<<20, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := MergePlans(f, a, b)
	if len(m.Ops) != len(a.Ops)+len(b.Ops) {
		t.Fatalf("merged ops = %d, want %d", len(m.Ops), len(a.Ops)+len(b.Ops))
	}
	if m.TotalBytes != a.TotalBytes+b.TotalBytes {
		t.Fatal("merged bytes wrong")
	}
	if _, err := m.Execute(); err != nil {
		t.Fatalf("merged plan deadlocked: %v", err)
	}
	// Originals still executable (merge must not mutate them).
	if _, err := a.Execute(); err != nil {
		t.Fatal(err)
	}
}

// TestBuildThreePhaseAllReduce drives the §3.5 builder the way a standalone
// caller does (fresh fabrics, a GenerateTrees PackFn): one plan with one
// partition per GPU of the smallest server, a distinct local root per
// partition on every server, partitions that exactly cover the payload
// (every element of every rank comes back summed), and phases whose
// cross-machine one dominates on commodity 40 Gb/s NICs.
func TestBuildThreePhaseAllReduce(t *testing.T) {
	c, fabrics, wide := threePhaseFixture(t)
	var mu sync.Mutex
	asked := map[[2]int]bool{}
	packFor := func(si, root int) (*Packing, error) {
		mu.Lock()
		asked[[2]int{si, root}] = true
		mu.Unlock()
		return GenerateTrees(c.Servers[si].GPUGraph(), root, PackOptions{}, MinimizeOptions{})
	}
	const bytes = 100 << 20
	plan, err := BuildThreePhaseAllReduce(c, fabrics, wide, packFor, bytes, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Partitions != 3 || plan.Fabric != wide {
		t.Fatalf("partitions = %d (want min-server GPUs = 3), over the cluster fabric: %v", plan.Partitions, plan.Fabric == wide)
	}
	// Partition p's local root on server s is p mod the server's size.
	want := map[[2]int]bool{}
	for p := 0; p < plan.Partitions; p++ {
		for si, s := range c.Servers {
			want[[2]int{si, p % s.NumGPUs}] = true
		}
	}
	if !reflect.DeepEqual(asked, want) {
		t.Fatalf("packings requested for (server, root) %v, want %v", asked, want)
	}
	r, err := plan.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Marks) != 2 {
		t.Fatalf("plan marks %d phase boundaries, want 2", len(r.Marks))
	}
	p1, p2, p3 := r.Marks[0], r.Marks[1]-r.Marks[0], r.Makespan-r.Marks[1]
	if p1 <= 0 || p2 <= 0 || p3 <= 0 {
		t.Fatalf("phases not all positive: %v %v %v", p1, p2, p3)
	}
	if p2 < p1 || p2 < p3 {
		t.Fatalf("phase 2 should dominate with commodity NICs: %v %v %v", p1, p2, p3)
	}

	// Coverage: a payload the partitions do not divide evenly, moved for real.
	const floats = 1000
	data, err := BuildThreePhaseAllReduce(c, fabrics, wide, packFor, floats*4, PlanOptions{DataMode: true, ChunkBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	bufs := simgpu.NewBufferSet()
	for g := 0; g < c.TotalGPUs(); g++ {
		in := make([]float32, floats)
		for i := range in {
			in[i] = float32(g + i%7)
		}
		bufs.SetBuffer(g, BufData, in)
	}
	if _, err := data.Freeze().ReplayData(bufs); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < c.TotalGPUs(); g++ {
		for i, got := range bufs.Buffer(g, BufAcc, floats) {
			if want := float32(28 + 8*(i%7)); got != want {
				t.Fatalf("rank %d element %d = %v, want %v", g, i, got, want)
			}
		}
	}
}

// threePhaseFixture is a 3+5 cluster at 40 Gb/s with fresh NVLink fabrics.
func threePhaseFixture(t *testing.T) (*topology.Cluster, []*simgpu.Fabric, *simgpu.Fabric) {
	t.Helper()
	c, err := topology.NewCluster([]topology.Server{
		{Machine: topology.DGX1V(), Devs: []int{0, 1, 2}},
		{Machine: topology.DGX1V(), Devs: []int{0, 1, 2, 3, 4}},
	}, 40)
	if err != nil {
		t.Fatal(err)
	}
	fabrics := make([]*simgpu.Fabric, len(c.Servers))
	for si, s := range c.Servers {
		fabrics[si] = simgpu.NewFabric(s, s.GPUGraph(), simgpu.Config{})
	}
	return c, fabrics, NewClusterFabric(c, fabrics, simgpu.Config{})
}

// TestBuildThreePhaseRejectsMismatch: all three builders share one prologue,
// so each refuses a fabric list that does not match the servers — and a
// cluster fabric built over other fabrics — with an error, not an index panic.
func TestBuildThreePhaseRejectsMismatch(t *testing.T) {
	c, fabrics, wide := threePhaseFixture(t)
	packFor := func(si, root int) (*Packing, error) {
		return GenerateTrees(c.Servers[si].GPUGraph(), root, PackOptions{}, MinimizeOptions{})
	}
	const bytes = 1 << 20
	builders := map[string]func([]*simgpu.Fabric, *simgpu.Fabric) (*Plan, error){
		"AllReduce": func(f []*simgpu.Fabric, w *simgpu.Fabric) (*Plan, error) {
			return BuildThreePhaseAllReduce(c, f, w, packFor, bytes, PlanOptions{})
		},
		"Broadcast": func(f []*simgpu.Fabric, w *simgpu.Fabric) (*Plan, error) {
			return BuildThreePhaseBroadcast(c, f, w, packFor, 7, bytes, PlanOptions{})
		},
		"AllToAll": func(f []*simgpu.Fabric, w *simgpu.Fabric) (*Plan, error) {
			return BuildThreePhaseAllToAll(c, f, w, packFor, bytes, PlanOptions{})
		},
	}
	for name, build := range builders {
		if _, err := build(fabrics, wide); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := build(fabrics[:1], wide); err == nil || err.Error() != "core: 1 fabrics for 2 servers" {
			t.Errorf("%s: fabric/server count mismatch: err = %v", name, err)
		}
		if _, err := build(fabrics, NewClusterFabric(c, fabrics[:1], simgpu.Config{})); err == nil {
			t.Errorf("%s: cluster fabric over one server's links accepted", name)
		}
	}
	if _, err := BuildThreePhaseBroadcast(c, fabrics, wide, packFor, 8, bytes, PlanOptions{}); err == nil {
		t.Error("broadcast root past the last global rank accepted")
	}
}
