package collective

import (
	"strings"
	"testing"

	"blink/internal/core"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

func newEng(t *testing.T, devs []int) *Engine {
	t.Helper()
	return mustEngine(t, topology.DGX1V(), devs, simgpu.Config{})
}

// mustEngine is NewEngine, failing the test on error.
func mustEngine(tb testing.TB, machine *topology.Topology, devs []int, cfg simgpu.Config) *Engine {
	tb.Helper()
	e, err := NewEngine(machine, devs, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// mustRun is e.Run from root 0, failing the test on error.
func mustRun(t *testing.T, e *Engine, b Backend, op Op, bytes int64, opts Options) Result {
	t.Helper()
	r, err := e.Run(b, op, 0, bytes, opts)
	if err != nil {
		t.Fatalf("%v %v of %d bytes: %v", b, op, bytes, err)
	}
	return r
}

func TestBlinkBeatsNCCLPartialConnectivity(t *testing.T) {
	// Figure 2b: GPUs {0,1,4} have no NVLink ring; NCCL drops to PCIe while
	// Blink packs the available NVLinks (paper: 26.4 vs 4.8 GB/s).
	e := newEng(t, []int{0, 1, 4})
	nccl := mustRun(t, e, NCCL, Broadcast, 500<<20, Options{})
	blink := mustRun(t, e, Blink, Broadcast, 500<<20, Options{})
	if nccl.Strategy != "pcie-ring" {
		t.Fatalf("NCCL strategy = %q, want pcie-ring", nccl.Strategy)
	}
	if nccl.ThroughputGBs > 8 {
		t.Fatalf("NCCL PCIe broadcast = %.1f GB/s, want ~5", nccl.ThroughputGBs)
	}
	if blink.ThroughputGBs < 3*nccl.ThroughputGBs {
		t.Fatalf("Blink %.1f GB/s should be >=3x NCCL %.1f (paper ~5.5x)",
			blink.ThroughputGBs, nccl.ThroughputGBs)
	}
}

func TestBlinkVsNCCLFullAllocation(t *testing.T) {
	// On the fully connected 8-GPU DGX-1V NCCL builds full rings; Blink's
	// edge is modest (paper: 3-5 GB/s from chunked transfers).
	e := newEng(t, []int{0, 1, 2, 3, 4, 5, 6, 7})
	nccl := mustRun(t, e, NCCL, Broadcast, 500<<20, Options{})
	blink := mustRun(t, e, Blink, Broadcast, 500<<20, Options{})
	if blink.ThroughputGBs < nccl.ThroughputGBs {
		t.Fatalf("Blink %.1f < NCCL %.1f on full allocation", blink.ThroughputGBs, nccl.ThroughputGBs)
	}
	if blink.ThroughputGBs > 2.0*nccl.ThroughputGBs {
		t.Fatalf("Blink %.1f vs NCCL %.1f: gap too large for a full ring allocation",
			blink.ThroughputGBs, nccl.ThroughputGBs)
	}
}

func TestAllReduceBothBackends(t *testing.T) {
	e := newEng(t, []int{1, 4, 5, 6, 7})
	for _, b := range []Backend{Blink, NCCL} {
		r := mustRun(t, e, b, AllReduce, 100<<20, Options{})
		if r.ThroughputGBs <= 0 {
			t.Fatalf("%v allreduce throughput = %v", b, r.ThroughputGBs)
		}
	}
}

func TestGatherAndVariants(t *testing.T) {
	e := newEng(t, []int{5, 6, 7})
	for _, op := range []Op{Gather, AllGather, ReduceScatter} {
		r := mustRun(t, e, Blink, op, 64<<20, Options{})
		if r.Seconds <= 0 {
			t.Fatalf("%v: no time elapsed", op)
		}
	}
}

func TestDGX2Engine(t *testing.T) {
	e := mustEngine(t, topology.DGX2(), nil, simgpu.Config{})
	if !e.Switched() {
		t.Fatal("DGX-2 engine should be switched")
	}
	small := mustRun(t, e, NCCL, AllReduce, 16<<10, Options{})
	if small.Strategy != "db-tree" {
		t.Fatalf("small NCCL allreduce strategy = %q, want db-tree", small.Strategy)
	}
	large := mustRun(t, e, NCCL, AllReduce, 256<<20, Options{})
	if large.Strategy != "ring" {
		t.Fatalf("large NCCL allreduce strategy = %q, want ring", large.Strategy)
	}
	// Figure 20: Blink's one-hop trees have much lower latency at small
	// sizes.
	blinkSmall := mustRun(t, e, Blink, AllReduce, 16<<10, Options{})
	if blinkSmall.Seconds >= small.Seconds {
		t.Fatalf("Blink small latency %.2fus not below NCCL %.2fus",
			blinkSmall.Seconds*1e6, small.Seconds*1e6)
	}
	ratio := small.Seconds / blinkSmall.Seconds
	if ratio < 1.5 || ratio > 6 {
		t.Fatalf("small-size latency ratio = %.2f, paper reports up to 3.32x", ratio)
	}
	// Large sizes converge (both bound by attach bandwidth).
	blinkLarge := mustRun(t, e, Blink, AllReduce, 256<<20, Options{})
	r := blinkLarge.ThroughputGBs / large.ThroughputGBs
	if r < 0.6 || r > 2.5 || blinkLarge.Strategy != "one-hop" {
		t.Fatalf("large-size %q throughput ratio %.2f outside convergence band", blinkLarge.Strategy, r)
	}
	if p, err := e.Packing(3); err != nil || p.Root != 3 || e.Topo().NumGPUs != 16 {
		t.Fatalf("one-hop packing of root 3 on %d GPUs: %+v, %v", e.Topo().NumGPUs, p, err)
	}
	if _, err := e.Packing(99); err == nil {
		t.Fatal("out-of-range root accepted")
	}
}

// TestHybridBroadcastViaEngine: at 500 MB on DGX-1V [0 1 2 3] the trial
// keeps the §3.4 hybrid, which beats the NVLink trees at its chunk by no
// more than Fig 21's few GB/s, and the hybrid plan is an ordinary servable
// one: its PlanBlob decodes to the same simulated time and strategy.
func TestHybridBroadcastViaEngine(t *testing.T) {
	e := newEng(t, []int{0, 1, 2, 3})
	const bytes = 500 << 20
	plain := mustRun(t, e, Blink, Broadcast, bytes, Options{ChunkBytes: core.ResolveChunk(bytes, 0)})
	hy := mustRun(t, e, Blink, Broadcast, bytes, Options{})
	if gain := hy.ThroughputGBs - plain.ThroughputGBs; hy.Strategy != "hybrid" || plain.Strategy != "trees" || gain <= 0 || gain > 10 {
		t.Fatalf("auto chunk: %q at %.1f GB/s; explicit chunk: %q at %.1f GB/s; want a hybrid faster than trees by a plausible 0-10 GB/s (Fig 21: +2-5)",
			hy.Strategy, hy.ThroughputGBs, plain.Strategy, plain.ThroughputGBs)
	}
	blob, strategy, err := e.PlanBlob(Blink, Broadcast, 0, bytes, Options{})
	if err != nil || strategy != "hybrid" {
		t.Fatalf("PlanBlob: %q, %v", strategy, err)
	}
	cp, err := e.planDecoder(e.st.Load())(blob)
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := cp.Plan.Replay(); r.Makespan != hy.Seconds || cp.Strategy != "hybrid" {
		t.Fatalf("decoded hybrid: %v s, %q; compiled %v s", r.Makespan, cp.Strategy, hy.Seconds)
	}
}

// TestHybridBroadcastDataExact holds the hybrid broadcast the trial picks to
// what every other collective guarantees: elementwise-exact data on every
// rank (the PCIe share covers the payload's tail, not a second copy of its
// head), a second call that is a plain cache hit with bit-identical
// simulated time, and a span with chunk events. On DGX-1V [4 5 7] at 8 MB a
// negligible peer-access switch lets the hybrid win (0.262 ms against the
// NVLink trees' 0.2675 ms).
func TestHybridBroadcastDataExact(t *testing.T) {
	cfg := simgpu.Config{DataMode: true, DisablePeerBase: 1e-9, DisablePeerPerGPU: 1e-9}
	e := mustEngine(t, topology.DGX1V(), []int{4, 5, 7}, cfg)
	tl := e.EnableTimeline()
	const n = 8 << 20 / 4
	src := make([]float32, n)
	for i := range src {
		src[i] = float32(i%8191) + 0.5
	}
	compiles := e.Metrics().Counter("blink_plan_compiles_total")
	replays := e.Metrics().Counter("blink_plan_replays_total")
	var first Result
	for call := 0; call < 2; call++ {
		bs := simgpu.NewBufferSet()
		bs.SetBuffer(0, core.BufData, append([]float32(nil), src...))
		c0, r0 := compiles.Value(), replays.Value()
		res := mustRun(t, e, Blink, Broadcast, n*4, Options{DataMode: true, Buffers: bs})
		if res.Strategy != "hybrid" {
			t.Fatalf("call %d: strategy %q, want hybrid", call, res.Strategy)
		}
		for rank := 0; rank < 3; rank++ {
			got := bs.Buffer(rank, core.BufData, n)
			for i := range src {
				if got[i] != src[i] {
					t.Fatalf("call %d: rank %d float %d = %v, want %v", call, rank, i, got[i], src[i])
				}
			}
		}
		if call == 0 {
			first = res
			if compiles.Value() != c0+1 {
				t.Fatalf("cold hybrid call: compiles %d -> %d, want +1", c0, compiles.Value())
			}
			continue
		}
		if compiles.Value() != c0 || replays.Value() != r0+1 {
			t.Fatalf("warm hybrid call not a cache hit: compiles %d -> %d, replays %d -> %d",
				c0, compiles.Value(), r0, replays.Value())
		}
		if res.Seconds != first.Seconds {
			t.Fatalf("warm replay %v differs from cold %v", res.Seconds, first.Seconds)
		}
	}
	for _, sp := range tl.Spans() {
		if sp.Strategy != "hybrid" || sp.Chunks == 0 || len(sp.Events) == 0 {
			t.Fatalf("hybrid span carries no chunk events: %+v", sp)
		}
	}
}

// TestHybridRejectedOnSwitch: a DGX-2 has no PCIe plane to split across, so
// the trial never keeps the hybrid there, even at a size where it wins on a
// DGX-1V, and the servable plan it compiles says the same.
func TestHybridRejectedOnSwitch(t *testing.T) {
	e := mustEngine(t, topology.DGX2(), nil, simgpu.Config{})
	const bytes = 500 << 20
	r := mustRun(t, e, Blink, Broadcast, bytes, Options{})
	_, strategy, err := e.PlanBlob(Blink, Broadcast, 0, bytes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Strategy == "hybrid" || strategy != r.Strategy {
		t.Fatalf("DGX-2 Broadcast: ran %q, PlanBlob %q; want one non-hybrid strategy", r.Strategy, strategy)
	}
}

// TestHybridSelection is where the trial may and may not keep the hybrid
// broadcast. It needs Blink's auto chunk on the NVLink plane of a machine
// with a PCIe plane (a DGX-2 is TestHybridRejectedOnSwitch), a Broadcast
// whose NVLink trees take longer than the peer-access switch (Tdpa, 1 ms on
// three GPUs and 1.3 ms on four), and a split that is strictly faster: on
// DGX-1V [0 1 2] at 1 MB with a near-zero Tdpa the hybrid runs at 0.63x the
// trees' speed. Its calibration must fit the compile budget too: at 64 B
// the trees outlast a near-zero Tdpa, but probing 64 MiB in 4-byte chunks
// would take ~10^8 ops, so the hybrid is never tried.
func TestHybridSelection(t *testing.T) {
	const big = 500 << 20
	cluster, err := NewClusterEngine(testCluster(t, []int{3, 5}, 40), simgpu.Config{})
	cheapSwitch, err2 := NewEngine(topology.DGX1V(), []int{0, 1, 2}, simgpu.Config{DisablePeerBase: 1e-9, DisablePeerPerGPU: 1e-9})
	if err != nil || err2 != nil {
		t.Fatal(err, err2)
	}
	quad := newEng(t, []int{0, 1, 2, 3})
	for _, c := range []struct {
		name   string
		e      *Engine
		b      Backend
		op     Op
		bytes  int64
		opts   Options
		hybrid bool
	}{
		{"Blink Broadcast 500 MB", quad, Blink, Broadcast, big, Options{}, true},
		{"NCCL", quad, NCCL, Broadcast, big, Options{}, false},
		{"PCIe-plane allocation", newEng(t, []int{0, 1, 6}), Blink, Broadcast, big, Options{}, false},
		{"cluster", cluster, Blink, Broadcast, big, Options{}, false},
		{"AllReduce", quad, Blink, AllReduce, big, Options{}, false},
		{"Reduce", quad, Blink, Reduce, big, Options{}, false},
		{"explicit chunk", quad, Blink, Broadcast, big, Options{ChunkBytes: 2 << 20}, false},
		{"trees within Tdpa", quad, Blink, Broadcast, 16 << 20, Options{}, false},
		{"hybrid slower", cheapSwitch, Blink, Broadcast, 1 << 20, Options{}, false},
		{"probes over the compile budget", cheapSwitch, Blink, Broadcast, 64, Options{}, false},
	} {
		r, err := c.e.Run(c.b, c.op, 0, c.bytes, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if (r.Strategy == "hybrid") != c.hybrid {
			t.Errorf("%s: strategy %q, want hybrid %v", c.name, r.Strategy, c.hybrid)
		}
	}
}

func TestRunErrors(t *testing.T) {
	e := newEng(t, []int{5, 6, 7})
	if _, err := e.Run(Blink, Broadcast, 0, 2, Options{}); err == nil {
		t.Fatal("tiny payload accepted")
	}
	// A request no schedule can be generated for is refused by name before a
	// planner sees it, on every route into one: dispatch on either engine,
	// and the blob blinkd serves.
	ce, err := NewClusterEngine(testCluster(t, []int{2, 2}, 100), simgpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	before := e.CacheStats()
	for _, c := range []struct {
		b            Backend
		op           Op
		bytes, chunk int64
		want         string
	}{
		{Backend(7), AllReduce, 1 << 20, 0, "unknown backend 7"},
		{Blink, Op(99), 1 << 20, 0, "unknown op Op(99)"},
		{Blink, AllReduce, 1 << 40, 4, "274877906944 chunks"},
		{NCCL, AllReduce, 1 << 50, 0, "536870912 chunks"},
	} {
		opts := Options{ChunkBytes: c.chunk}
		_, runErr := e.Run(c.b, c.op, 0, c.bytes, opts)
		_, _, blobErr := e.PlanBlob(c.b, c.op, 0, c.bytes, opts)
		_, clusterErr := ce.Run(c.b, c.op, 0, c.bytes, opts)
		for route, err := range map[string]error{"Run": runErr, "PlanBlob": blobErr, "ClusterEngine.Run": clusterErr} {
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s(%v, %v, %d bytes, chunk %d) = %v, want an error naming %q", route, c.b, c.op, c.bytes, c.chunk, err, c.want)
			}
		}
	}
	if after := e.CacheStats(); after.Entries != before.Entries || after.Misses != before.Misses {
		t.Fatalf("refused requests reached the plan cache: %+v after %+v", after, before)
	}
}

func TestStringers(t *testing.T) {
	if Blink.String() != "Blink" || NCCL.String() != "NCCL" {
		t.Fatal("backend names")
	}
	names := []string{"Broadcast", "Gather", "AllReduce", "AllGather", "ReduceScatter"}
	for i, want := range names {
		if Op(i).String() != want {
			t.Fatalf("op %d name %q", i, Op(i).String())
		}
	}
}

func TestReduceOp(t *testing.T) {
	// An AllReduce is a Reduce and a Broadcast pipelined chunk by chunk: it
	// takes no longer than the two back to back, and none beats its bound.
	e := newEng(t, []int{2, 3, 6, 7})
	var s [3]float64
	for i, op := range []Op{Reduce, Broadcast, AllReduce} {
		r := mustRun(t, e, Blink, op, 64<<20, Options{})
		checkBound(t, e, Blink, op, 64<<20, Options{}, r)
		s[i] = r.Seconds
	}
	if s[2] > s[0]+s[1] {
		t.Fatalf("AllReduce %.4g s, slower than Reduce %.4g s and Broadcast %.4g s back to back", s[2], s[0], s[1])
	}
	if Reduce.String() != "Reduce" {
		t.Fatal("Reduce name wrong")
	}
}

// TestAllReduceIgnoresRootHistory: the undirected AllReduce packing has no
// root, so an engine that compiled an AllReduce at root 3 first gives root
// 0 the plan a fresh engine gives it.
func TestAllReduceIgnoresRootHistory(t *testing.T) {
	fresh, e := mustRun(t, newEng(t, []int{2, 3, 6, 7}), Blink, AllReduce, 64<<20, Options{}), newEng(t, []int{2, 3, 6, 7})
	if _, err := e.Run(Blink, AllReduce, 3, 64<<20, Options{}); err != nil {
		t.Fatal(err)
	}
	if after := mustRun(t, e, Blink, AllReduce, 64<<20, Options{}); after.Seconds != fresh.Seconds {
		t.Fatalf("AllReduce at root 0 after root 3 takes %.6g s, on a fresh engine %.6g s", after.Seconds, fresh.Seconds)
	}
}

func TestFabricForSelection(t *testing.T) {
	// Connected allocation: both backends move data on the NVLink plane.
	conn := newEng(t, []int{5, 6, 7})
	if conn.FabricFor(Blink) != conn.FabricFor(NCCL) {
		t.Fatal("connected allocation should share the NVLink fabric")
	}
	// NVLink-disconnected: both fall to the PCIe plane.
	e := newEng(t, []int{0, 1, 6})
	if e.NVLinkConnected() {
		t.Fatal("{0,1,6} should be NVLink-disconnected")
	}
	if e.FabricFor(Blink) != e.FabricFor(NCCL) {
		t.Fatal("disconnected allocation should use the PCIe fabric for both")
	}
	// Connected but ring-less: Blink on NVLink, NCCL on PCIe.
	mix := newEng(t, []int{0, 1, 4})
	if mix.FabricFor(Blink) == mix.FabricFor(NCCL) {
		t.Fatal("{0,1,4}: Blink should use NVLink while NCCL falls to PCIe")
	}
}

func TestPackingAccessor(t *testing.T) {
	e := newEng(t, []int{0, 1, 2, 3, 4, 5, 6, 7})
	p, err := e.Packing(2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Root != 2 || p.Rate != 6 || len(p.Trees) != 6 {
		t.Fatalf("packing root %d: %d trees at rate %v, want 6 at 6", p.Root, len(p.Trees), p.Rate)
	}
	// Disconnected allocation exposes the PCIe packing.
	d := newEng(t, []int{0, 1, 6})
	pp, err := d.Packing(0)
	if err != nil {
		t.Fatal(err)
	}
	if pp.Rate <= 0 || pp.Rate > 1 {
		t.Fatalf("PCIe packing rate = %v, want fractional", pp.Rate)
	}
}

func TestScatterOp(t *testing.T) {
	e := newEng(t, []int{0, 1, 2, 3, 4, 5, 6, 7})
	for _, b := range []Backend{Blink, NCCL} {
		r := mustRun(t, e, b, Scatter, 128<<20, Options{})
		if r.Seconds <= 0 {
			t.Fatalf("%v scatter took no time", b)
		}
	}
	// Scatter moves strictly less data over the root's links than
	// Broadcast, so it should be at least as fast.
	sc := mustRun(t, e, Blink, Scatter, 128<<20, Options{})
	bc := mustRun(t, e, Blink, Broadcast, 128<<20, Options{})
	if sc.Seconds > bc.Seconds*1.05 {
		t.Fatalf("scatter %.4f slower than broadcast %.4f", sc.Seconds, bc.Seconds)
	}
	if Scatter.String() != "Scatter" {
		t.Fatal("Scatter name wrong")
	}
}
