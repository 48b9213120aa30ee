package collective

import (
	"errors"
	"strings"
	"testing"

	"blink/internal/core"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

func newEng(t *testing.T, devs []int) *Engine {
	t.Helper()
	e, err := NewEngine(topology.DGX1V(), devs, simgpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestBlinkBeatsNCCLPartialConnectivity(t *testing.T) {
	// Figure 2b: GPUs {0,1,4} have no NVLink ring; NCCL drops to PCIe while
	// Blink packs the available NVLinks (paper: 26.4 vs 4.8 GB/s).
	e := newEng(t, []int{0, 1, 4})
	nccl, err := e.Run(NCCL, Broadcast, 0, 500<<20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	blink, err := e.Run(Blink, Broadcast, 0, 500<<20, Options{})
	if err != nil {
		t.Fatal(err)
	}
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
	nccl, err := e.Run(NCCL, Broadcast, 0, 500<<20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	blink, err := e.Run(Blink, Broadcast, 0, 500<<20, Options{})
	if err != nil {
		t.Fatal(err)
	}
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
		r, err := e.Run(b, AllReduce, 0, 100<<20, Options{})
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		if r.ThroughputGBs <= 0 {
			t.Fatalf("%v allreduce throughput = %v", b, r.ThroughputGBs)
		}
	}
}

func TestGatherAndVariants(t *testing.T) {
	e := newEng(t, []int{5, 6, 7})
	for _, op := range []Op{Gather, AllGather, ReduceScatter} {
		r, err := e.Run(Blink, op, 0, 64<<20, Options{})
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		if r.Seconds <= 0 {
			t.Fatalf("%v: no time elapsed", op)
		}
	}
}

func TestDGX2Engine(t *testing.T) {
	e, err := NewEngine(topology.DGX2(), nil, simgpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !e.Switched() {
		t.Fatal("DGX-2 engine should be switched")
	}
	small, err := e.Run(NCCL, AllReduce, 0, 16<<10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if small.Strategy != "db-tree" {
		t.Fatalf("small NCCL allreduce strategy = %q, want db-tree", small.Strategy)
	}
	large, err := e.Run(NCCL, AllReduce, 0, 256<<20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if large.Strategy != "ring" {
		t.Fatalf("large NCCL allreduce strategy = %q, want ring", large.Strategy)
	}
	// Figure 20: Blink's one-hop trees have much lower latency at small
	// sizes.
	blinkSmall, err := e.Run(Blink, AllReduce, 0, 16<<10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if blinkSmall.Seconds >= small.Seconds {
		t.Fatalf("Blink small latency %.2fus not below NCCL %.2fus",
			blinkSmall.Seconds*1e6, small.Seconds*1e6)
	}
	ratio := small.Seconds / blinkSmall.Seconds
	if ratio < 1.5 || ratio > 6 {
		t.Fatalf("small-size latency ratio = %.2f, paper reports up to 3.32x", ratio)
	}
	// Large sizes converge (both bound by attach bandwidth).
	blinkLarge, err := e.Run(Blink, AllReduce, 0, 256<<20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := blinkLarge.ThroughputGBs / large.ThroughputGBs
	if r < 0.6 || r > 2.5 {
		t.Fatalf("large-size throughput ratio %.2f outside convergence band", r)
	}
}

func TestHybridBroadcastViaEngine(t *testing.T) {
	e := newEng(t, []int{0, 1, 2, 3})
	plain, err := e.Run(Blink, Broadcast, 0, 500<<20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hy, err := e.Run(Blink, Broadcast, 0, 500<<20, Options{Hybrid: true})
	if err != nil {
		t.Fatal(err)
	}
	if hy.Strategy != "hybrid" {
		t.Fatalf("strategy = %q, want hybrid", hy.Strategy)
	}
	if hy.ThroughputGBs <= plain.ThroughputGBs {
		t.Fatalf("hybrid %.1f not above NVLink-only %.1f", hy.ThroughputGBs, plain.ThroughputGBs)
	}
}

// TestHybridBroadcastDataExact holds hybrid broadcast to what every other
// collective guarantees: elementwise-exact data on every rank (the PCIe
// share covers the payload's tail, not a second copy of its head), a second
// call that is a plain cache hit with bit-identical simulated time, and a
// span with chunk events.
func TestHybridBroadcastDataExact(t *testing.T) {
	// A negligible peer-access switch cost makes the PCIe share non-zero
	// even at a small size.
	cfg := simgpu.Config{DataMode: true, DisablePeerBase: 1e-9, DisablePeerPerGPU: 1e-9}
	e, err := NewEngine(topology.DGX1V(), []int{0, 1, 2, 3}, cfg)
	if err != nil {
		t.Fatal(err)
	}
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
		res, err := e.Run(Blink, Broadcast, 0, n*4, Options{Hybrid: true, DataMode: true, Buffers: bs})
		if err != nil {
			t.Fatal(err)
		}
		for rank := 0; rank < 4; rank++ {
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
		if res.Seconds != first.Seconds || res.Strategy != "hybrid" {
			t.Fatalf("warm replay %v/%q differs from cold %v/%q", res.Seconds, res.Strategy, first.Seconds, first.Strategy)
		}
	}
	for _, sp := range tl.Spans() {
		if sp.Strategy != "hybrid" || sp.Chunks == 0 || len(sp.Events) == 0 {
			t.Fatalf("hybrid span carries no chunk events: %+v", sp)
		}
	}
}

func TestHybridRejectedOnSwitch(t *testing.T) {
	e, err := NewEngine(topology.DGX2(), nil, simgpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(Blink, Broadcast, 0, 1<<20, Options{Hybrid: true}); err == nil {
		t.Fatal("hybrid on DGX-2 should be rejected")
	}
}

// TestHybridSelection pins where else Options.Hybrid does not select a
// schedule: it needs Blink and a connected NVLink plane, and it is ignored
// on every op but Broadcast.
func TestHybridSelection(t *testing.T) {
	if _, err := newEng(t, []int{0, 1, 6}).Run(Blink, Broadcast, 0, 1<<20, Options{Hybrid: true}); err == nil {
		t.Error("hybrid on an NVLink-disconnected allocation should be rejected")
	}
	if _, err := newEng(t, []int{0, 1, 2, 3}).Run(NCCL, Broadcast, 0, 1<<20, Options{Hybrid: true}); err == nil {
		t.Error("hybrid under the NCCL backend should be rejected")
	}
	// On any other op the flag is ignored and normalised out of the plan key:
	// the flagged call replays the unflagged call's plan.
	e := newEng(t, []int{0, 1, 2, 3})
	plain, err := e.Run(Blink, AllReduce, 0, 1<<20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	flagged, err := e.Run(Blink, AllReduce, 0, 1<<20, Options{Hybrid: true})
	if err != nil {
		t.Fatal(err)
	}
	if flagged != plain || e.CacheStats().Entries != 1 || e.CacheStats().Hits != 1 {
		t.Fatalf("Hybrid on AllReduce: %+v vs %+v, cache %+v; want one shared entry", flagged, plain, e.CacheStats())
	}
	// A hybrid plan has no IR, so the planning service could never serve
	// one: the miss path must not ask.
	svc := &countingService{}
	e.SetPlanService(svc)
	if _, err := e.Run(Blink, Broadcast, 0, 1<<20, Options{Hybrid: true}); err != nil {
		t.Fatal(err)
	}
	if svc.fetches != 0 {
		t.Fatalf("hybrid miss fetched from the planning service %d time(s)", svc.fetches)
	}
	if _, err := e.Run(Blink, Broadcast, 0, 1<<20, Options{}); err != nil || svc.fetches != 1 {
		t.Fatalf("plain miss: err %v, %d service fetches, want 1", err, svc.fetches)
	}
}

// countingService is a planning service that only counts fetches and always
// fails, so every dispatch falls back to the local compile.
type countingService struct{ fetches int }

func (s *countingService) FetchPlan(PlanRequest) ([]byte, error) {
	s.fetches++
	return nil, errors.New("no plans here")
}

func TestRunErrors(t *testing.T) {
	e := newEng(t, []int{5, 6, 7})
	if _, err := e.Run(Blink, Broadcast, 0, 2, Options{}); err == nil {
		t.Fatal("tiny payload accepted")
	}
	// Options.Hybrid is the selector it was declared as: through plain Run it
	// dispatches the hybrid broadcast.
	if r, err := e.Run(Blink, Broadcast, 0, 1<<20, Options{Hybrid: true}); err != nil || r.Strategy != "hybrid" {
		t.Fatalf("hybrid flag through Run: %+v, %v; want the hybrid schedule", r, err)
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

func TestChunkFor(t *testing.T) {
	if c := chunkFor(1<<30, 0); c != 2<<20 {
		t.Fatalf("1GB chunk = %d", c)
	}
	if c := chunkFor(1024, 0); c < 4 || c%4 != 0 {
		t.Fatalf("small chunk = %d", c)
	}
	if c := chunkFor(1<<30, 12344); c != 12344 {
		t.Fatalf("override ignored: %d", c)
	}
	// An override rounds up to whole float32s like the plan options it
	// becomes, so 6 and 8 are one plan key, not two copies of one schedule.
	if a, b := chunkFor(1<<30, 6), chunkFor(1<<30, 8); a != 8 || b != 8 {
		t.Fatalf("overrides 6 and 8 chunk as %d and %d, want 8 and 8", a, b)
	}
}

func TestReduceOp(t *testing.T) {
	e := newEng(t, []int{2, 3, 6, 7})
	r, err := e.Run(Blink, Reduce, 0, 64<<20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Seconds <= 0 {
		t.Fatal("reduce took no time")
	}
	// Reduce is one direction of AllReduce: roughly twice the throughput.
	ar, err := e.Run(Blink, AllReduce, 0, 64<<20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := r.ThroughputGBs / ar.ThroughputGBs
	if ratio < 1.2 || ratio > 3.0 {
		t.Fatalf("reduce/allreduce throughput ratio = %.2f, want ~2", ratio)
	}
	if Reduce.String() != "Reduce" {
		t.Fatal("Reduce name wrong")
	}
}

func TestFabricForSelection(t *testing.T) {
	// Connected allocation: both backends move data on the NVLink plane.
	conn := newEng(t, []int{5, 6, 7})
	if conn.FabricFor(Blink) != conn.FabricFor(NCCL) {
		t.Fatal("connected allocation should share the NVLink fabric")
	}
	// NVLink-disconnected: both fall to the PCIe plane.
	e, err := NewEngine(topology.DGX1V(), []int{0, 1, 6}, simgpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if e.NVLinkConnected() {
		t.Fatal("{0,1,6} should be NVLink-disconnected")
	}
	if e.FabricFor(Blink) != e.FabricFor(NCCL) {
		t.Fatal("disconnected allocation should use the PCIe fabric for both")
	}
	// Connected but ring-less: Blink on NVLink, NCCL on PCIe.
	mix, err := NewEngine(topology.DGX1V(), []int{0, 1, 4}, simgpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
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
	if p.Root != 2 || p.Rate != 6 {
		t.Fatalf("packing root %d rate %v", p.Root, p.Rate)
	}
	// Disconnected allocation exposes the PCIe packing.
	d, err := NewEngine(topology.DGX1V(), []int{0, 1, 6}, simgpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
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
		r, err := e.Run(b, Scatter, 0, 128<<20, Options{})
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		if r.Seconds <= 0 {
			t.Fatalf("%v scatter took no time", b)
		}
	}
	// Scatter moves strictly less data over the root's links than
	// Broadcast, so it should be at least as fast.
	sc, err := e.Run(Blink, Scatter, 0, 128<<20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := e.Run(Blink, Broadcast, 0, 128<<20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Seconds > bc.Seconds*1.05 {
		t.Fatalf("scatter %.4f slower than broadcast %.4f", sc.Seconds, bc.Seconds)
	}
	if Scatter.String() != "Scatter" {
		t.Fatal("Scatter name wrong")
	}
}
