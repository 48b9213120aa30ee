package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blink/internal/simgpu"
	"blink/internal/topology"
)

func frozenTestPlan(t *testing.T, dataMode bool) (*Plan, *simgpu.Fabric) {
	t.Helper()
	return allReduceTestPlan(t, dataMode, 8<<20)
}

// allReduceTestPlan is an AllReduce of bytes over four DGX-1V GPUs.
func allReduceTestPlan(t *testing.T, dataMode bool, bytes int64) (*Plan, *simgpu.Fabric) {
	t.Helper()
	machine := topology.DGX1V()
	ind, err := machine.Induce([]int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := simgpu.Config{DataMode: dataMode}
	f := simgpu.NewFabric(ind, ind.GPUGraph(), cfg)
	p, err := GenerateTrees(ind.GPUGraph(), 0, PackOptions{}, MinimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildAllReducePlan(f, p, bytes, PlanOptions{DataMode: dataMode, NoStreamReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	return plan, f
}

func TestFreezeReplayMatchesExecute(t *testing.T) {
	plan, _ := frozenTestPlan(t, false)
	fp := plan.Freeze()
	if fp.HasExec() {
		t.Fatal("timing-only plan reports Exec closures")
	}
	if fp.NumOps() != len(plan.Ops) {
		t.Fatal("frozen metadata diverges from plan")
	}
	want, err := plan.Execute()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := fp.Replay()
		if err != nil {
			t.Fatal(err)
		}
		if got.Makespan != want.Makespan || got.Ops != want.Ops {
			t.Fatalf("replay %d: %+v != %+v", i, got, want)
		}
	}
}

func TestFrozenConcurrentReplay(t *testing.T) {
	plan, _ := frozenTestPlan(t, false)
	fp := plan.Freeze()
	want, err := fp.Replay()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([]simgpu.Result, 16)
	errs := make([]error, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = fp.Replay()
		}(i)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i].Makespan != want.Makespan {
			t.Fatalf("concurrent replay %d: %v != %v", i, results[i].Makespan, want.Makespan)
		}
	}
}

func TestFrozenDataModeFlag(t *testing.T) {
	plan, f := frozenTestPlan(t, true)
	fp := plan.Freeze()
	if !fp.HasExec() {
		t.Fatal("data-mode plan must report Exec closures")
	}
	if fp.Fabric() != f {
		t.Fatal("frozen plan lost its fabric")
	}
	n := int(plan.TotalBytes / 4)
	bufs := simgpu.NewBufferSet()
	for v := 0; v < 4; v++ {
		in := make([]float32, n)
		for i := range in {
			in[i] = float32(v + 1)
		}
		bufs.SetBuffer(v, BufData, in)
	}
	if _, err := fp.ReplayData(bufs); err != nil {
		t.Fatal(err)
	}
	acc := bufs.Buffer(0, BufAcc, n)
	for i := 0; i < n; i += n / 7 {
		if acc[i] != 10 {
			t.Fatalf("acc[%d] = %v, want 10", i, acc[i])
		}
	}
}

// memoCase builds one schedule — fresh on every call, since a run mutates
// its ops — over an arena of ranks vertices holding floats per buffer.
type memoCase struct {
	name          string
	ranks, floats int
	build         func(t *testing.T, data bool) *Plan
}

// memoCases is one schedule of every plan shape a FrozenPlan holds: trees,
// the per-source exchange, the two-plane hybrid behind its peer-access gate,
// and the marked three-phase cluster plan.
func memoCases(t *testing.T) []memoCase {
	const floats = 6000 // several 4 KB chunks per tree, not chunk-aligned
	opts := func(data bool) PlanOptions { return PlanOptions{DataMode: data, ChunkBytes: 4096} }
	must := func(p *Plan, err error) *Plan {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	ind, err := topology.DGX1V().Induce([]int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// A negligible peer-access switch gives PCIe a share of a small payload.
	cfg := simgpu.Config{DisablePeerBase: 1e-9, DisablePeerPerGPU: 1e-9}
	nvl, pcie := simgpu.NewFabric(ind, ind.GPUGraph(), cfg), simgpu.NewFabric(ind, ind.PCIeGraph(), cfg)
	packs := map[[2]int]*Packing{}
	pack := func(f *simgpu.Fabric, plane, root int) *Packing {
		t.Helper()
		if packs[[2]int{plane, root}] == nil {
			p, err := GenerateTrees(f.Graph, root, PackOptions{}, MinimizeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			packs[[2]int{plane, root}] = p
		}
		return packs[[2]int{plane, root}]
	}
	c, fabrics, wide := threePhaseFixture(t)
	clusterPack := func(si, root int) (*Packing, error) {
		return GenerateTrees(c.Servers[si].GPUGraph(), root, PackOptions{}, MinimizeOptions{})
	}
	return []memoCase{
		{"Broadcast", 4, floats, func(t *testing.T, data bool) *Plan {
			return must(BuildBroadcastPlan(nvl, pack(nvl, 0, 0), floats*4, opts(data)))
		}},
		{"AllReduce", 4, floats, func(t *testing.T, data bool) *Plan {
			return must(BuildAllReducePlan(nvl, pack(nvl, 0, 0), floats*4, opts(data)))
		}},
		{"AllToAll", 4, floats, func(t *testing.T, data bool) *Plan {
			packFor := func(root int) (*Packing, error) { return pack(nvl, 0, root), nil }
			return must(BuildAllToAllPlan(nvl, packFor, floats*4, opts(data)))
		}},
		{"HybridBroadcast", 4, 1 << 20, func(t *testing.T, data bool) *Plan {
			plan, split, err := BuildHybridBroadcastPlan(nvl, pack(nvl, 0, 0), pcie, pack(pcie, 1, 0), 4<<20, PlanOptions{DataMode: data})
			if err == nil && split.PCIeBytes == 0 {
				t.Fatal("hybrid split gave PCIe nothing: the case covers one plane only")
			}
			return must(plan, err)
		}},
		{"ThreePhaseAllReduce", c.TotalGPUs(), floats, func(t *testing.T, data bool) *Plan {
			return must(BuildThreePhaseAllReduce(c, fabrics, wide, clusterPack, floats*4, opts(data)))
		}},
	}
}

// stage fills an arena with non-integer inputs, so the order reductions
// were summed in shows in the low bits of their results.
func (c memoCase) stage() *simgpu.BufferSet {
	bufs := simgpu.NewBufferSet()
	for v := 0; v < c.ranks; v++ {
		in := make([]float32, c.floats)
		for i := range in {
			in[i] = float32(v+1)*1.1 + float32(i%977)*0.37
		}
		bufs.SetBuffer(v, BufData, in)
	}
	return bufs
}

// diff reports the first element in which two arenas of the case differ,
// over every buffer a collective reads or delivers into.
func (c memoCase) diff(a, b *simgpu.BufferSet) string {
	tags := []int{BufData, BufAcc}
	for r := 0; r < c.ranks; r++ {
		tags = append(tags, ExchangeTag(r))
	}
	for v := 0; v < c.ranks; v++ {
		for _, tag := range tags {
			x, y := a.Buffer(v, tag, c.floats), b.Buffer(v, tag, c.floats)
			for i := range x {
				if math.Float32bits(x[i]) != math.Float32bits(y[i]) {
					return fmt.Sprintf("vertex %d tag %d float %d: %v != %v", v, tag, i, x[i], y[i])
				}
			}
		}
	}
	return ""
}

// TestReplayIsTheSimulation: a frozen plan's replay is the simulation Freeze
// ran, for every plan shape in both modes. Against simgpu.RunHooked over a
// fresh op set it returns the same result bit for bit, runs the Exec
// closures in the order the simulator launched them and leaves the same bits
// in the arena; freezing runs no Exec, and a timing replay of a data-mode
// plan still runs them all, against an arena of its own. A data replay
// reports progress as (1,n)…(n,n); a timing replay, which moves nothing,
// reports it exactly once, as (n,n).
func TestReplayIsTheSimulation(t *testing.T) {
	for _, c := range memoCases(t) {
		for _, data := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/data=%v", c.name, data), func(t *testing.T) {
				ref, refBufs := c.build(t, data), c.stage()
				var wantExecs []int
				want, err := simgpu.RunHooked(ref.Fabric.Links, ref.Ops, refBufs, func(i int, op *simgpu.Op) {
					if op.Exec != nil {
						wantExecs = append(wantExecs, i)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if data == (wantExecs == nil) {
					t.Fatalf("data mode %v but %d ops carry an Exec", data, len(wantExecs))
				}

				plan := c.build(t, data)
				var execs []int
				for i, op := range plan.Ops {
					if i, exec := i, op.Exec; exec != nil {
						op.Exec = func(b *simgpu.BufferSet, w simgpu.Window) {
							// Count the walk of the calling goroutine's
							// stripe, the one from float 0; the resolve
							// walk's empty window moves nothing.
							if w.Lo == 0 && w.Hi > 0 {
								execs = append(execs, i)
							}
							exec(b, w)
						}
					}
				}
				fp := plan.Freeze()
				if len(execs) != 0 {
					t.Fatalf("Freeze ran %d Exec closures", len(execs))
				}
				bufs := c.stage()
				var calls [][2]int
				got, err := fp.ReplayDataHooked(bufs, func(d, total int) {
					calls = append(calls, [2]int{d, total})
				})
				if err != nil {
					t.Fatal(err)
				}
				n := fp.NumOps()
				wantCalls := [][2]int{{n, n}}
				if data {
					wantCalls = wantCalls[:0]
					for d := 1; d <= n; d++ {
						wantCalls = append(wantCalls, [2]int{d, n})
					}
				}
				if !reflect.DeepEqual(calls, wantCalls) {
					t.Fatalf("hook saw %d calls, want %d: (%d, %d) … (%d, %d)", len(calls), len(wantCalls),
						wantCalls[0][0], n, n, n)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("replay %+v != simulation %+v", got, want)
				}
				if !reflect.DeepEqual(execs, wantExecs) {
					t.Fatal("replay ran the Exec closures in another order than the simulator launched them")
				}
				if d := c.diff(bufs, refBufs); d != "" {
					t.Fatalf("replayed arena differs from the executed one: %s", d)
				}
				if got, err := fp.Replay(); err != nil || !reflect.DeepEqual(got, want) || len(execs) != 2*len(wantExecs) {
					t.Fatalf("timing replay: %+v, %v, %d Exec calls in all (want %d)", got, err, len(execs), 2*len(wantExecs))
				}
			})
		}
	}
}

// TestReplayConcurrentDataHooked: sixteen goroutines replaying one data-mode
// plan, each with its own arena and hook, share nothing writable — every one
// gets the executed plan's result and bits (run under -race by `make race`).
func TestReplayConcurrentDataHooked(t *testing.T) {
	c := memoCases(t)[1]
	refBufs, ref := c.stage(), c.build(t, true)
	want, err := simgpu.Run(ref.Fabric.Links, ref.Ops, refBufs)
	if err != nil {
		t.Fatal(err)
	}
	fp := c.build(t, true).Freeze()
	var wg sync.WaitGroup
	arenas, fails := make([]*simgpu.BufferSet, 16), make([]string, 16)
	for g := range arenas {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			calls := 0
			arenas[g] = c.stage()
			got, err := fp.ReplayDataHooked(arenas[g], func(int, int) { calls++ })
			if err != nil {
				fails[g] = err.Error()
			} else if !reflect.DeepEqual(got, want) || calls != want.Ops {
				fails[g] = fmt.Sprintf("%+v after %d hook calls, want %+v after %d", got, calls, want, want.Ops)
			}
		}(g)
	}
	wg.Wait()
	for g, f := range fails {
		if f == "" {
			f = c.diff(arenas[g], refBufs) // reading an arena grows it: not for the goroutines to share
		}
		if f != "" {
			t.Fatalf("goroutine %d: %s", g, f)
		}
	}
}

// TestStripedReplayNestedConcurrency: four goroutines replay one frozen
// data-mode plan at once, each with its own arena, while each replay splits
// into GOMAXPROCS=4 stripes — sixteen concurrent walks over four arenas.
// Every arena ends bit-equal to the simulator's serial run, every replay ran
// four stripes, and no stripe goroutine outlives the replays (run under
// -race by `make race`).
func TestStripedReplayNestedConcurrency(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const replays, stripes = 4, 4
	ind, err := topology.DGX1V().Induce([]int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	f := simgpu.NewFabric(ind, ind.GPUGraph(), simgpu.Config{DataMode: true})
	p, err := GenerateTrees(f.Graph, 0, PackOptions{}, MinimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := memoCase{"AllReduce", 4, stripes * minStripeFloats, func(t *testing.T, _ bool) *Plan {
		plan, err := BuildAllReducePlan(f, p, stripes*minStripeFloats*4, PlanOptions{DataMode: true, ChunkBytes: 64 << 10})
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}}
	ref, refBufs := c.build(t, true), c.stage()
	if _, err := simgpu.Run(ref.Fabric.Links, ref.Ops, refBufs); err != nil {
		t.Fatal(err)
	}
	plan := c.build(t, true)
	var walks, execOps atomic.Int64
	for _, op := range plan.Ops {
		if exec := op.Exec; exec != nil {
			execOps.Add(1)
			op.Exec = func(b *simgpu.BufferSet, w simgpu.Window) {
				if w.Lo < w.Hi {
					walks.Add(1)
				}
				exec(b, w)
			}
		}
	}
	fp := plan.Freeze()
	base := runtime.NumGoroutine()
	var wg sync.WaitGroup
	arenas, errs := make([]*simgpu.BufferSet, replays), make([]error, replays)
	for g := range arenas {
		arenas[g] = c.stage()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, errs[g] = fp.ReplayData(arenas[g])
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
		if d := c.diff(arenas[g], refBufs); d != "" {
			t.Fatalf("replay %d: %s", g, d)
		}
	}
	if got, want := walks.Load(), replays*stripes*execOps.Load(); got != want {
		t.Fatalf("%d striped Exec calls, want %d replays x %d stripes x %d ops", got, replays, stripes, execOps.Load())
	}
	// A stripe goroutine signals its replay before it exits: poll.
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the replays, %d before", runtime.NumGoroutine(), base)
		}
	}
}

// TestReplayOfUnrunnableSchedule: a schedule the simulator cannot finish (a
// dependency cycle beside one free op) fails at Freeze with the simulator's
// own error, and every replay returns that error having run no Exec and
// called no hook — the simulator would have launched the free op first.
func TestReplayOfUnrunnableSchedule(t *testing.T) {
	good, _ := frozenTestPlan(t, false)
	ran := 0
	exec := func(*simgpu.BufferSet, simgpu.Window) { ran++ }
	ops := func() []*simgpu.Op {
		return []*simgpu.Op{
			{Stream: 0, Link: -1, Deps: []int{1}, Exec: exec},
			{Stream: 1, Link: -1, Deps: []int{0}, Exec: exec},
			{Stream: 2, Link: -1, Exec: exec},
		}
	}
	_, want := simgpu.Run(good.Fabric.Links, ops(), nil)
	if want == nil || ran != 1 {
		t.Fatalf("simulator: error %v after %d Exec calls, want a deadlock after 1", want, ran)
	}
	ran = 0
	fp := (&Plan{Ops: ops(), Fabric: good.Fabric}).Freeze()
	hook := func(int, int) { ran++ }
	for i, replay := range []func() (simgpu.Result, error){
		fp.Replay,
		func() (simgpu.Result, error) { return fp.ReplayData(simgpu.NewBufferSet()) },
		func() (simgpu.Result, error) { return fp.ReplayDataHooked(nil, hook) },
	} {
		if _, err := replay(); err == nil || err.Error() != want.Error() {
			t.Fatalf("replay %d: error %v, want %v", i, err, want)
		}
	}
	if ran != 0 {
		t.Fatalf("%d Exec or hook calls on a schedule that cannot run", ran)
	}
}

// TestHookedTimingReplayAllocatesNothing: a progress hook on a timing plan
// costs one call per replay, whatever the schedule's op count, and no
// allocation — in particular no throwaway arena, which only a plan with Exec
// closures needs.
func TestHookedTimingReplayAllocatesNothing(t *testing.T) {
	ops := 0
	for _, bytes := range []int64{1 << 20, 64 << 20} {
		plan, _ := allReduceTestPlan(t, false, bytes)
		fp := plan.Freeze()
		if fp.NumOps() <= ops {
			t.Fatalf("%d MB plan has %d ops, the smaller one %d: the sizes do not differ in op count", bytes>>20, fp.NumOps(), ops)
		}
		ops = fp.NumOps()
		calls, bad := 0, 0
		hook := func(done, total int) {
			if calls++; done != fp.NumOps() || total != fp.NumOps() {
				bad++
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := fp.ReplayDataHooked(nil, hook); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 || calls != 11 || bad != 0 {
			t.Fatalf("%d MB: hooked timing replay of %d ops: %.0f allocations, %d hook calls over 11 replays, %d not (%d, %d)",
				bytes>>20, fp.NumOps(), allocs, calls, bad, fp.NumOps(), fp.NumOps())
		}
	}
}
