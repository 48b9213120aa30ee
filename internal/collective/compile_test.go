package collective

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"blink/internal/simgpu"
	"blink/internal/topology"
)

func newDGX1Engine(t *testing.T) *Engine {
	t.Helper()
	eng, err := NewEngine(topology.DGX1V(), []int{0, 1, 2, 3, 4, 5, 6, 7}, simgpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// The fast path must publish a usable plan immediately and converge to the
// exact packing (and the exact plan's simulated timing) once the background
// refinement swaps in.
func TestFastCompilePublishesThenRefines(t *testing.T) {
	exact := newDGX1Engine(t)
	exactRes, err := exact.Run(Blink, Broadcast, 0, 32<<20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	exactPack, err := exact.Packing(0)
	if err != nil {
		t.Fatal(err)
	}

	fast := newDGX1Engine(t)
	fast.SetFastCompile(true)
	fastRes, err := fast.Run(Blink, Broadcast, 0, 32<<20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fastRes.Seconds <= 0 {
		t.Fatalf("fast-path result not usable: %+v", fastRes)
	}
	if got := fast.Metrics().Counter("blink_fastpath_compiles_total").Value(); got == 0 {
		t.Fatal("fast path did not record a compile")
	}

	fast.WaitRefinements()
	refined, err := fast.Packing(0)
	if err != nil {
		t.Fatal(err)
	}
	if refined.Rate != exactPack.Rate {
		t.Fatalf("refined rate %v != exact rate %v", refined.Rate, exactPack.Rate)
	}
	// The refinement republished the cached plan; the next dispatch must
	// replay a schedule identical to the exact engine's.
	swapRes, err := fast.Run(Blink, Broadcast, 0, 32<<20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if swapRes.Seconds != exactRes.Seconds {
		t.Fatalf("post-swap makespan %v != exact makespan %v", swapRes.Seconds, exactRes.Seconds)
	}
	if got := fast.Metrics().Counter("blink_refine_swaps_total").Value(); got == 0 {
		t.Fatal("refinement did not swap the pending plan")
	}
}

// Concurrent fast-path dispatches across roots and ops must be race-free
// (exercised under `make race`) and still converge to the exact packings.
func TestFastCompileConcurrentDispatches(t *testing.T) {
	exact := newDGX1Engine(t)
	fast := newDGX1Engine(t)
	fast.SetFastCompile(true)

	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			op := Broadcast
			if i%2 == 1 {
				op = AllReduce
			}
			_, errs[i] = fast.Run(Blink, op, i%8, 8<<20, Options{})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("dispatch %d: %v", i, err)
		}
	}
	fast.WaitRefinements()
	for root := 0; root < 8; root++ {
		fp, err := fast.Packing(root)
		if err != nil {
			t.Fatal(err)
		}
		ep, err := exact.Packing(root)
		if err != nil {
			t.Fatal(err)
		}
		if fp.Rate != ep.Rate {
			t.Fatalf("root %d: refined rate %v != exact rate %v", root, fp.Rate, ep.Rate)
		}
	}
}

// Reconfigure must repair surviving packings incrementally: every root
// replans at a rate within the §3.2.1 threshold of a from-scratch engine on
// the faulted machine, and the repair counters record the outcomes.
func TestReconfigureIncrementalRepair(t *testing.T) {
	eng := newDGX1Engine(t)
	if err := eng.Prewarm(nil); err != nil {
		t.Fatal(err)
	}
	degraded, err := topology.DGX1V().WithoutLink(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Reconfigure(degraded, nil); err != nil {
		t.Fatal(err)
	}
	repaired := eng.Metrics().Counter("blink_repair_incremental_total").Value()
	if repaired == 0 {
		t.Fatal("no packing was repaired incrementally")
	}

	fresh, err := NewEngine(degraded, []int{0, 1, 2, 3, 4, 5, 6, 7}, simgpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g := eng.Topo().GPUGraph()
	for root := 0; root < 8; root++ {
		rp, err := eng.Packing(root)
		if err != nil {
			t.Fatal(err)
		}
		if err := rp.Validate(g); err != nil {
			t.Fatalf("root %d: repaired packing invalid: %v", root, err)
		}
		fp, err := fresh.Packing(root)
		if err != nil {
			t.Fatal(err)
		}
		if rp.Rate < fp.Rate*(1-0.05)-1e-9 {
			t.Fatalf("root %d: repaired rate %v below 95%% of recompiled rate %v", root, rp.Rate, fp.Rate)
		}
	}
	// Post-repair dispatches must work.
	if _, err := eng.Run(Blink, AllReduce, 0, 16<<20, Options{}); err != nil {
		t.Fatal(err)
	}
}

// Repair must survive an eviction (vertex renumbering) too: surviving
// roots' packings map onto the shrunken vertex set or fall back cleanly.
func TestReconfigureRepairAcrossEviction(t *testing.T) {
	eng := newDGX1Engine(t)
	if err := eng.Prewarm(nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.ReconfigureExclude([]int{7}); err != nil {
		t.Fatal(err)
	}
	g := eng.Topo().GPUGraph()
	for root := 0; root < eng.Topo().NumGPUs; root++ {
		p, err := eng.Packing(root)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(g); err != nil {
			t.Fatalf("root %d: packing invalid after eviction: %v", root, err)
		}
	}
	if _, err := eng.Run(Blink, AllReduce, 0, 8<<20, Options{}); err != nil {
		t.Fatal(err)
	}
}

// Satellite determinism regression: the same engine workload under
// GOMAXPROCS=1 and GOMAXPROCS=N must produce identical topology
// fingerprints, byte-identical packings and identical simulated plan
// timings.
func TestEngineDeterminismAcrossGOMAXPROCS(t *testing.T) {
	type outcome struct {
		fingerprint string
		packs       []*[8]float64
		seconds     []float64
	}
	build := func() outcome {
		eng := newDGX1Engine(t)
		if err := eng.Prewarm(nil); err != nil {
			t.Fatal(err)
		}
		var o outcome
		o.fingerprint = eng.Fingerprint()
		for root := 0; root < 8; root++ {
			p, err := eng.Packing(root)
			if err != nil {
				t.Fatal(err)
			}
			var w [8]float64
			for i, tr := range p.Trees {
				if i < len(w) {
					w[i] = tr.Weight
				}
			}
			o.packs = append(o.packs, &w)
		}
		for _, op := range []Op{Broadcast, AllReduce, AllGather} {
			res, err := eng.Run(Blink, op, 0, 8<<20, Options{})
			if err != nil {
				t.Fatal(err)
			}
			o.seconds = append(o.seconds, res.Seconds)
		}
		return o
	}
	old := runtime.GOMAXPROCS(1)
	seq := build()
	runtime.GOMAXPROCS(8)
	par := build()
	runtime.GOMAXPROCS(old)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("engine outcome differs across GOMAXPROCS:\n1: %+v\nN: %+v", seq, par)
	}
}

// Prewarmed packings must be identical to lazily compiled ones — Prewarm
// moves latency, never results.
func TestPrewarmMatchesLazyCompilation(t *testing.T) {
	warm := newDGX1Engine(t)
	if err := warm.Prewarm(nil); err != nil {
		t.Fatal(err)
	}
	lazy := newDGX1Engine(t)
	for root := 0; root < 8; root++ {
		wp, err := warm.Packing(root)
		if err != nil {
			t.Fatal(err)
		}
		lp, err := lazy.Packing(root)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wp, lp) {
			t.Fatalf("root %d: prewarmed packing differs from lazy", root)
		}
	}
}

// A fast-path engine that reconfigures mid-refinement must not swap stale
// plans into the new state's cache (the refinement checks the state
// pointer) and must keep dispatching correctly.
func TestFastCompileThenReconfigure(t *testing.T) {
	eng := newDGX1Engine(t)
	eng.SetFastCompile(true)
	if _, err := eng.Run(Blink, Broadcast, 0, 16<<20, Options{}); err != nil {
		t.Fatal(err)
	}
	degraded, err := topology.DGX1V().WithoutLink(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Reconfigure(degraded, nil); err != nil {
		t.Fatal(err)
	}
	eng.WaitRefinements()
	res, err := eng.Run(Blink, Broadcast, 0, 16<<20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seconds <= 0 {
		t.Fatalf("post-reconfigure dispatch unusable: %+v", res)
	}
	eng.WaitRefinements()
}
