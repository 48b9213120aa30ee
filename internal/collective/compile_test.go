package collective

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"blink/internal/simgpu"
	"blink/internal/topology"
)

func newDGX1Engine(t *testing.T) *Engine {
	t.Helper()
	eng := newEng(t, []int{0, 1, 2, 3, 4, 5, 6, 7})
	return eng
}

// Concurrent cold dispatches over every root and two ops compile each
// packing once, on the calling goroutines: packings and results match a
// sequentially compiled engine's, and nothing the calls started is still
// running when the last one returns. Exercised under `make race`.
func TestConcurrentColdDispatches(t *testing.T) {
	const calls = 16
	run := func(eng *Engine, i int) (Result, error) {
		return eng.Run(Blink, []Op{Broadcast, AllReduce}[i/8], i%8, 8<<20, Options{})
	}
	seq := newDGX1Engine(t)
	want := make([]Result, calls)
	for i := range want {
		var err error
		if want[i], err = run(seq, i); err != nil {
			t.Fatal(err)
		}
	}

	// Workers park before and after their call, so the two goroutine counts
	// differ only by what the engine left running.
	eng := newDGX1Engine(t)
	got, errs := make([]Result, calls), make([]error, calls)
	var ready, done sync.WaitGroup
	start, release := make(chan struct{}), make(chan struct{})
	ready.Add(calls)
	done.Add(calls)
	for i := 0; i < calls; i++ {
		go func(i int) {
			ready.Done()
			<-start
			got[i], errs[i] = run(eng, i)
			done.Done()
			<-release
		}(i)
	}
	ready.Wait()
	before := runtime.NumGoroutine()
	close(start)
	done.Wait()
	after := runtime.NumGoroutine()
	close(release)
	if after != before {
		t.Fatalf("%d goroutines before the calls, %d after the last returned", before, after)
	}
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("dispatch %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Fatalf("dispatch %d: concurrent %+v != sequential %+v", i, got[i], want[i])
		}
	}
	for root := 0; root < 8; root++ {
		cp, err := eng.Packing(root)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := seq.Packing(root)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cp, sp) {
			t.Fatalf("root %d: concurrently compiled packing differs from sequential", root)
		}
	}
}

// Prewarm reports a root outside the allocation as an error; it used to
// panic inside a ParallelMap worker, where no caller could recover. Of
// several failing roots, the first in the caller's order is the one
// reported, whichever worker failed first.
func TestPrewarmRejectsRootOutsideAllocation(t *testing.T) {
	err := newDGX1Engine(t).Prewarm([]int{0, 9, 8})
	if err == nil || !strings.Contains(err.Error(), "root 9 ") {
		t.Fatalf("Prewarm([0 9 8]) on an 8-GPU engine: %v, want root 9's error", err)
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

	fresh := mustEngine(t, degraded, []int{0, 1, 2, 3, 4, 5, 6, 7}, simgpu.Config{})
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
	mustRun(t, eng, Blink, AllReduce, 16<<20, Options{})
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
	mustRun(t, eng, Blink, AllReduce, 8<<20, Options{})
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
			res := mustRun(t, eng, Blink, op, 8<<20, Options{})
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
