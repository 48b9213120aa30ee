package dnn

import (
	"math"
	"sync"
	"testing"

	"blink/internal/collective"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

func TestModelSizes(t *testing.T) {
	want := map[string]float64{ // total fp32 MB, +-12%
		"AlexNet":  233,
		"ResNet18": 45,
		"ResNet50": 98,
		"VGG16":    528,
	}
	for _, m := range Zoo() {
		mbTotal := float64(m.TotalBytes()) / (1 << 20)
		w := want[m.Name]
		if math.Abs(mbTotal-w)/w > 0.12 {
			t.Errorf("%s total = %.1f MB, want ~%.0f", m.Name, mbTotal, w)
		}
		if m.BatchPerGPU <= 0 || len(m.Layers) == 0 {
			t.Errorf("%s malformed", m.Name)
		}
		for _, gen := range []topology.Gen{topology.GenP100, topology.GenV100} {
			ct, ok := m.Compute[gen]
			if !ok || ct.Fwd <= 0 || ct.Bwd <= 0 {
				t.Errorf("%s missing compute for %v", m.Name, gen)
			}
		}
	}
}

func TestSimulateIterationOverlap(t *testing.T) {
	m := ResNet50()
	// Infinite bandwidth: zero overhead.
	fast := func(int64) (float64, error) { return 0, nil }
	st, err := SimulateIteration(m, topology.GenV100, 8, fast)
	if err != nil {
		t.Fatal(err)
	}
	if st.CommOverheadFrac != 0 {
		t.Fatalf("free comm still shows overhead %.3f", st.CommOverheadFrac)
	}
	if st.IterSeconds != st.ComputeSeconds {
		t.Fatal("iter time should equal compute with free comm")
	}
	// Slow comm: overhead grows but partial overlap keeps iter below
	// compute+comm.
	slow := AnalyticComm(1.0, 0)
	st2, err := SimulateIteration(m, topology.GenV100, 8, slow)
	if err != nil {
		t.Fatal(err)
	}
	if st2.CommOverheadFrac <= 0 {
		t.Fatal("slow comm shows no overhead")
	}
	if st2.IterSeconds >= st2.ComputeSeconds+st2.CommSeconds {
		t.Fatal("WFBP produced no overlap at all")
	}
}

func TestCommPercentagesMatchFig5(t *testing.T) {
	// Figure 5 (DGX-1V, NCCL): communication overhead ranges up to ~50%
	// and varies strongly with the allocation. Check the 8-GPU best case
	// and a PCIe-fallback worst case for each model.
	v := topology.DGX1V()
	worstDevs := []int{1, 4, 5, 6} // no NVLink ring -> PCIe fallback
	bestDevs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, m := range Zoo() {
		engBest, err := collective.NewEngine(v, bestDevs, simgpu.Config{})
		if err != nil {
			t.Fatal(err)
		}
		best, err := SimulateIteration(m, v.Gen, len(bestDevs), EngineComm(engBest, collective.NCCL))
		if err != nil {
			t.Fatal(err)
		}
		engWorst, err := collective.NewEngine(v, worstDevs, simgpu.Config{})
		if err != nil {
			t.Fatal(err)
		}
		worst, err := SimulateIteration(m, v.Gen, len(worstDevs), EngineComm(engWorst, collective.NCCL))
		if err != nil {
			t.Fatal(err)
		}
		if worst.CommOverheadFrac <= best.CommOverheadFrac {
			t.Errorf("%s: worst overhead %.2f not above best %.2f", m.Name, worst.CommOverheadFrac, best.CommOverheadFrac)
		}
		if worst.CommOverheadFrac < 0.1 || worst.CommOverheadFrac > 0.9 {
			t.Errorf("%s worst-case overhead %.2f outside Fig 5's regime", m.Name, worst.CommOverheadFrac)
		}
		if best.CommOverheadFrac > 0.35 {
			t.Errorf("%s best-case overhead %.2f too high for full NVLink", m.Name, best.CommOverheadFrac)
		}
	}
}

func TestCompareBlinkWins(t *testing.T) {
	// Figure 18: Blink reduces iteration time, most on fragmented
	// allocations.
	v := topology.DGX1V()
	for _, m := range []*Model{AlexNet(), VGG16()} {
		c, err := Compare(m, v, []int{1, 4, 5, 7}, simgpu.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if c.IterTimeReduction <= 0 {
			t.Errorf("%s: no iteration-time reduction on fragmented alloc (%+v)", m.Name, c)
		}
		if c.IterTimeReduction > 0.6 {
			t.Errorf("%s: reduction %.2f beyond paper's 40%% ceiling", m.Name, c.IterTimeReduction)
		}
		if c.CommTimeReduction <= 0 {
			t.Errorf("%s: no comm-time reduction", m.Name)
		}
	}
}

func TestCompareFullAllocationModest(t *testing.T) {
	v := topology.DGX1V()
	c, err := Compare(ResNet18(), v, []int{0, 1, 2, 3, 4, 5, 6, 7}, simgpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if c.IterTimeReduction < -0.05 {
		t.Fatalf("Blink slower than NCCL on full allocation: %+v", c)
	}
	if c.IterTimeReduction > 0.25 {
		t.Fatalf("full-allocation gain %.2f implausibly high for ResNet18", c.IterTimeReduction)
	}
}

func TestAnalyticComm(t *testing.T) {
	fn := AnalyticComm(10, 1e-4)
	tm, err := fn(1e9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tm-0.1001) > 1e-9 {
		t.Fatalf("analytic time = %v", tm)
	}
	bad := AnalyticComm(0, 0)
	if _, err := bad(1); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
}

func TestMultiServerComm(t *testing.T) {
	fn := MultiServerComm(dgx1vCluster(t, 40, 3, 5), simgpu.Config{})
	t1, err := fn(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if t1 <= 0 {
		t.Fatal("no time for multi-server allreduce")
	}
	// Cached second call returns identical value.
	t2, _ := fn(64 << 20)
	if t1 != t2 {
		t.Fatal("cache broken")
	}
}

// TestMultiServerCommConcurrent: the per-size memo is shared by every
// caller, so concurrent first calls (run under -race in make race) must
// agree with a serial one.
func TestMultiServerCommConcurrent(t *testing.T) {
	c := dgx1vCluster(t, 40, 2, 2)
	sizes := []int64{1 << 20, 2 << 20, 4 << 20}
	want := map[int64]float64{}
	serial := MultiServerComm(c, simgpu.Config{})
	for _, s := range sizes {
		var err error
		if want[s], err = serial(s); err != nil {
			t.Fatal(err)
		}
	}
	fn := MultiServerComm(c, simgpu.Config{})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range sizes {
				s := sizes[(g+i)%len(sizes)]
				if got, err := fn(s); err != nil || got != want[s] {
					t.Errorf("%d bytes: %v, %v; want %v", s, got, err, want[s])
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestSimulateIterationErrors(t *testing.T) {
	m := &Model{Name: "empty", Compute: map[topology.Gen]ComputeTime{topology.GenV100: {Fwd: 1, Bwd: 1}}}
	if _, err := SimulateIteration(m, topology.GenV100, 2, AnalyticComm(1, 0)); err == nil {
		t.Fatal("empty model accepted")
	}
	m2 := AlexNet()
	delete(m2.Compute, topology.GenP100)
	if _, err := SimulateIteration(m2, topology.GenP100, 2, AnalyticComm(1, 0)); err == nil {
		t.Fatal("missing gen accepted")
	}
}

func TestTransformerExtension(t *testing.T) {
	m := TransformerBase()
	total := float64(m.TotalBytes()) / (1 << 20)
	if total < 380 || total > 480 {
		t.Fatalf("Transformer gradients = %.0f MB, want ~420", total)
	}
	if len(ExtendedZoo()) != 5 {
		t.Fatalf("extended zoo size = %d", len(ExtendedZoo()))
	}
	c, err := Compare(m, topology.DGX1V(), []int{1, 4, 5, 7}, simgpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if c.IterTimeReduction <= 0 {
		t.Fatalf("Transformer sees no Blink gain on fragmented alloc: %+v", c)
	}
}

func TestBucketed(t *testing.T) {
	m := ResNet50()
	b := Bucketed(m, 64<<20)
	if b.TotalBytes() != m.TotalBytes() {
		t.Fatalf("bucketing changed total bytes: %d vs %d", b.TotalBytes(), m.TotalBytes())
	}
	if len(b.Layers) >= len(m.Layers) {
		t.Fatalf("bucketing did not fuse: %d vs %d layers", len(b.Layers), len(m.Layers))
	}
	// Huge bucket: single layer.
	one := Bucketed(m, 1<<40)
	if len(one.Layers) != 1 {
		t.Fatalf("giant bucket should fuse everything: %d layers", len(one.Layers))
	}
	// Tiny bucket: unchanged layer count.
	same := Bucketed(m, 1)
	if len(same.Layers) != len(m.Layers) {
		t.Fatalf("tiny bucket changed layer count: %d vs %d", len(same.Layers), len(m.Layers))
	}
}
