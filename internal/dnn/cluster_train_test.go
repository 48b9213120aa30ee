package dnn

import (
	"testing"
	"time"

	"blink/internal/cluster"
	"blink/internal/collective"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

func wallClock() float64 { return float64(time.Now().UnixNano()) / 1e9 }

func TestSimulateClusterTrainingRun(t *testing.T) {
	c, err := (cluster.Scenario{Pieces: []int{4, 4}}).Cluster(topology.DGX1V(), 100)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := collective.NewClusterEngine(c, simgpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := SimulateTrainingRun(eng, collective.Blink, ResNet50(), 25<<20, 4, wallClock)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Buckets == 0 || tr.StepSeconds <= 0 {
		t.Fatalf("training run = %+v", tr)
	}
	// Every step after the first replays frozen cluster plans.
	wantHits := uint64(tr.Buckets * 3)
	if tr.CacheHits < wantHits {
		t.Fatalf("cache hits = %d, want >= %d (3 warm steps x %d buckets)", tr.CacheHits, wantHits, tr.Buckets)
	}
}

func TestClusterEngineCommIteration(t *testing.T) {
	c, err := (cluster.Scenario{Pieces: []int{3, 5}}).Cluster(topology.DGX1V(), 100)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := collective.NewClusterEngine(c, simgpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := VGG16()
	blink, err := SimulateIteration(m, topology.GenV100, c.TotalGPUs(), EngineComm(eng, collective.Blink))
	if err != nil {
		t.Fatal(err)
	}
	ring, err := SimulateIteration(m, topology.GenV100, c.TotalGPUs(), EngineComm(eng, collective.NCCL))
	if err != nil {
		t.Fatal(err)
	}
	if blink.IterSeconds <= 0 || blink.CommSeconds <= 0 {
		t.Fatalf("blink iteration = %+v", blink)
	}
	// VGG's large gradients make the cluster iteration communication-bound,
	// so the three-phase protocol must shorten it vs the flat ring.
	if blink.IterSeconds >= ring.IterSeconds {
		t.Fatalf("three-phase iteration %.4fs not faster than flat ring %.4fs",
			blink.IterSeconds, ring.IterSeconds)
	}
	// The adapter memoizes per tensor size: re-running must give identical
	// (deterministic, cached) timings.
	again, err := SimulateIteration(m, topology.GenV100, c.TotalGPUs(), EngineComm(eng, collective.Blink))
	if err != nil {
		t.Fatal(err)
	}
	if again.IterSeconds != blink.IterSeconds {
		t.Fatalf("iteration time diverged: %v != %v", again.IterSeconds, blink.IterSeconds)
	}
}

func TestSimulateScenarioTraining(t *testing.T) {
	scs, err := cluster.Scenarios(cluster.Config{Jobs: 4000, Seed: 9}, 3)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := SimulateScenarioTraining(scs, topology.DGX1V(), 100, VGG16(), 25<<20, 3, wallClock)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(scs) {
		t.Fatalf("%d results for %d scenarios", len(outs), len(scs))
	}
	for _, o := range outs {
		if o.GPUs < 4 || o.Run.StepSeconds <= 0 || o.RingStepSeconds <= 0 {
			t.Fatalf("scenario %s: %+v", o.Allocation, o)
		}
		// The three-phase protocol should not lose to the flat ring on
		// NIC-bound fragmented allocations.
		if o.StepSpeedup <= 1 {
			t.Fatalf("scenario %s: three-phase step %.4fs not faster than ring %.4fs",
				o.Allocation, o.Run.StepSeconds, o.RingStepSeconds)
		}
	}
}
