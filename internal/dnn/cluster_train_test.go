package dnn

import (
	"testing"
	"time"

	"blink/internal/collective"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

func wallClock() float64 { return float64(time.Now().UnixNano()) / 1e9 }

// dgx1vCluster joins one DGX-1V server per piece size, each allocating
// GPUs 0..piece-1, over nicGbps NICs.
func dgx1vCluster(t *testing.T, nicGbps float64, pieces ...int) *topology.Cluster {
	t.Helper()
	var servers []topology.Server
	for _, p := range pieces {
		devs := make([]int, p)
		for i := range devs {
			devs[i] = i
		}
		servers = append(servers, topology.Server{Machine: topology.DGX1V(), Devs: devs})
	}
	c, err := topology.NewCluster(servers, nicGbps)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSimulateClusterTrainingRun runs the training loop on a 4+4 cluster,
// whose warm steps replay frozen cluster plans.
func TestSimulateClusterTrainingRun(t *testing.T) {
	eng, err := collective.NewClusterEngine(dgx1vCluster(t, 100, 4, 4), simgpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	checkTrainingRun(t, eng)
}

func TestClusterEngineCommIteration(t *testing.T) {
	c := dgx1vCluster(t, 100, 3, 5)
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
