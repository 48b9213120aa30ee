package dnn

import (
	"testing"

	"blink/internal/collective"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

func TestGradientBuckets(t *testing.T) {
	m := VGG16()
	unfused := GradientBuckets(m, 0)
	if len(unfused) != len(m.Layers) {
		t.Fatalf("unfused buckets = %d, want one per layer (%d)", len(unfused), len(m.Layers))
	}
	fused := GradientBuckets(m, 25<<20)
	if len(fused) >= len(unfused) {
		t.Fatalf("fusion did not shrink the group: %d vs %d", len(fused), len(unfused))
	}
	var totalF, totalU int64
	for _, b := range fused {
		totalF += b
	}
	for _, b := range unfused {
		totalU += b
	}
	if totalF != totalU || totalF != m.TotalBytes() {
		t.Fatalf("fusion lost bytes: %d vs %d vs %d", totalF, totalU, m.TotalBytes())
	}
	// Backward order: the first bucket fuses the network's top (last)
	// layers — fc8 then fc7 cross the 25 MB threshold together; fc6 opens
	// the second bucket.
	if want := mbBytes(15.6) + mbBytes(64.0); fused[0] != want {
		t.Fatalf("first bucket = %d, want fc8+fc7 = %d", fused[0], want)
	}
	if fused[1] != mbBytes(392.0) {
		t.Fatalf("second bucket = %d, want fc6 = %d", fused[1], mbBytes(392.0))
	}
}

func TestTrainStepWarmCache(t *testing.T) {
	eng, err := collective.NewEngine(topology.DGX1V(), []int{0, 1, 2, 3, 4, 5, 6, 7}, simgpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := ResNet50()
	g1, err := TrainStep(eng, collective.Blink, m, 25<<20)
	if err != nil {
		t.Fatal(err)
	}
	if g1.CacheMisses == 0 {
		t.Fatal("first step should compile at least one schedule")
	}
	g2, err := TrainStep(eng, collective.Blink, m, 25<<20)
	if err != nil {
		t.Fatal(err)
	}
	if g2.CacheMisses != 0 {
		t.Fatalf("steady-state step recompiled %d schedules", g2.CacheMisses)
	}
	if g2.CacheHits != uint64(len(GradientBuckets(m, 25<<20))) {
		t.Fatalf("steady-state hits = %d, want %d", g2.CacheHits, len(GradientBuckets(m, 25<<20)))
	}
	if g1.Seconds != g2.Seconds {
		t.Fatalf("step time changed across iterations: %.9f vs %.9f", g1.Seconds, g2.Seconds)
	}
}

// checkTrainingRun runs a short training loop on eng: every step after the
// first replays frozen plans, and the warm steps dispatch faster than the
// cold one.
func checkTrainingRun(t *testing.T, eng *collective.Engine) {
	t.Helper()
	const iters = 4
	tr, err := SimulateTrainingRun(eng, collective.Blink, ResNet50(), 25<<20, iters, wallClock)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Buckets == 0 || tr.StepSeconds <= 0 {
		t.Fatalf("degenerate run: %+v", tr)
	}
	// Warm steps replay frozen plans; cold pays TreeGen + minimize +
	// CodeGen. The gap is orders of magnitude, so a plain comparison is
	// robust even on noisy CI machines.
	if tr.WarmWallSeconds >= tr.ColdWallSeconds {
		t.Fatalf("warm dispatch %.6fs not below cold %.6fs", tr.WarmWallSeconds, tr.ColdWallSeconds)
	}
	if tr.CacheMisses == 0 || tr.CacheHits < uint64(tr.Buckets*(iters-1)) {
		t.Fatalf("cache hits = %d, want >= %d (%d warm steps x %d buckets): %+v", tr.CacheHits, tr.Buckets*(iters-1), iters-1, tr.Buckets, tr)
	}
}

func TestSimulateTrainingRun(t *testing.T) {
	eng, err := collective.NewEngine(topology.DGX1V(), []int{0, 1, 2, 3, 4, 5, 6, 7}, simgpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	checkTrainingRun(t, eng)
	if _, err := SimulateTrainingRun(eng, collective.Blink, ResNet50(), 25<<20, 1, wallClock); err == nil {
		t.Fatal("iters=1 accepted")
	}
}
