package dnn

import (
	"testing"

	"blink/internal/collective"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

// TestOverlappedTrainStepMatchesSequential checks the overlapped step
// moves exactly the sequential step's buckets: same simulated collective
// seconds, same bytes, full cache hits once warm.
func TestOverlappedTrainStepMatchesSequential(t *testing.T) {
	eng, err := collective.NewEngine(topology.DGX1V(), []int{0, 1, 2, 3, 4, 5, 6, 7}, simgpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := ResNet50()
	const bucket = 16 << 20
	want, err := TrainStep(eng, collective.Blink, m, bucket)
	if err != nil {
		t.Fatal(err)
	}
	got, err := OverlappedTrainStep(eng, collective.Blink, m, bucket, 0, collective.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Seconds != want.Seconds || got.Bytes != want.Bytes || len(got.Results) != len(want.Results) {
		t.Fatalf("overlapped %+v != sequential %+v", got, want)
	}
	for i := range got.Results {
		if got.Results[i].Seconds != want.Results[i].Seconds {
			t.Fatalf("bucket %d: overlapped %v != sequential %v seconds",
				i, got.Results[i].Seconds, want.Results[i].Seconds)
		}
	}
	if got.CacheMisses != 0 || got.CacheHits != uint64(len(got.Results)) {
		t.Fatalf("warm overlapped step: hits %d misses %d over %d buckets",
			got.CacheHits, got.CacheMisses, len(got.Results))
	}
}

// TestOverlappedTrainStepErrors checks failures resolve cleanly.
func TestOverlappedTrainStepErrors(t *testing.T) {
	eng, err := collective.NewEngine(topology.DGX1V(), []int{0, 1, 2, 3}, simgpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	empty := &Model{Name: "empty"}
	if _, err := OverlappedTrainStep(eng, collective.Blink, empty, 0, 0, collective.Options{}); err == nil {
		t.Fatal("model without gradients accepted")
	}
	if _, err := SequentialTrainStep(eng, collective.Blink, empty, 0, 0, collective.Options{}); err == nil {
		t.Fatal("sequential: model without gradients accepted")
	}
}
