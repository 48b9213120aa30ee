package dnn

import (
	"math"
	"strings"
	"testing"

	"blink/internal/cluster"
	"blink/internal/collective"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

// fakeClock is a deterministic monotonic clock for wall-time bookkeeping.
func fakeClock() func() float64 {
	t := 0.0
	return func() float64 { t += 0.001; return t }
}

func TestSimulateTrainingRunWithFaultsLinkLoss(t *testing.T) {
	machine := topology.DGX1V()
	devs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	const iters = 6
	sched := cluster.LinkLoss(0, 3, 2)
	run, err := SimulateTrainingRunWithFaults(machine, devs, collective.Blink,
		ResNet50(), 25<<20, iters, sched, simgpu.Config{}, fakeClock())
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Trajectory) != iters {
		t.Fatalf("trajectory has %d points, want %d", len(run.Trajectory), iters)
	}
	if run.Trajectory[2].Fault == "" {
		t.Fatal("fault iteration not labeled")
	}
	for i, p := range run.Trajectory {
		if i != 2 && p.Fault != "" {
			t.Fatalf("iteration %d unexpectedly labeled %q", i, p.Fault)
		}
		if p.StepSeconds <= 0 || p.ThroughputGBs <= 0 {
			t.Fatalf("iteration %d has non-positive step time/throughput", i)
		}
		if p.GPUs != 8 {
			t.Fatalf("iteration %d ran on %d GPUs, want 8", i, p.GPUs)
		}
	}
	if run.PreFaultGBs <= 0 || run.PostFaultGBs <= 0 {
		t.Fatal("pre/post-fault steady states not recorded")
	}
	if run.PostFaultGBs < run.PreFaultGBs/2 {
		t.Fatalf("post-fault throughput %.2f below half of pre-fault %.2f", run.PostFaultGBs, run.PreFaultGBs)
	}
	if run.ReplanWallSeconds <= 0 {
		t.Fatal("replan cost not recorded")
	}
	// Post-fault steady state replays frozen plans: all misses happen at
	// iteration 0 (cold) and the fault iteration (replan).
	cold := run.Trajectory[0].CacheMisses
	replan := run.Trajectory[2].CacheMisses
	if cold == 0 || replan == 0 {
		t.Fatalf("cold %d / replan %d misses, want both positive", cold, replan)
	}
	if run.CacheMisses != cold+replan {
		t.Fatalf("total misses %d, want only cold %d + replan %d", run.CacheMisses, cold, replan)
	}
}

func TestSimulateTrainingRunWithFaultsEvictionShrinks(t *testing.T) {
	machine := topology.DGX1V()
	devs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	run, err := SimulateTrainingRunWithFaults(machine, devs, collective.NCCL,
		VGG16(), 25<<20, 5, cluster.Eviction(7, 2), simgpu.Config{}, fakeClock())
	if err != nil {
		t.Fatal(err)
	}
	if run.Trajectory[1].GPUs != 8 || run.Trajectory[2].GPUs != 7 {
		t.Fatalf("GPU counts around eviction = %d -> %d, want 8 -> 7",
			run.Trajectory[1].GPUs, run.Trajectory[2].GPUs)
	}
}

func TestSimulateTrainingRunWithFaultsFlapRecovers(t *testing.T) {
	machine := topology.DGX1V()
	devs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	run, err := SimulateTrainingRunWithFaults(machine, devs, collective.Blink,
		ResNet50(), 25<<20, 7, cluster.LinkFlap(0, 3, 2, 4), simgpu.Config{}, fakeClock())
	if err != nil {
		t.Fatal(err)
	}
	// After the heal the fabric is pristine again: final throughput must
	// match the pre-fault steady state exactly (deterministic simulator).
	if run.PostFaultGBs != run.PreFaultGBs {
		t.Fatalf("healed throughput %.4f != pre-fault %.4f", run.PostFaultGBs, run.PreFaultGBs)
	}
}

// TestFaultRunsRetainThroughput holds the retained-throughput claims the
// docs make about training across mid-run faults, on the deterministic
// PostFaultGBs/PreFaultGBs ratio: on a DGX-1V, Blink holds 0.83-1.14x of its
// pre-fault simulated throughput across link loss, degradation, flap and
// eviction (re-packing trees on whatever fabric survives), and a 3x8 cluster
// that loses one server runs at 1.76x. The NCCL baseline must survive every
// scenario too.
func TestFaultRunsRetainThroughput(t *testing.T) {
	const iters, faultAt = 8, 3
	machine := topology.DGX1V()
	devs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	threeByEight, err := (cluster.Scenario{Pieces: []int{8, 8, 8}}).Cluster(machine, 100)
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		sched cluster.FaultSchedule
		// blink is Blink's retained ratio, to the docs' two decimals.
		blink   float64
		cluster bool
	}{
		{sched: cluster.LinkLoss(0, 3, faultAt), blink: 1.05},
		// One lane of the doubled 0-3 pair fails.
		{sched: cluster.LinkDegrade(0, 3, 1, faultAt), blink: 1.14},
		{sched: cluster.LinkFlap(0, 3, faultAt, 6), blink: 1.00},
		{sched: cluster.Eviction(7, faultAt), blink: 0.83},
		{sched: cluster.ServerLoss(2, faultAt), blink: 1.76, cluster: true},
	}
	for _, row := range rows {
		for _, backend := range []collective.Backend{collective.Blink, collective.NCCL} {
			var run FaultTrainingRun
			var err error
			if row.cluster {
				run, err = SimulateClusterTrainingRunWithFaults(threeByEight, backend,
					ResNet50(), 25<<20, iters, row.sched, simgpu.Config{}, fakeClock())
			} else {
				run, err = SimulateTrainingRunWithFaults(machine, devs, backend,
					ResNet50(), 25<<20, iters, row.sched, simgpu.Config{}, fakeClock())
			}
			if err != nil {
				t.Fatalf("%s/%v: %v", row.sched.Name, backend, err)
			}
			if run.PreFaultGBs <= 0 || run.PostFaultGBs <= 0 {
				t.Fatalf("%s/%v: steady states not recorded: %+v", row.sched.Name, backend, run)
			}
			ratio := run.PostFaultGBs / run.PreFaultGBs
			if backend == collective.Blink && math.Abs(ratio-row.blink) >= 0.005 {
				t.Errorf("%s: Blink retains %.4fx of its pre-fault throughput, docs say %.2fx",
					row.sched.Name, ratio, row.blink)
			}
		}
	}
}

func TestSimulateTrainingRunWithFaultsValidation(t *testing.T) {
	machine := topology.DGX1V()
	devs := []int{0, 1, 2, 3}
	// Fault at iteration 0 leaves no pre-fault steady state.
	if _, err := SimulateTrainingRunWithFaults(machine, devs, collective.Blink,
		ResNet50(), 25<<20, 5, cluster.LinkLoss(0, 1, 0), simgpu.Config{}, fakeClock()); err == nil {
		t.Fatal("fault at iteration 0 must be rejected")
	}
	// Restoring a link that never failed is a schedule bug.
	bad := cluster.FaultSchedule{Name: "bad", Faults: []cluster.Fault{
		{Iter: 2, Kind: cluster.LinkRestored, A: 0, B: 1},
	}}
	if _, err := SimulateTrainingRunWithFaults(machine, devs, collective.Blink,
		ResNet50(), 25<<20, 5, bad, simgpu.Config{}, fakeClock()); err == nil {
		t.Fatal("restoring a healthy link must be rejected")
	}
	// Evicting the same device twice is a malformed schedule.
	dup := cluster.FaultSchedule{Name: "dup-evict", Faults: []cluster.Fault{
		{Iter: 1, Kind: cluster.GPUEvicted, Dev: 3},
		{Iter: 2, Kind: cluster.GPUEvicted, Dev: 3},
	}}
	if _, err := SimulateTrainingRunWithFaults(machine, devs, collective.Blink,
		ResNet50(), 25<<20, 5, dup, simgpu.Config{}, fakeClock()); err == nil {
		t.Fatal("double eviction must be rejected")
	}
	// Server loss is a cluster fault.
	if _, err := SimulateTrainingRunWithFaults(machine, devs, collective.Blink,
		ResNet50(), 25<<20, 5, cluster.ServerLoss(1, 2), simgpu.Config{}, fakeClock()); err == nil {
		t.Fatal("server loss on a single machine must be rejected")
	}
}

func TestSimulateClusterTrainingRunWithFaults(t *testing.T) {
	c, err := (cluster.Scenario{Pieces: []int{4, 4, 4}}).Cluster(topology.DGX1V(), 100)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 6
	run, err := SimulateClusterTrainingRunWithFaults(c, collective.Blink,
		ResNet50(), 25<<20, iters, cluster.ServerLoss(2, 2), simgpu.Config{}, fakeClock())
	if err != nil {
		t.Fatal(err)
	}
	if run.Trajectory[1].GPUs != 12 || run.Trajectory[2].GPUs != 8 {
		t.Fatalf("GPU counts around server loss = %d -> %d, want 12 -> 8",
			run.Trajectory[1].GPUs, run.Trajectory[2].GPUs)
	}
	if run.PostFaultGBs <= 0 {
		t.Fatal("post-loss throughput not recorded")
	}
	// Link faults are single-machine-only for cluster runs.
	if _, err := SimulateClusterTrainingRunWithFaults(c, collective.Blink,
		ResNet50(), 25<<20, iters, cluster.LinkLoss(0, 3, 2), simgpu.Config{}, fakeClock()); err == nil {
		t.Fatal("link faults on a cluster run must be rejected")
	}
}

// TestObservedFaultRunDeterministic is the replay-evidence gate in test
// form: two runs over identical inputs (same seed, allocation and fault
// schedule) must produce the same timeline hash and byte-identical
// evidence, even though their wall clocks differ. The second case is the
// cross-commit oracle: its hash and evidence fingerprint are pinned, so a
// change to what the planner schedules or the simulator times on this run
// (seed 2026, 8 iterations, ResNet50 at 25 MB buckets, full DGX-1V, Blink)
// fails here and must be meant.
func TestObservedFaultRunDeterministic(t *testing.T) {
	observedFaultRunDeterministic(t, 6, 7, "", "")
	observedFaultRunDeterministic(t, 8, 2026,
		"fd1d7b6a065f0878c11593aa367e0027381f059703c1556f385f3209d5da1621", "23e92d17c959b610")
}

func observedFaultRunDeterministic(t *testing.T, iters int, seed int64, wantHash, wantFingerprint string) {
	machine := topology.DGX1V()
	devs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	scheds, err := cluster.RandomFaultSchedules(machine, devs, iters, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func(clock func() float64) ObservedFaultRun {
		t.Helper()
		r, err := SimulateTrainingRunWithFaultsObserved(machine, devs, collective.Blink,
			ResNet50(), 25<<20, iters, scheds[0], simgpu.Config{}, clock, seed)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	slow := func() func() float64 {
		// A clock advancing 10x faster than fakeClock: wall-dependent
		// fields diverge wildly between the runs, hashed fields must not.
		t := 0.0
		return func() float64 { t += 0.01; return t }
	}
	r1, r2 := runOnce(fakeClock()), runOnce(slow())

	if r1.Evidence.TimelineHash != r2.Evidence.TimelineHash {
		t.Fatalf("timeline hashes diverged:\n%s\n%s",
			r1.Evidence.TimelineHash, r2.Evidence.TimelineHash)
	}
	var b1, b2 strings.Builder
	if err := r1.Evidence.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r2.Evidence.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatalf("evidence not byte-identical:\n%s\n%s", b1.String(), b2.String())
	}
	if r1.Evidence.Fingerprint() != r2.Evidence.Fingerprint() {
		t.Fatal("evidence fingerprints diverged")
	}
	if wantHash != "" && (r1.Evidence.TimelineHash != wantHash || r1.Evidence.Fingerprint() != wantFingerprint) {
		t.Fatalf("seed %d: timeline hash %s, evidence fingerprint %s; pinned %s, %s",
			seed, r1.Evidence.TimelineHash, r1.Evidence.Fingerprint(), wantHash, wantFingerprint)
	}

	// The evidence binds the run's identity.
	ev := r1.Evidence
	if ev.Seed != seed || ev.Iterations != iters || ev.Backend != "Blink" ||
		ev.Model != "ResNet50" || ev.Topology == "" {
		t.Fatalf("evidence identity wrong: %+v", ev)
	}
	if len(ev.FaultSchedule) == 0 {
		t.Fatal("fault schedule not recorded")
	}
	if len(ev.StepSimSeconds) != iters {
		t.Fatalf("step sim seconds has %d entries, want %d", len(ev.StepSimSeconds), iters)
	}
	if ev.Spans == 0 || len(r1.Spans) != ev.Spans {
		t.Fatalf("span accounting wrong: evidence %d, timeline %d", ev.Spans, len(r1.Spans))
	}
	// Metrics rode along: the registry saw every dispatch.
	snap := r1.Registry.Snapshot()
	if snap.Counters["blink_plan_cache_lookups_total"] != uint64(ev.Spans) {
		t.Fatalf("lookups %d != spans %d",
			snap.Counters["blink_plan_cache_lookups_total"], ev.Spans)
	}

	// A different seed must change the evidence.
	scheds2, err := cluster.RandomFaultSchedules(machine, devs, iters, 1, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := SimulateTrainingRunWithFaultsObserved(machine, devs, collective.Blink,
		ResNet50(), 25<<20, iters, scheds2[0], simgpu.Config{}, fakeClock(), seed+1)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Evidence.Fingerprint() == r1.Evidence.Fingerprint() {
		t.Fatal("different seeds produced identical evidence")
	}
}
