package blink

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"blink/internal/collective"
)

// twoServerCluster joins two DGX-1V servers holding GPUs 0..a-1 and
// 0..b-1 at 100 Gbps.
func twoServerCluster(t *testing.T, a, b int) *Cluster {
	t.Helper()
	return dgx1vCluster(t, seqChain(a, false), seqChain(b, false))
}

// TestClusterCommThreePhase: a 3+5 cluster communicator reports its shape,
// runs AllReduce under the §3.5 three-phase protocol faster than the flat
// ring, and broadcasts from a root on its second server.
func TestClusterCommThreePhase(t *testing.T) {
	cc := clusterComm(t, twoServerCluster(t, 3, 5))
	if cc.Size() != 8 {
		t.Fatalf("size = %d", cc.Size())
	}
	if s := cc.ServerSizes(); len(s) != 2 || s[0] != 3 || s[1] != 5 {
		t.Fatalf("server sizes = %v", s)
	}
	res, err := cc.AllReduce(100 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "3-phase" || res.Phase2 <= 0 {
		t.Fatalf("result = %+v", res)
	}
	ring := clusterComm(t, twoServerCluster(t, 3, 5), WithBackend(BackendNCCL))
	flat, err := ring.AllReduce(100 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputGBs <= flat.ThroughputGBs {
		t.Fatalf("three-phase %.2f GB/s should beat flat ring %.2f GB/s",
			res.ThroughputGBs, flat.ThroughputGBs)
	}
	if _, err := cc.Broadcast(6, 32<<20); err != nil {
		t.Fatal(err)
	}
}

// TestClusterCommGroupedDispatch: a grouped AllReduceMany on a 3+5 cluster
// replays every bucket warm, all hits and the same Seconds as the cold call.
func TestClusterCommGroupedDispatch(t *testing.T) {
	cc := clusterComm(t, twoServerCluster(t, 3, 5))
	sizes := []int64{25 << 20, 25 << 20, 5 << 20}
	cold, err := cc.AllReduceMany(sizes)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := cc.AllReduceMany(sizes)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits != uint64(len(sizes)) || warm.CacheMisses != 0 || warm.Seconds != cold.Seconds {
		t.Fatalf("warm group %+v after cold %+v", warm, cold)
	}
}

// TestClusterCommAllToAll covers the cluster-wide pairwise exchange's
// timing form: it compiles under the three-phase strategy, and the
// flat-ring baseline rejects it. Its data form is a column of
// TestDataModeConformance on every cluster row.
func TestClusterCommAllToAll(t *testing.T) {
	cc := clusterComm(t, twoServerCluster(t, 3, 5))
	res, err := cc.AllToAll(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "3-phase+alltoall" || res.Phase2 <= 0 {
		t.Fatalf("result = %+v", res)
	}
	ring := clusterComm(t, twoServerCluster(t, 3, 5), WithBackend(BackendNCCL))
	if _, err := ring.AllToAll(64 << 20); err == nil {
		t.Fatal("flat-ring cluster AllToAll should be rejected")
	}
}

// TestClusterCompileIsObservable: the packing a cold cluster collective
// triggers runs inside the per-server engines, and the operator reading the
// cluster communicator's metrics must see it.
func TestClusterCompileIsObservable(t *testing.T) {
	cc := clusterComm(t, twoServerCluster(t, 4, 4))
	if _, err := cc.AllReduce(16 << 20); err != nil {
		t.Fatal(err)
	}
	h, ok := cc.MetricsSnapshot().Histograms[`blink_compile_stage_seconds{stage="enumerate"}`]
	if !ok || h.Count < 1 {
		t.Fatalf("cold cluster AllReduce left no enumerate-stage series in the cluster's metrics: %+v", h)
	}
}

// TestClusterCommRejectsPlanStore: cluster schedules have no serializable
// form, so a plan store could never hold one; the option must fail loudly
// (as WithPlanService does) rather than open a directory nothing writes to.
func TestClusterCommRejectsPlanStore(t *testing.T) {
	for name, opt := range map[string]Option{
		"WithPlanStore":   WithPlanStore(t.TempDir()),
		"WithPlanService": WithPlanService("127.0.0.1:1"),
	} {
		if _, err := NewClusterComm(twoServerCluster(t, 4, 4), opt); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("NewClusterComm(%s) = %v, want an error naming the option", name, err)
		}
	}
}

// TestClusterErrorRows: what a cluster communicator cannot run is an error
// row of plan selection or a refusal up front, not a missing method. Every
// call below returns an error, does not panic and leaves the plan cache's
// entries as they were; so does ReconfigureWithoutServer on one machine.
func TestClusterErrorRows(t *testing.T) {
	cc := clusterComm(t, twoServerCluster(t, 3, 5), WithDataMode())
	ring := clusterComm(t, twoServerCluster(t, 3, 5), WithBackend(BackendNCCL))
	comm := dgx1vComm(t, full8)
	// Warm one plan, of another size than the calls below use, so
	// "unchanged" is neither trivially zero nor satisfied by a cache hit.
	if _, err := cc.AllReduce(4 << 20); err != nil {
		t.Fatal(err)
	}
	const bytes = 1 << 20
	inputs, _ := randInputs(rand.New(rand.NewSource(5)), cc.Size(), 64)
	for _, tc := range []struct {
		name string
		comm *Comm
		call func() error
	}{
		{"Gather", cc, func() error { return errOf(cc.Gather(0, bytes)) }},
		{"Scatter", cc, func() error { return errOf(cc.Scatter(0, bytes)) }},
		{"Reduce", cc, func() error { return errOf(cc.Reduce(0, bytes)) }},
		{"AllGather", cc, func() error { return errOf(cc.AllGather(bytes)) }},
		{"ReduceScatter", cc, func() error { return errOf(cc.ReduceScatter(bytes)) }},
		{"SendRecv", cc, func() error { return errOf(cc.SendRecv([]int{0, 5}, bytes)) }},
		{"NeighborExchange", cc, func() error { return errOf(cc.NeighborExchange(make([][]int, cc.Size()), bytes)) }},
		{"ScatterAsync", cc, func() error { return errOf(cc.ScatterAsync(0, bytes).Wait()) }},
		{"GatherData", cc, func() error { return errOf(cc.GatherData(0, inputs)) }},
		{"ScatterData", cc, func() error { return errOf(cc.ScatterData(0, inputs[0])) }},
		{"ReduceData", cc, func() error { return errOf(cc.ReduceData(0, inputs)) }},
		{"AllGatherData", cc, func() error { return errOf(cc.AllGatherData(inputs)) }},
		{"SendRecvData", cc, func() error { return errOf(cc.SendRecvData([]int{0, 5}, inputs[0])) }},
		{"NeighborExchangeData", cc, func() error { return errOf(cc.NeighborExchangeData(make([][]int, cc.Size()), inputs)) }},
		{"AllToAll/NCCL", ring, func() error { return errOf(ring.AllToAll(bytes)) }},
		{"Trees", cc, func() error { return errOf(cc.Trees(0)) }},
		{"Reconfigure", cc, func() error { return cc.Reconfigure(DGX1V()) }},
		{"ReconfigureExclude", cc, func() error { return cc.ReconfigureExclude(0) }},
		{"Engine.PlanBlob", cc, func() error {
			_, _, err := cc.eng.PlanBlob(BackendBlink, collective.AllReduce, 0, bytes, collective.Options{})
			return err
		}},
		{"Engine.Prewarm", cc, func() error { return cc.eng.Prewarm(nil) }},
		{"ReconfigureWithoutServer/single-machine", comm, func() error { return comm.ReconfigureWithoutServer(0) }},
	} {
		before := tc.comm.CacheStats().Entries
		if err := tc.call(); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
		if after := tc.comm.CacheStats().Entries; after != before {
			t.Errorf("%s: cache entries %d -> %d", tc.name, before, after)
		}
	}
	if cc.Size() != 8 || fmt.Sprint(cc.ServerSizes()) != "[3 5]" || comm.Size() != 8 {
		t.Fatalf("a refused call changed a communicator: sizes %d %v, %d", cc.Size(), cc.ServerSizes(), comm.Size())
	}
}

// warmClusterAllocCeiling is the allocation ratchet on the warm cluster
// replay, kept like the Makefile's LOC_CEIL_*: lowered when the count falls,
// never raised to make a build pass. (1,945 while a cluster schedule was five
// separately simulated plans; 1,898 as one; 1 — the born-resolved Handle —
// since a replay is a lookup of the simulation Freeze ran.)
const warmClusterAllocCeiling = 1

// TestWarmClusterReplayAllocs holds the path every multi-server training
// iteration takes — a cached three-phase AllReduce of 25 MiB on 5+3 GPUs at
// 100 Gbps, the cluster key of the benchmark's warm_timing workload — to its
// allocation ceiling.
func TestWarmClusterReplayAllocs(t *testing.T) {
	cc := clusterComm(t, twoServerCluster(t, 5, 3))
	got := warmAllocs(func() {
		if _, err := cc.AllReduce(25 << 20); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm cluster AllReduce: %.0f allocations per replay (ceiling %d)", got, warmClusterAllocCeiling)
	if got > warmClusterAllocCeiling {
		t.Fatalf("warm cluster AllReduce allocates %.0f times per replay, ceiling %d", got, warmClusterAllocCeiling)
	}
}
