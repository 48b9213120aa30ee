package blink

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func twoServerCluster(t *testing.T, a, b int, nicGbps float64) *Cluster {
	t.Helper()
	mkDevs := func(n int) []int {
		devs := make([]int, n)
		for i := range devs {
			devs[i] = i
		}
		return devs
	}
	c, err := NewCluster([]ServerSpec{
		{Machine: DGX1V(), Devs: mkDevs(a)},
		{Machine: DGX1V(), Devs: mkDevs(b)},
	}, nicGbps)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClusterCommThreePhase(t *testing.T) {
	cc, err := NewClusterComm(twoServerCluster(t, 3, 5, 100))
	if err != nil {
		t.Fatal(err)
	}
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
	ring, err := NewClusterComm(twoServerCluster(t, 3, 5, 100), WithBackend(BackendNCCL))
	if err != nil {
		t.Fatal(err)
	}
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
	if st := cc.CacheStats(); st.Misses == 0 {
		t.Fatalf("no compiles recorded: %+v", st)
	}
}

// TestClusterCommAllReduceDataAcceptance is the PR's acceptance check:
// AllReduceData across a 2-server cluster returns elementwise-exact sums on
// every rank of every server, and warm cluster dispatches hit the plan
// cache.
func TestClusterCommAllReduceDataAcceptance(t *testing.T) {
	cc, err := NewClusterComm(twoServerCluster(t, 3, 5, 100), WithDataMode())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	const n = 2048
	for iter := 0; iter < 3; iter++ {
		inputs, sum := randInputs(rng, cc.Size(), n)
		outs, err := cc.AllReduceData(inputs)
		if err != nil {
			t.Fatal(err)
		}
		if len(outs) != cc.Size() {
			t.Fatalf("%d outputs for %d ranks", len(outs), cc.Size())
		}
		for r, out := range outs {
			for i := range sum {
				if out[i] != sum[i] {
					t.Fatalf("iter %d rank %d element %d = %v, want %v", iter, r, i, out[i], sum[i])
				}
			}
		}
	}
	st := cc.CacheStats()
	if st.Hits == 0 {
		t.Fatalf("warm cluster dispatches should hit the plan cache: %+v", st)
	}
	data := make([]float32, 777)
	for i := range data {
		data[i] = float32(i)
	}
	outs, err := cc.BroadcastData(5, data)
	if err != nil {
		t.Fatal(err)
	}
	for r, out := range outs {
		for i := range data {
			if out[i] != data[i] {
				t.Fatalf("broadcast rank %d element %d mismatch", r, i)
			}
		}
	}
}

// TestClusterCommAllToAll covers the cluster-wide pairwise exchange: timing
// plans compile under the three-phase strategy, data runs are
// elementwise-exact against the shard-permutation reference on every global
// rank (including cross-server pairs), warm dispatches replay frozen plans,
// and the flat-ring baseline is rejected.
func TestClusterCommAllToAll(t *testing.T) {
	cc, err := NewClusterComm(twoServerCluster(t, 3, 5, 100), WithDataMode())
	if err != nil {
		t.Fatal(err)
	}
	res, err := cc.AllToAll(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "3-phase+alltoall" || res.Phase2 <= 0 {
		t.Fatalf("result = %+v", res)
	}
	total := cc.Size()
	const shard = 37
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 2; iter++ {
		inputs, _ := randInputs(rng, total, shard*total)
		outs, err := cc.AllToAllData(inputs)
		if err != nil {
			t.Fatal(err)
		}
		for d, out := range outs {
			for r := 0; r < total; r++ {
				for i := 0; i < shard; i++ {
					want := inputs[r][d*shard+i]
					if out[r*shard+i] != want {
						t.Fatalf("iter %d dest %d src %d float %d = %v, want %v",
							iter, d, r, i, out[r*shard+i], want)
					}
				}
			}
		}
	}
	if st := cc.CacheStats(); st.Hits == 0 {
		t.Fatalf("warm cluster AllToAll should hit the plan cache: %+v", st)
	}
	ring, err := NewClusterComm(twoServerCluster(t, 3, 5, 100), WithBackend(BackendNCCL))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ring.AllToAll(64 << 20); err == nil {
		t.Fatal("flat-ring cluster AllToAll should be rejected")
	}
}

func TestClusterCommGroupedDispatch(t *testing.T) {
	cc, err := NewClusterComm(twoServerCluster(t, 4, 4, 40))
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int64{25 << 20, 25 << 20, 5 << 20}
	cold, err := cc.AllReduceMany(sizes)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := cc.AllReduceMany(sizes)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits != uint64(len(sizes)) || warm.CacheMisses != 0 {
		t.Fatalf("warm group: %d hits %d misses", warm.CacheHits, warm.CacheMisses)
	}
	if warm.Seconds != cold.Seconds {
		t.Fatalf("warm group diverged: %v != %v", warm.Seconds, cold.Seconds)
	}
}

// TestClusterCompileIsObservable: the packing a cold cluster collective
// triggers runs inside the per-server engines, and the operator reading the
// cluster communicator's metrics must see it.
func TestClusterCompileIsObservable(t *testing.T) {
	cc, err := NewClusterComm(twoServerCluster(t, 4, 4, 100))
	if err != nil {
		t.Fatal(err)
	}
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
		"WithQoS":         WithQoS(QoSConfig{}),
	} {
		if _, err := NewClusterComm(twoServerCluster(t, 4, 4, 100), opt); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("NewClusterComm(%s) = %v, want an error naming the option", name, err)
		}
	}
}

// TestClusterSingleGPUServer covers the fragmented allocation of Figure 3
// at its extreme: a server contributing one GPU has nothing to reduce or
// broadcast locally (its packing is empty) yet still takes part in the NIC
// exchange. Every cluster collective must run on it, in timing and data
// mode, under both backends, with exact results and warm replays.
func TestClusterSingleGPUServer(t *testing.T) {
	for _, backend := range []Backend{BackendBlink, BackendNCCL} {
		cc, err := NewClusterComm(twoServerCluster(t, 1, 3, 100), WithDataMode(), WithBackend(backend))
		if err != nil {
			t.Fatal(err)
		}
		total := cc.Size()
		if _, err := cc.AllReduce(1 << 20); err != nil {
			t.Fatalf("%v AllReduce: %v", backend, err)
		}
		rng := rand.New(rand.NewSource(3))
		var cold CacheStats
		for iter := 0; iter < 2; iter++ {
			if iter == 1 {
				cold = cc.CacheStats()
			}
			inputs, sum := randInputs(rng, total, 1536)
			outs, err := cc.AllReduceData(inputs)
			if err != nil {
				t.Fatalf("%v AllReduceData: %v", backend, err)
			}
			for r, out := range outs {
				assertEq(t, fmt.Sprintf("%v allreduce iter %d rank %d", backend, iter, r), out, sum)
			}
			// Root on the one-GPU server, then on the three-GPU one.
			for _, root := range []int{0, 2} {
				if _, err := cc.Broadcast(root, 1<<20); err != nil {
					t.Fatalf("%v Broadcast root %d: %v", backend, root, err)
				}
				outs, err := cc.BroadcastData(root, inputs[root])
				if err != nil {
					t.Fatalf("%v BroadcastData root %d: %v", backend, root, err)
				}
				for r, out := range outs {
					assertEq(t, fmt.Sprintf("%v broadcast root %d rank %d", backend, root, r), out, inputs[root])
				}
			}
			if backend != BackendBlink {
				continue // the flat ring has no cluster AllToAll
			}
			if _, err := cc.AllToAll(1 << 20); err != nil {
				t.Fatalf("AllToAll: %v", err)
			}
			const shard = 29
			inputs, _ = randInputs(rng, total, shard*total)
			outs, err = cc.AllToAllData(inputs)
			if err != nil {
				t.Fatalf("AllToAllData: %v", err)
			}
			for d, out := range outs {
				for r := 0; r < total; r++ {
					assertEq(t, fmt.Sprintf("alltoall iter %d dest %d src %d", iter, d, r),
						out[r*shard:(r+1)*shard], inputs[r][d*shard:(d+1)*shard])
				}
			}
		}
		// Every second-iteration dispatch replayed the first's frozen plan.
		if st := cc.CacheStats(); st.Misses != cold.Misses || st.Hits <= cold.Hits {
			t.Fatalf("%v: second calls should all hit the plan cache: %+v after %+v", backend, st, cold)
		}
	}
}
