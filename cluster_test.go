package blink

import (
	"fmt"
	"math"
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

// TestClusterDataThreeUnevenServers moves real data across three uneven
// servers, the shape no two-server test reaches (three NIC peers, a partition
// count below every server but one, local roots that wrap), on both backends
// where they carry data: once over NVLink planes (3+2+4), once over servers
// whose NVLink allocation is disconnected, so their trees run over PCIe
// through hub relay vertices — which must sit past every global rank in the
// call's one arena, never on a neighbouring server's GPUs. Integer-valued
// inputs make any reduction order exact, so they prove the sum; uniform
// floats expose the order in their low bits, so they prove every rank was
// handed the same sum — a pairwise cross-server exchange would leave the
// servers disagreeing. Broadcast is exact from a root on each server,
// AllToAll shard-exact, and the second call of each shape replays the cached
// plan.
func TestClusterDataThreeUnevenServers(t *testing.T) {
	const n = 1000
	for _, shape := range []struct {
		name  string
		devs  [][]int
		roots []int // one on each server
	}{
		{"3+2+4", [][]int{{0, 1, 2}, {0, 1}, {0, 1, 2, 3}}, []int{1, 4, 7}},
		{"relays", [][]int{{0, 1, 6}, {0, 1, 2, 3}, {2, 4, 7}}, []int{2, 5, 9}},
	} {
		for _, backend := range []Backend{BackendBlink, BackendNCCL} {
			t.Run(shape.name+"/"+backend.String(), func(t *testing.T) {
				var servers []ServerSpec
				for _, devs := range shape.devs {
					servers = append(servers, ServerSpec{Machine: DGX1V(), Devs: devs})
				}
				c, err := NewCluster(servers, 100)
				if err != nil {
					t.Fatal(err)
				}
				cc, err := NewClusterComm(c, WithDataMode(), WithBackend(backend))
				if err != nil {
					t.Fatal(err)
				}
				total := cc.Size()
				// twice makes the call cold, then warm, and returns the warm result.
				twice := func(what string, call func() ([][]float32, error)) [][]float32 {
					t.Helper()
					if _, err := call(); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					before := cc.CacheStats()
					outs, err := call()
					if err != nil {
						t.Fatalf("%s, second call: %v", what, err)
					}
					if after := cc.CacheStats(); after.Hits != before.Hits+1 || after.Misses != before.Misses {
						t.Fatalf("%s: second call did not replay the cached plan: %+v -> %+v", what, before, after)
					}
					if len(outs) != total {
						t.Fatalf("%s: %d outputs for %d ranks", what, len(outs), total)
					}
					return outs
				}
				rng := rand.New(rand.NewSource(21))

				ints, sum := randInputs(rng, total, n)
				for r, out := range twice("AllReduceData", func() ([][]float32, error) { return cc.AllReduceData(ints) }) {
					assertEq(t, fmt.Sprintf("AllReduceData rank %d", r), out, sum)
				}

				floats := make([][]float32, total)
				ref := make([]float64, n)
				for r := range floats {
					floats[r] = make([]float32, n)
					for i := range floats[r] {
						floats[r][i] = rng.Float32()
						ref[i] += float64(floats[r][i])
					}
				}
				outs := twice("AllReduceData on floats", func() ([][]float32, error) { return cc.AllReduceData(floats) })
				for r, out := range outs {
					for i := range out {
						if math.Float32bits(out[i]) != math.Float32bits(outs[0][i]) {
							t.Fatalf("rank %d element %d = %v, rank 0 holds %v: the ranks were summed in different orders", r, i, out[i], outs[0][i])
						}
						if math.Abs(float64(out[i])-ref[i]) > 1e-5*ref[i] {
							t.Fatalf("rank %d element %d = %v, want about %v", r, i, out[i], ref[i])
						}
					}
				}

				for _, root := range shape.roots {
					what := fmt.Sprintf("BroadcastData from %d", root)
					for r, out := range twice(what, func() ([][]float32, error) { return cc.BroadcastData(root, floats[root]) }) {
						assertEq(t, fmt.Sprintf("%s, rank %d", what, r), out, floats[root])
					}
				}

				if backend != BackendBlink {
					return // the flat ring has no cluster point-to-point schedule
				}
				const shard = 37
				shards, _ := randInputs(rng, total, shard*total)
				for d, out := range twice("AllToAllData", func() ([][]float32, error) { return cc.AllToAllData(shards) }) {
					for r := 0; r < total; r++ {
						assertEq(t, fmt.Sprintf("AllToAllData dest %d src %d", d, r), out[r*shard:(r+1)*shard], shards[r][d*shard:(d+1)*shard])
					}
				}
			})
		}
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
	cc, err := NewClusterComm(twoServerCluster(t, 5, 3, 100))
	if err != nil {
		t.Fatal(err)
	}
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
