package collective

import (
	"math/rand"
	"testing"

	"blink/internal/core"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

func testCluster(t *testing.T, pieces []int, nicGbps float64) *topology.Cluster {
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

// runClusterData runs one data-mode collective through eng's spine: inputs
// are staged by global rank into a fresh arena (just root's payload when
// there is one input), and every rank's buffer under tag is read back.
func runClusterData(eng *Engine, b Backend, op Op, root int, inputs [][]float32, tag int) ([][]float32, Result, error) {
	bs := simgpu.NewBufferSet()
	for r, in := range inputs {
		if len(inputs) == 1 {
			r = root
		}
		bs.SetBuffer(r, core.BufData, append([]float32(nil), in...))
	}
	n := len(inputs[0])
	res, err := eng.Run(b, op, root, int64(n)*4, Options{DataMode: true, Buffers: bs})
	out := make([][]float32, eng.Topo().NumGPUs)
	for g := range out {
		out[g] = bs.Buffer(g, tag, n)
	}
	return out, res, err
}

func TestClusterEngineWarmDispatchHitsCache(t *testing.T) {
	c := testCluster(t, []int{4, 4}, 40)
	eng, err := NewClusterEngine(c, simgpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cold := mustRun(t, eng, Blink, AllReduce, 64<<20, Options{})
	st := eng.CacheStats()
	if st.Misses == 0 || st.Hits != 0 {
		t.Fatalf("after cold dispatch: %+v", st)
	}
	for i := 0; i < 5; i++ {
		warm := mustRun(t, eng, Blink, AllReduce, 64<<20, Options{})
		if warm.Seconds != cold.Seconds {
			t.Fatalf("replay %d diverged: %v != %v", i, warm.Seconds, cold.Seconds)
		}
	}
	st = eng.CacheStats()
	if st.Hits != 5 {
		t.Fatalf("warm dispatches should hit: %+v", st)
	}
	if st.Entries == 0 {
		t.Fatalf("no resident cluster plans: %+v", st)
	}
}

func TestClusterEngineRunMany(t *testing.T) {
	c := testCluster(t, []int{6, 2}, 100)
	eng, err := NewClusterEngine(c, simgpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int64{25 << 20, 25 << 20, 10 << 20}
	g1, err := eng.RunMany(Blink, AllReduce, 0, sizes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g1.CacheMisses != 2 || g1.CacheHits != 1 {
		t.Fatalf("cold group: hits %d misses %d, want 1/2", g1.CacheHits, g1.CacheMisses)
	}
	g2, err := eng.RunMany(Blink, AllReduce, 0, sizes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g2.CacheHits != 3 || g2.CacheMisses != 0 {
		t.Fatalf("warm group: hits %d misses %d, want 3/0", g2.CacheHits, g2.CacheMisses)
	}
	if g2.Seconds != g1.Seconds {
		t.Fatalf("warm group diverged: %v != %v", g2.Seconds, g1.Seconds)
	}
}

// TestClusterAllReduceDataExact is the acceptance gate: AllReduceData
// across a 2-server cluster returns elementwise-exact sums on every rank of
// every server, for both backends, cold and warm.
func TestClusterAllReduceDataExact(t *testing.T) {
	for _, pieces := range [][]int{{3, 5}, {4, 4}, {2, 3, 3}} {
		c := testCluster(t, pieces, 100)
		eng, err := NewClusterEngine(c, simgpu.Config{DataMode: true})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		const n = 1500 // deliberately not a multiple of the partition count
		for _, b := range []Backend{Blink, NCCL} {
			for iter := 0; iter < 2; iter++ { // cold then warm (cached plan)
				inputs := make([][]float32, eng.Topo().NumGPUs)
				want := make([]float32, n)
				for r := range inputs {
					inputs[r] = make([]float32, n)
					for i := range inputs[r] {
						inputs[r][i] = float32(rng.Intn(64))
						want[i] += inputs[r][i]
					}
				}
				outs, res, err := runClusterData(eng, b, AllReduce, 0, inputs, core.BufAcc)
				if err != nil {
					t.Fatalf("%v %v iter %d: %v", pieces, b, iter, err)
				}
				if res.Seconds <= 0 {
					t.Fatalf("%v %v: no simulated time", pieces, b)
				}
				for r, out := range outs {
					for i := range want {
						if out[i] != want[i] {
							t.Fatalf("%v %v iter %d: rank %d element %d = %v, want %v",
								pieces, b, iter, r, i, out[i], want[i])
						}
					}
				}
			}
		}
		st := eng.CacheStats()
		if st.Hits == 0 {
			t.Fatalf("%v: warm data dispatches missed the cache: %+v", pieces, st)
		}
	}
}

func TestClusterBroadcastDataExact(t *testing.T) {
	c := testCluster(t, []int{3, 5}, 40)
	eng, err := NewClusterEngine(c, simgpu.Config{DataMode: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 1024
	data := make([]float32, n)
	for i := range data {
		data[i] = float32(i%97) * 0.5
	}
	// Roots on both servers, including a non-zero local rank.
	for _, root := range []int{0, 2, 3, 7} {
		for _, b := range []Backend{Blink, NCCL} {
			outs, _, err := runClusterData(eng, b, Broadcast, root, [][]float32{data}, core.BufData)
			if err != nil {
				t.Fatalf("root %d %v: %v", root, b, err)
			}
			for r, out := range outs {
				for i := range data {
					if out[i] != data[i] {
						t.Fatalf("root %d %v: rank %d element %d = %v, want %v",
							root, b, r, i, out[i], data[i])
					}
				}
			}
		}
	}
}

func TestClusterEngineRejectsUnsupported(t *testing.T) {
	c := testCluster(t, []int{3, 5}, 40)
	eng, err := NewClusterEngine(c, simgpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(Blink, Gather, 0, 1<<20, Options{}); err == nil {
		t.Fatal("cluster Gather accepted")
	}
	if _, err := eng.Run(NCCL, AllToAll, 0, 1<<20, Options{}); err == nil {
		t.Fatal("flat-ring cluster AllToAll accepted")
	}
	if _, err := NewClusterEngine(&topology.Cluster{}, simgpu.Config{}); err == nil {
		t.Fatal("empty cluster accepted")
	}
}
