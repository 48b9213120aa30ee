package core

import (
	"math/rand"
	"testing"

	"blink/internal/graph"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

func TestAblationStudy(t *testing.T) {
	ind, err := topology.DGX1V().Induce([]int{0, 1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	g := ind.GPUGraph()
	f := simgpu.NewFabric(ind, g, simgpu.Config{})
	vs, err := AblationStudy(f, g, 0, 500<<20)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationVariant{}
	for _, v := range vs {
		byName[v.Name] = v
	}
	full := byName["full"]
	if full.ThroughputGBs <= 0 || full.Trees != 6 {
		t.Fatalf("full variant malformed: %+v", full)
	}
	// Chunked pipelining is the largest single win (Fig 11).
	if nc := byName["no-chunking"]; nc.ThroughputGBs > 0.5*full.ThroughputGBs {
		t.Errorf("no-chunking %.1f should cost more than half of full %.1f", nc.ThroughputGBs, full.ThroughputGBs)
	}
	// A single tree caps at ~1/6 of the packed rate.
	if st := byName["single-tree"]; st.ThroughputGBs > 0.3*full.ThroughputGBs {
		t.Errorf("single-tree %.1f too close to full %.1f", st.ThroughputGBs, full.ThroughputGBs)
	}
	// The raw MWU packing has far more trees.
	if nm := byName["no-minimize"]; nm.Trees <= full.Trees {
		t.Errorf("no-minimize trees %d should exceed minimized %d", nm.Trees, full.Trees)
	}
	// No variant beats the full configuration materially.
	for _, v := range vs {
		if v.ThroughputGBs > full.ThroughputGBs*1.05 {
			t.Errorf("variant %s (%.1f) beats full (%.1f)", v.Name, v.ThroughputGBs, full.ThroughputGBs)
		}
	}
	rows := FormatAblation(vs)
	if len(rows) != len(vs) {
		t.Fatalf("FormatAblation rows = %d, want %d", len(rows), len(vs))
	}
	if FormatAblation(nil) != nil {
		t.Fatal("empty format should be nil")
	}
}

// Property: AllReduce is functionally correct on random connected
// topologies with random payload sizes and chunkings.
func TestAllReduceRandomTopologyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(5)
		g := graph.New(n)
		perm := rng.Perm(n)
		for i := 0; i+1 < n; i++ {
			g.AddBiEdge(perm[i], perm[i+1], float64(1+rng.Intn(2)), graph.NVLink)
		}
		for e := 0; e < rng.Intn(4); e++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				g.AddBiEdge(a, b, 1, graph.NVLink)
			}
		}
		topo := &topology.Topology{
			Name: "rand", Kind: topology.KindCustom, Gen: topology.GenV100,
			NumGPUs: n, G: g, P: graph.New(n + 1),
		}
		root := rng.Intn(n)
		p, err := GenerateTrees(g, root, PackOptions{}, MinimizeOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		f := simgpu.NewFabric(topo, g, simgpu.Config{DataMode: true})
		bufs := simgpu.NewBufferSet()
		floats := 64 + rng.Intn(2048)
		want := make([]float32, floats)
		for v := 0; v < n; v++ {
			in := make([]float32, floats)
			for i := range in {
				in[i] = float32(rng.Intn(16))
			}
			bufs.SetBuffer(v, BufData, in)
			for i := range want {
				want[i] += in[i]
			}
		}
		chunk := int64(4 * (1 + rng.Intn(256)))
		plan, err := BuildAllReducePlan(f, p, int64(floats)*4, PlanOptions{ChunkBytes: chunk, DataMode: true, NoStreamReuse: rng.Intn(2) == 0})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if _, err := plan.Freeze().ReplayData(bufs); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for v := 0; v < n; v++ {
			got := bufs.Buffer(v, BufAcc, floats)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d: device %d float %d = %v, want %v (n=%d chunk=%d root=%d)",
						trial, v, i, got[i], want[i], n, chunk, root)
				}
			}
		}
	}
}
