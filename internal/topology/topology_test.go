package topology

import (
	"testing"

	"blink/internal/graph"
)

func portCount(g *graph.Graph, v int) float64 {
	var s float64
	for _, id := range g.Out(v) {
		s += g.Edges[id].Cap
	}
	return s
}

func TestDGX1PPortBudget(t *testing.T) {
	d := DGX1P()
	if d.NumGPUs != 8 || d.G.N != 8 {
		t.Fatalf("DGX-1P shape wrong: gpus=%d verts=%d", d.NumGPUs, d.G.N)
	}
	for v := 0; v < 8; v++ {
		if p := portCount(d.G, v); p != 4 {
			t.Fatalf("P100 GPU %d uses %v NVLink ports, want 4", v, p)
		}
	}
	if len(d.G.Edges) != 32 { // 16 undirected links x 2 directions
		t.Fatalf("DGX-1P edges = %d, want 32", len(d.G.Edges))
	}
}

func TestDGX1VPortBudget(t *testing.T) {
	d := DGX1V()
	for v := 0; v < 8; v++ {
		if p := portCount(d.G, v); p != 6 {
			t.Fatalf("V100 GPU %d uses %v NVLink ports, want 6", v, p)
		}
	}
}

func TestDGX1VOptimalRates(t *testing.T) {
	// The paper reports the full 8-GPU DGX-1V packs 6 trees at rate 1.0
	// (Section 3.2.1); the Edmonds bound from any root must therefore be 6.
	d := DGX1V()
	for root := 0; root < 8; root++ {
		if r := graph.BroadcastRateUpperBound(d.GPUGraph(), root); r != 6 {
			t.Fatalf("DGX-1V broadcast bound from %d = %v, want 6", root, r)
		}
	}
	p := DGX1P()
	for root := 0; root < 8; root++ {
		if r := graph.BroadcastRateUpperBound(p.GPUGraph(), root); r != 4 {
			t.Fatalf("DGX-1P broadcast bound from %d = %v, want 4", root, r)
		}
	}
}

func TestUniqueAllocationCountsMatchPaper(t *testing.T) {
	v := DGX1V()
	wantV := map[int]int{3: 5, 4: 14, 5: 14, 6: 10, 7: 2, 8: 1}
	for k, want := range wantV {
		if got := len(v.UniqueConnectedAllocationClasses(k)); got != want {
			t.Errorf("DGX-1V %d-GPU connected classes = %d, want %d", k, got, want)
		}
	}
	total := func(m *Topology) (n int) {
		for k := 3; k <= 8; k++ {
			n += len(m.UniqueConnectedAllocationClasses(k))
		}
		return n
	}
	if got := total(v); got != 46 {
		t.Errorf("DGX-1V total unique configs = %d, want 46 (paper Fig 15)", got)
	}
	if got := total(DGX1P()); got != 14 {
		t.Errorf("DGX-1P total unique configs = %d, want 14 (paper Fig 16)", got)
	}
}

func TestFigureAllocationsAreValidAndUnique(t *testing.T) {
	v := DGX1V()
	if len(Fig15AllocationsDGX1V) != 46 {
		t.Fatalf("Fig15 list has %d entries, want 46", len(Fig15AllocationsDGX1V))
	}
	keys := map[string]bool{}
	for _, devs := range Fig15AllocationsDGX1V {
		ind, err := v.Induce(devs)
		if err != nil {
			t.Fatalf("Fig15 alloc %v: %v", devs, err)
		}
		key := graph.CanonicalKey(ind.GPUGraph())
		if keys[key] {
			t.Fatalf("Fig15 alloc %v duplicates an earlier topology class", devs)
		}
		keys[key] = true
		if !ind.GPUGraph().Connected() {
			t.Fatalf("Fig15 alloc %v is NVLink-disconnected", devs)
		}
	}
	p := DGX1P()
	if len(Fig16AllocationsDGX1P) != 14 {
		t.Fatalf("Fig16 list has %d entries, want 14", len(Fig16AllocationsDGX1P))
	}
	keysP := map[string]bool{}
	for _, devs := range Fig16AllocationsDGX1P {
		ind, err := p.Induce(devs)
		if err != nil {
			t.Fatalf("Fig16 alloc %v: %v", devs, err)
		}
		key := graph.CanonicalKey(ind.GPUGraph())
		if keysP[key] {
			t.Fatalf("Fig16 alloc %v duplicates an earlier topology class", devs)
		}
		keysP[key] = true
	}
}

func TestInduce(t *testing.T) {
	v := DGX1V()
	ind, err := v.Induce([]int{1, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if ind.NumGPUs != 3 || ind.Name != "DGX-1V[1 4 5]" {
		t.Fatalf("induced gpus = %d, name %q", ind.NumGPUs, ind.Name)
	}
	// 1-5 doubled, 4-5 single, 1-4 absent.
	var cap15, cap45, cap14 float64
	gg := ind.GPUGraph()
	for _, e := range gg.Edges {
		a, b := gg.Labels[e.From], gg.Labels[e.To]
		switch {
		case a == 1 && b == 5:
			cap15 = e.Cap
		case a == 4 && b == 5:
			cap45 = e.Cap
		case a == 1 && b == 4:
			cap14 = e.Cap
		}
	}
	if cap15 != 2 || cap45 != 1 || cap14 != 0 {
		t.Fatalf("induced caps 1-5=%v 4-5=%v 1-4=%v, want 2,1,0", cap15, cap45, cap14)
	}
	// PCIe hub must survive induction with one relay vertex.
	if ind.P.N != 4 {
		t.Fatalf("induced PCIe graph has %d vertices, want 3 GPUs + hub", ind.P.N)
	}
}

func TestInduceErrors(t *testing.T) {
	v := DGX1V()
	if _, err := v.Induce(nil); err == nil {
		t.Fatal("empty allocation accepted")
	}
	if _, err := v.Induce([]int{0, 0}); err == nil {
		t.Fatal("duplicate device accepted")
	}
	if _, err := v.Induce([]int{0, 9}); err == nil {
		t.Fatal("out-of-range device accepted")
	}
}

func TestDGX2Shape(t *testing.T) {
	d := DGX2()
	if d.NumGPUs != 16 || d.G.N != 17 {
		t.Fatalf("DGX-2 shape: gpus=%d verts=%d", d.NumGPUs, d.G.N)
	}
	for v := 0; v < 16; v++ {
		if p := portCount(d.G, v); p != DGX2LinksPerGPU {
			t.Fatalf("DGX-2 GPU %d ports = %v", v, p)
		}
	}
	if d.NumGPUs != 16 || d.G.N != 17 {
		t.Fatalf("DGX-2 has %d GPUs and %d vertices, want 16 and the switch", d.NumGPUs, d.G.N)
	}
	// Through the switch, the broadcast bound equals the per-GPU attach.
	if r := graph.BroadcastRateUpperBound(d.G, 0); r != DGX2LinksPerGPU {
		t.Fatalf("DGX-2 broadcast bound = %v, want %d", r, DGX2LinksPerGPU)
	}
}

func TestPCIeHub(t *testing.T) {
	v := DGX1V()
	if v.P.N != 9 {
		t.Fatalf("PCIe graph vertices = %d, want 9", v.P.N)
	}
	for _, e := range v.P.Edges {
		if e.Type != graph.PCIe {
			t.Fatalf("PCIe graph contains %v edge", e.Type)
		}
	}
	// A PCIe broadcast from any GPU is limited by a single hub unit.
	r := graph.BroadcastRateUpperBound(v.P, 0)
	if r <= 0 || r > 0.3 {
		t.Fatalf("PCIe broadcast bound = %v, want ~0.23 units", r)
	}
}

func TestLinkBandwidth(t *testing.T) {
	if bw := DGX1P().LinkBandwidthGBs(graph.NVLink); bw != 20 {
		t.Fatalf("P100 NVLink bw = %v", bw)
	}
	if bw := DGX1V().LinkBandwidthGBs(graph.NVLink); bw != 24 {
		t.Fatalf("V100 NVLink bw = %v", bw)
	}
}

func TestNewCluster(t *testing.T) {
	c, err := NewCluster([]Server{
		{Machine: DGX1V(), Devs: []int{0, 1, 2}},
		{Machine: DGX1V(), Devs: []int{0, 1, 2, 3, 4}},
	}, 40)
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalGPUs() != 8 {
		t.Fatalf("cluster gpus = %d, want 8", c.TotalGPUs())
	}
	if c.NICGBs != 5 {
		t.Fatalf("40 Gbps NIC = %v GB/s, want 5", c.NICGBs)
	}
	if c.Net.N != 3 {
		t.Fatalf("net fabric vertices = %d, want 2 servers + switch", c.Net.N)
	}
	if _, err := NewCluster([]Server{{Machine: DGX1V(), Devs: []int{0}}}, 40); err == nil {
		t.Fatal("single-server cluster accepted")
	}
}

func TestAllocLabel(t *testing.T) {
	if got := AllocLabel([]int{1, 4, 5, 7}); got != "1,4,5,7" {
		t.Fatalf("AllocLabel = %q", got)
	}
}

func TestGenString(t *testing.T) {
	if GenP100.String() != "P100" || GenV100.String() != "V100" {
		t.Fatal("Gen names wrong")
	}
}
