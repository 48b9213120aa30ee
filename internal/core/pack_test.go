package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"blink/internal/graph"
	"blink/internal/topology"
)

func packOrDie(t *testing.T, g *graph.Graph, root int) *Packing {
	t.Helper()
	p, err := PackTrees(g, root)
	if err != nil {
		t.Fatalf("PackTrees: %v", err)
	}
	return p
}

func TestPackTreesChain(t *testing.T) {
	g := graph.New(3)
	g.AddBiEdge(0, 1, 1, graph.NVLink)
	g.AddBiEdge(1, 2, 1, graph.NVLink)
	p := packOrDie(t, g, 0)
	if p.Bound != 1 {
		t.Fatalf("chain bound = %v", p.Bound)
	}
	if p.Rate < 0.9*p.Bound {
		t.Fatalf("MWU rate %v below (1-eps) of bound %v", p.Rate, p.Bound)
	}
	if p.Rate > p.Bound+1e-9 {
		t.Fatalf("MWU rate %v exceeds bound %v", p.Rate, p.Bound)
	}
}

func TestPackTreesTriangle(t *testing.T) {
	g := graph.New(3)
	g.AddBiEdge(0, 1, 1, graph.NVLink)
	g.AddBiEdge(1, 2, 1, graph.NVLink)
	g.AddBiEdge(0, 2, 1, graph.NVLink)
	p := packOrDie(t, g, 0)
	if p.Bound != 2 {
		t.Fatalf("triangle bound = %v, want 2", p.Bound)
	}
	if p.Rate < 0.9*2 {
		t.Fatalf("triangle rate = %v, want >= 1.8", p.Rate)
	}
}

func TestPackTreesDisconnected(t *testing.T) {
	g := graph.New(3)
	g.AddBiEdge(0, 1, 1, graph.NVLink)
	if _, err := PackTrees(g, 0); err != ErrNoSpanningTree {
		t.Fatalf("expected ErrNoSpanningTree, got %v", err)
	}
}

func TestPackTreesBadCapacity(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, 0, graph.NVLink)
	g.AddEdge(1, 0, 1, graph.NVLink)
	if _, err := PackTrees(g, 0); err == nil {
		t.Fatal("zero-capacity edge accepted")
	}
}

func TestPackTreesSingleton(t *testing.T) {
	g := graph.New(1)
	p, err := PackTrees(g, 0)
	if err != nil || !math.IsInf(p.Rate, 1) {
		t.Fatalf("singleton pack: %v %v", p, err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatalf("singleton packing invalid: %v", err)
	}
}

func TestPackTreesDGX1VFull(t *testing.T) {
	v := topology.DGX1V().GPUGraph()
	p := packOrDie(t, v, 0)
	if p.Bound != 6 {
		t.Fatalf("DGX-1V bound = %v, want 6", p.Bound)
	}
	if p.Rate < 0.9*6 {
		t.Fatalf("DGX-1V MWU rate = %v, want >= 5.4", p.Rate)
	}
	// The paper reports MWU alone returns on the order of a hundred-plus
	// trees with widely varying weights before minimization.
	if len(p.Trees) < 10 {
		t.Fatalf("MWU returned only %d trees; expected a large candidate set", len(p.Trees))
	}
}

// The MWU loop reuses one arborescence workspace and identifies trees by an
// edge bitset, so it allocates per distinct tree, not per iteration: about
// 2,700 allocations for the full DGX-1V against 819,000 when every iteration
// built its own contraction levels, validated tree and fmt-rendered key.
func TestPackTreesAllocs(t *testing.T) {
	g := topology.DGX1V().GPUGraph()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := PackTrees(g, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 5000 {
		t.Fatalf("PackTrees(DGX-1V, root 0) allocates %.0f times, want <= 5000", allocs)
	}
}

func TestMinimizeTreesDGX1VFull(t *testing.T) {
	v := topology.DGX1V().GPUGraph()
	p := packOrDie(t, v, 0)
	min := MinimizeTrees(v, p)
	if min.Rate != 6 {
		t.Fatalf("minimized rate = %v, want exactly 6 (paper §3.2.1)", min.Rate)
	}
	if len(min.Trees) != 6 {
		t.Fatalf("minimized tree count = %d, want 6 (paper §3.2.1)", len(min.Trees))
	}
	for _, tr := range min.Trees {
		if tr.Weight != 1.0 {
			t.Fatalf("minimized tree weight = %v, want 1.0", tr.Weight)
		}
	}
	if err := min.Validate(v); err != nil {
		t.Fatalf("minimized packing invalid: %v", err)
	}
	// Each of Validate's rules rejects its own defect, NaN included.
	for _, c := range []struct {
		name, want string
		edit       func(*Packing)
	}{
		{"rate mismatch", "sum to", func(p *Packing) { p.Rate *= 2 }},
		{"over capacity", "overloaded", func(p *Packing) {
			for i := range p.Trees {
				p.Trees[i].Weight *= 100
			}
			p.Rate, p.Bound = p.Rate*100, 0
		}},
		{"NaN weight", "non-positive", func(p *Packing) { p.Trees[0].Weight = math.NaN() }},
		{"zero weight", "non-positive", func(p *Packing) { p.Rate, p.Trees[0].Weight = p.Rate-p.Trees[0].Weight, 0 }},
		{"rate over bound", "bound", func(p *Packing) { p.Bound = p.Rate / 2 }},
		{"no trees", "no trees", func(p *Packing) { p.Trees = nil }},
	} {
		bad := *min
		bad.Trees = append([]Tree(nil), min.Trees...)
		c.edit(&bad)
		if err := bad.Validate(v); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want an error naming %q", c.name, err, c.want)
		}
	}
}

func TestMinimizeTreesDGX1PFull(t *testing.T) {
	g := topology.DGX1P().GPUGraph()
	p := packOrDie(t, g, 0)
	min := MinimizeTrees(g, p)
	if min.Rate != 4 {
		t.Fatalf("DGX-1P minimized rate = %v, want 4", min.Rate)
	}
	if len(min.Trees) != 4 {
		t.Fatalf("DGX-1P tree count = %d, want 4", len(min.Trees))
	}
}

func TestMinimizeKeepsFeasibility(t *testing.T) {
	v := topology.DGX1V()
	for _, devs := range topology.Fig15AllocationsDGX1V {
		ind, err := v.Induce(devs)
		if err != nil {
			t.Fatal(err)
		}
		g := ind.GPUGraph()
		p, err := GenerateTrees(g, 0)
		if err != nil {
			t.Fatalf("alloc %v: %v", devs, err)
		}
		if err := p.Validate(g); err != nil {
			t.Fatalf("alloc %v: %v", devs, err)
		}
		if p.Rate > p.Bound+1e-6 {
			t.Fatalf("alloc %v: rate %v exceeds bound %v", devs, p.Rate, p.Bound)
		}
		if p.Rate < 0.85*p.Bound {
			t.Fatalf("alloc %v: rate %v far below bound %v", devs, p.Rate, p.Bound)
		}
	}
}

// Property test: on random bidirectional graphs, GenerateTrees always yields
// a feasible packing between (1-2eps) and 1x of the Edmonds bound.
func TestGenerateTreesRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(5)
		g := graph.New(n)
		// Random connected bidirectional graph with 1 or 2 unit links.
		perm := rng.Perm(n)
		for i := 0; i+1 < n; i++ {
			g.AddBiEdge(perm[i], perm[i+1], float64(1+rng.Intn(2)), graph.NVLink)
		}
		for i := 0; i < n; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				g.AddBiEdge(a, b, float64(1+rng.Intn(2)), graph.NVLink)
			}
		}
		root := rng.Intn(n)
		p, err := GenerateTrees(g, root)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := p.Validate(g); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if p.Rate > p.Bound+1e-6 || p.Rate < 0.85*p.Bound {
			t.Fatalf("trial %d: rate %v vs bound %v", trial, p.Rate, p.Bound)
		}
	}
}

func TestPackingMaxDepth(t *testing.T) {
	g := graph.New(3)
	g.AddBiEdge(0, 1, 1, graph.NVLink)
	g.AddBiEdge(1, 2, 1, graph.NVLink)
	p := packOrDie(t, g, 0)
	min := MinimizeTrees(g, p)
	if d := min.Trees[0].Arbo.Depth(g); len(min.Trees) != 1 || d != 2 {
		t.Fatalf("chain packing depth = %d, want 2", d)
	}
}

func TestOneHopTrees(t *testing.T) {
	d := topology.DGX2()
	lg := topology.DGX2Logical()
	packs, err := OneHopTrees(d, lg)
	if err != nil {
		t.Fatal(err)
	}
	if len(packs) != 16 {
		t.Fatalf("one-hop packings = %d, want 16", len(packs))
	}
	for root, p := range packs {
		if p.Root != root || len(p.Trees) != 1 {
			t.Fatalf("root %d packing malformed", root)
		}
		tr := p.Trees[0].Arbo
		if err := tr.Validate(lg); err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
		if depth := tr.Depth(lg); depth != 1 {
			t.Fatalf("one-hop tree depth = %d, want 1", depth)
		}
		want := 6.0 / 15.0
		if math.Abs(p.Rate-want) > 1e-9 {
			t.Fatalf("root %d rate = %v, want %v", root, p.Rate, want)
		}
	}
	if _, err := OneHopTrees(topology.DGX1V(), lg); err == nil {
		t.Fatal("one-hop trees on DGX-1V should fail")
	}
}
