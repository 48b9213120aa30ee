package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func line(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddBiEdge(i, i+1, 1, NVLink)
	}
	return g
}

func TestAddEdgeAdjacency(t *testing.T) {
	g := New(3)
	id := g.AddEdge(0, 1, 2.5, PCIe)
	if id != 0 {
		t.Fatalf("first edge id = %d, want 0", id)
	}
	if len(g.Out(0)) != 1 || len(g.In(1)) != 1 {
		t.Fatalf("adjacency not updated: out(0)=%v in(1)=%v", g.Out(0), g.In(1))
	}
	e := g.Edges[id]
	if e.From != 0 || e.To != 1 || e.Cap != 2.5 || e.Type != PCIe {
		t.Fatalf("edge mismatch: %+v", e)
	}
}

func TestAddEdgePanics(t *testing.T) {
	g := New(2)
	for _, fn := range []func(){
		func() { g.AddEdge(0, 0, 1, NVLink) },
		func() { g.AddEdge(-1, 1, 1, NVLink) },
		func() { g.AddEdge(0, 2, 1, NVLink) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestAddBiEdge(t *testing.T) {
	g := New(2)
	a, b := g.AddBiEdge(0, 1, 1.5, NVLink)
	if g.Edges[a].From != 0 || g.Edges[b].From != 1 {
		t.Fatalf("bi edge directions wrong")
	}
	if g.Edges[a].Cap != 1.5 || g.Edges[b].Cap != 1.5 {
		t.Fatalf("bi edge caps wrong")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := line(3)
	c := g.Clone()
	c.AddEdge(0, 2, 1, NVLink)
	if len(g.Edges) == len(c.Edges) {
		t.Fatalf("clone shares edge slice")
	}
	if len(c.Out(0)) != len(g.Out(0))+1 {
		t.Fatalf("clone adjacency broken")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := New(4)
	g.Labels = []int{10, 11, 12, 13}
	g.AddBiEdge(0, 1, 1, NVLink)
	g.AddBiEdge(1, 2, 1, NVLink)
	g.AddBiEdge(2, 3, 1, NVLink)
	sub := g.InducedSubgraph([]int{1, 3})
	if sub.N != 2 || len(sub.Edges) != 0 {
		t.Fatalf("induced {1,3} should have no edges, got %v", sub.Edges)
	}
	if sub.Labels[0] != 11 || sub.Labels[1] != 13 {
		t.Fatalf("labels not carried: %v", sub.Labels)
	}
	sub2 := g.InducedSubgraph([]int{1, 2})
	if len(sub2.Edges) != 2 {
		t.Fatalf("induced {1,2} should keep the bidirectional pair, got %v", sub2.Edges)
	}
}

func TestConnectivity(t *testing.T) {
	g := line(4)
	if !g.Connected() {
		t.Fatal("line should be connected")
	}
	if !g.StronglyConnectedFrom(0) {
		t.Fatal("bidirectional line reachable from 0")
	}
	d := New(3)
	d.AddEdge(0, 1, 1, NVLink)
	if d.StronglyConnectedFrom(0) {
		t.Fatal("vertex 2 unreachable, should not be spanning")
	}
	if d.Connected() {
		t.Fatal("vertex 2 disconnected")
	}
}

func TestArborescenceValidate(t *testing.T) {
	g := New(3)
	e01 := g.AddEdge(0, 1, 1, NVLink)
	e12 := g.AddEdge(1, 2, 1, NVLink)
	e20 := g.AddEdge(2, 0, 1, NVLink)
	good := Arborescence{Root: 0, Edges: []int{e01, e12}}
	if err := good.Validate(g); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	if d := good.Depth(g); d != 2 {
		t.Fatalf("depth = %d, want 2", d)
	}
	bad := Arborescence{Root: 0, Edges: []int{e01, e20}}
	if err := bad.Validate(g); err == nil {
		t.Fatal("edge into root accepted")
	}
	missing := Arborescence{Root: 0, Edges: []int{e01}}
	if err := missing.Validate(g); err == nil {
		t.Fatal("non-spanning tree accepted")
	}
}

func TestMinCostArborescenceChain(t *testing.T) {
	g := line(4)
	tr, total, err := MinCostArborescence(g, 0, func(int) float64 { return 1 })
	if err != nil {
		t.Fatalf("chain arborescence failed: %v", err)
	}
	if total != 3 || len(tr.Edges) != 3 {
		t.Fatalf("total=%v edges=%v", total, tr.Edges)
	}
}

func TestMinCostArborescencePrefersCheap(t *testing.T) {
	g := New(3)
	cheap1 := g.AddEdge(0, 1, 1, NVLink)
	g.AddEdge(2, 1, 1, NVLink) // would orphan 2's own cover
	cheap2 := g.AddEdge(0, 2, 1, NVLink)
	exp1 := g.AddEdge(1, 2, 1, NVLink)
	_ = exp1
	costs := map[int]float64{cheap1: 1, 1: 10, cheap2: 2, exp1: 5}
	tr, total, err := MinCostArborescence(g, 0, func(id int) float64 { return costs[id] })
	if err != nil {
		t.Fatal(err)
	}
	if total != 3 {
		t.Fatalf("total = %v, want 3 (edges %v)", total, tr.Edges)
	}
}

func TestMinCostArborescenceCycleContraction(t *testing.T) {
	// Classic case: cheap 2-cycle between 1 and 2 must be broken.
	g := New(3)
	e01 := g.AddEdge(0, 1, 1, NVLink)
	e12 := g.AddEdge(1, 2, 1, NVLink)
	e21 := g.AddEdge(2, 1, 1, NVLink)
	e02 := g.AddEdge(0, 2, 1, NVLink)
	costs := map[int]float64{e01: 10, e12: 1, e21: 1, e02: 10}
	tr, total, err := MinCostArborescence(g, 0, func(id int) float64 { return costs[id] })
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(g); err != nil {
		t.Fatalf("invalid result: %v", err)
	}
	if total != 11 {
		t.Fatalf("total = %v, want 11 (one expensive entry + one cheap cycle edge)", total)
	}
}

func TestMinCostArborescenceUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1, NVLink)
	if _, _, err := MinCostArborescence(g, 0, func(int) float64 { return 1 }); err == nil {
		t.Fatal("expected ErrNotSpanning")
	}
}

func TestMinCostArborescenceSingleVertex(t *testing.T) {
	g := New(1)
	tr, total, err := MinCostArborescence(g, 0, func(int) float64 { return 1 })
	if err != nil || total != 0 || len(tr.Edges) != 0 {
		t.Fatalf("singleton: %v %v %v", tr, total, err)
	}
}

// Property: on random strongly-connected-from-0 graphs the algorithm always
// returns a valid arborescence whose cost is <= the cost of a greedy BFS
// tree (any spanning tree upper-bounds the optimum).
func TestMinCostArborescenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(7)
		g := New(n)
		costs := map[int]float64{}
		// Guarantee reachability with a random permutation chain, then noise.
		perm := rng.Perm(n)
		// Make vertex 0 first.
		for i, v := range perm {
			if v == 0 {
				perm[0], perm[i] = perm[i], perm[0]
				break
			}
		}
		for i := 0; i+1 < n; i++ {
			id := g.AddEdge(perm[i], perm[i+1], 1, NVLink)
			costs[id] = 1 + rng.Float64()*9
		}
		extra := rng.Intn(2 * n)
		for i := 0; i < extra; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			id := g.AddEdge(a, b, 1, NVLink)
			costs[id] = 1 + rng.Float64()*9
		}
		costFn := func(id int) float64 { return costs[id] }
		tr, total, err := MinCostArborescence(g, 0, costFn)
		if err != nil {
			t.Fatalf("trial %d: %v (graph %v)", trial, err, g)
		}
		if err := tr.Validate(g); err != nil {
			t.Fatalf("trial %d: invalid tree: %v", trial, err)
		}
		// BFS tree cost (taking min-cost incoming discovered edge) as a bound.
		bfsCost := greedyTreeCost(g, costFn)
		if total > bfsCost+1e-9 {
			t.Fatalf("trial %d: min arborescence cost %.4f exceeds greedy %.4f", trial, total, bfsCost)
		}
		// And it must not beat the sum of per-vertex minimum incoming costs.
		lb := 0.0
		for v := 1; v < n; v++ {
			best := math.Inf(1)
			for _, id := range g.In(v) {
				if c := costFn(id); c < best {
					best = c
				}
			}
			lb += best
		}
		if total < lb-1e-9 {
			t.Fatalf("trial %d: cost %.4f below lower bound %.4f", trial, total, lb)
		}
	}
}

func greedyTreeCost(g *Graph, cost func(int) float64) float64 {
	// Prim-like: grow from 0 picking the cheapest edge into a new vertex.
	inTree := make([]bool, g.N)
	inTree[0] = true
	total := 0.0
	for added := 1; added < g.N; added++ {
		best := math.Inf(1)
		bestV := -1
		for _, e := range g.Edges {
			if inTree[e.From] && !inTree[e.To] {
				if c := cost(e.ID); c < best {
					best = c
					bestV = e.To
				}
			}
		}
		if bestV == -1 {
			return math.Inf(1)
		}
		inTree[bestV] = true
		total += best
	}
	return total
}

func TestMaxFlowSimple(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 3, NVLink)
	g.AddEdge(0, 2, 2, NVLink)
	g.AddEdge(1, 3, 2, NVLink)
	g.AddEdge(2, 3, 3, NVLink)
	g.AddEdge(1, 2, 1, NVLink)
	if f := MaxFlow(g, 0, 3); math.Abs(f-5) > 1e-9 {
		t.Fatalf("maxflow = %v, want 5", f)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1, NVLink)
	if f := MaxFlow(g, 0, 2); f != 0 {
		t.Fatalf("maxflow to unreachable = %v, want 0", f)
	}
}

func TestBroadcastRateUpperBoundChain(t *testing.T) {
	g := line(4)
	if r := BroadcastRateUpperBound(g, 0); math.Abs(r-1) > 1e-9 {
		t.Fatalf("chain broadcast bound = %v, want 1", r)
	}
	full := New(3)
	full.AddBiEdge(0, 1, 1, NVLink)
	full.AddBiEdge(1, 2, 1, NVLink)
	full.AddBiEdge(0, 2, 1, NVLink)
	if r := BroadcastRateUpperBound(full, 0); math.Abs(r-2) > 1e-9 {
		t.Fatalf("triangle broadcast bound = %v, want 2", r)
	}
}

// Property: maxflow is symmetric under capacity scaling.
func TestMaxFlowScalingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(5)
		g := New(n)
		for i := 0; i < 3*n; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				g.AddEdge(a, b, 0.5+rng.Float64()*4, NVLink)
			}
		}
		base := MaxFlow(g, 0, n-1)
		scaled := g.Clone()
		for i := range scaled.Edges {
			scaled.Edges[i].Cap *= 3
		}
		return math.Abs(MaxFlow(scaled, 0, n-1)-3*base) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCanonicalKeyIsomorphic(t *testing.T) {
	a := New(3)
	a.AddBiEdge(0, 1, 1, NVLink)
	a.AddBiEdge(1, 2, 2, NVLink)
	b := New(3)
	b.AddBiEdge(2, 1, 1, NVLink)
	b.AddBiEdge(1, 0, 2, NVLink)
	if CanonicalKey(a) != CanonicalKey(b) {
		t.Fatal("relabeled graphs should be isomorphic")
	}
	c := New(3)
	c.AddBiEdge(0, 1, 1, NVLink)
	c.AddBiEdge(1, 2, 1, NVLink)
	if CanonicalKey(a) == CanonicalKey(c) {
		t.Fatal("different capacities should not be isomorphic")
	}
	d := New(3)
	d.AddBiEdge(0, 1, 1, PCIe)
	d.AddBiEdge(1, 2, 2, PCIe)
	if CanonicalKey(a) == CanonicalKey(d) {
		t.Fatal("different edge types should not be isomorphic")
	}
}

func TestSubsets(t *testing.T) {
	var got [][]int
	Subsets(4, 2, func(s []int) { got = append(got, append([]int(nil), s...)) })
	if len(got) != 6 {
		t.Fatalf("C(4,2) = %d, want 6", len(got))
	}
	if got[0][0] != 0 || got[0][1] != 1 {
		t.Fatalf("first subset %v, want [0 1]", got[0])
	}
	Subsets(3, 0, func(s []int) {
		if len(s) != 0 {
			t.Fatal("empty subset expected")
		}
	})
	count := 0
	Subsets(3, 5, func([]int) { count++ })
	if count != 0 {
		t.Fatal("k>n should produce nothing")
	}
}

func TestUniqueInducedClasses(t *testing.T) {
	// A 4-cycle: all 2-subsets are either adjacent (4 of them) or opposite
	// (2 of them) -> exactly 2 classes.
	g := New(4)
	g.AddBiEdge(0, 1, 1, NVLink)
	g.AddBiEdge(1, 2, 1, NVLink)
	g.AddBiEdge(2, 3, 1, NVLink)
	g.AddBiEdge(3, 0, 1, NVLink)
	classes := UniqueInducedClasses(g, 2)
	if len(classes) != 2 {
		t.Fatalf("4-cycle 2-subset classes = %d, want 2", len(classes))
	}
	total := 0
	for _, c := range classes {
		total += len(c.Members)
	}
	if total != 6 {
		t.Fatalf("class members = %d, want C(4,2)=6", total)
	}
}

func TestEdgeTypeString(t *testing.T) {
	names := map[EdgeType]string{NVLink: "NVLink", PCIe: "PCIe", Net: "Net", NVSwitch: "NVSwitch"}
	for ty, want := range names {
		if ty.String() != want {
			t.Fatalf("EdgeType %d string = %q, want %q", ty, ty.String(), want)
		}
	}
	if EdgeType(9).String() == "" {
		t.Fatal("unknown edge type should render")
	}
}
