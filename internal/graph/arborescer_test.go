package graph_test

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"blink/internal/graph"
	"blink/internal/topology"
)

// nestedCycles returns a graph whose cheapest in-edges force k-1 successive
// contractions from root 0: v1 and v2 form a cheap 2-cycle, each later v_i
// hangs off v_(i-1) by a cheap edge and closes a cycle back into v1 through
// a back edge dearer than the one before it, so each level contracts the
// previous cycle together with exactly one new vertex. Edges from the root
// are too dear to break a cycle until the last level. cost holds each
// edge's base cost.
func nestedCycles(k int) (g *graph.Graph, cost []float64) {
	g = graph.New(k + 1)
	add := func(from, to int, c float64) {
		g.AddEdge(from, to, 1, graph.NVLink)
		cost = append(cost, c)
	}
	add(1, 2, 1)
	add(2, 1, 1)
	for v := 3; v <= k; v++ {
		add(v-1, v, 1)
		add(v, 1, float64(1+v))
	}
	for v := 1; v <= k; v++ {
		add(0, v, 1000)
	}
	return g, cost
}

// randomGraph returns a random multigraph on 2..9 vertices, connected from
// vertex 0 by a chain plus noise edges; other roots may not span it.
func randomGraph(rng *rand.Rand) *graph.Graph {
	n := 2 + rng.Intn(8)
	g := graph.New(n)
	perm := rng.Perm(n - 1)
	prev := 0
	for _, p := range perm {
		g.AddEdge(prev, p+1, 1, graph.NVLink)
		prev = p + 1
	}
	for i := rng.Intn(3 * n); i > 0; i-- {
		if a, b := rng.Intn(n), rng.Intn(n); a != b {
			g.AddEdge(a, b, 1, graph.NVLink)
		}
	}
	return g
}

// One workspace reused across many roots and cost vectors, including solves
// that fail and graphs that contract several levels deep, must return
// exactly what a fresh MinCostArborescence returns: the same error, the same
// edges in the same order and the same total bits. A difference means state
// leaked from one call into the next.
func TestArborescerReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	type testGraph struct {
		g    *graph.Graph
		base []float64 // non-nil: perturb these costs from root 0 only
	}
	graphs := []testGraph{{g: topology.DGX1V().GPUGraph()}, {g: topology.DGX1P().GPUGraph()}}
	for i := 0; i < 24; i++ {
		graphs = append(graphs, testGraph{g: randomGraph(rng)})
	}
	for k := 3; k <= 8; k++ {
		g, base := nestedCycles(k)
		graphs = append(graphs, testGraph{g: g, base: base})
	}

	solves := 0
	for gi, tg := range graphs {
		g := tg.g
		arb := graph.NewArborescer(g)
		cost := make([]float64, len(g.Edges))
		for trial := 0; trial < 40; trial++ {
			root := rng.Intn(g.N)
			switch {
			case tg.base != nil:
				root = 0
				for i, c := range tg.base {
					cost[i] = c * (1 + 0.01*rng.Float64())
				}
			case trial%2 == 0: // integer costs: many ties for the strict tie-break
				for i := range cost {
					cost[i] = float64(1 + rng.Intn(3))
				}
			default:
				for i := range cost {
					cost[i] = rng.Float64()
				}
			}
			edges, total, err := arb.Solve(root, cost)
			want, wantTotal, wantErr := graph.MinCostArborescence(g, root, func(id int) float64 { return cost[id] })
			solves++
			if !errors.Is(err, wantErr) {
				t.Fatalf("graph %d trial %d root %d: error %v, fresh solve %v", gi, trial, root, err, wantErr)
			}
			if err != nil {
				continue
			}
			if !reflect.DeepEqual(edges, want.Edges) || math.Float64bits(total) != math.Float64bits(wantTotal) {
				t.Fatalf("graph %d trial %d root %d: reused workspace gave %v (total %v), fresh solve %v (total %v)",
					gi, trial, root, edges, total, want.Edges, wantTotal)
			}
			sum := 0.0
			for _, id := range edges {
				sum += cost[id]
			}
			if math.Float64bits(total) != math.Float64bits(sum) {
				t.Fatalf("graph %d trial %d: total %v is not the left-to-right sum %v of its edges' costs", gi, trial, total, sum)
			}
		}
		if tg.base != nil {
			if got, want := graph.ContractionLevels(arb), g.N-1; got != want {
				t.Fatalf("nested-cycle graph on %d vertices built %d levels, want %d", g.N, got, want)
			}
		}
	}
	if solves < 1000 {
		t.Fatalf("ran %d solves, want at least 1000", solves)
	}
}
