package core

import (
	"math"
	"testing"

	"blink/internal/graph"
	"blink/internal/topology"
)

func TestExactPackDGX1V(t *testing.T) {
	g := topology.DGX1V().GPUGraph()
	p, err := ExactPack(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rate != 6 || len(p.Trees) != 6 {
		t.Fatalf("exact pack: rate %v with %d trees, want 6/6", p.Rate, len(p.Trees))
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestExactPackMatchesMinimizeEverywhere(t *testing.T) {
	// The MWU+ILP pipeline must achieve the same integral rate as the
	// exact peel on every paper allocation (all have integer capacities).
	v := topology.DGX1V()
	for _, devs := range topology.Fig15AllocationsDGX1V {
		ind, err := v.Induce(devs)
		if err != nil {
			t.Fatal(err)
		}
		g := ind.GPUGraph()
		exact, err := ExactPack(g, 0)
		if err != nil {
			t.Fatalf("alloc %v: %v", devs, err)
		}
		approx, err := GenerateTrees(g, 0)
		if err != nil {
			t.Fatalf("alloc %v: %v", devs, err)
		}
		if math.Abs(exact.Rate-math.Floor(exact.Bound+1e-9)) > 1e-9 {
			t.Fatalf("alloc %v: exact rate %v below integral bound %v", devs, exact.Rate, exact.Bound)
		}
		if approx.Rate < exact.Rate-1e-6 {
			t.Errorf("alloc %v: MWU+ILP rate %v below exact %v", devs, approx.Rate, exact.Rate)
		}
	}
}

func TestExactPackRejectsFractional(t *testing.T) {
	g := graph.New(2)
	g.AddBiEdge(0, 1, 0.5, graph.NVLink)
	if _, err := ExactPack(g, 0); err == nil {
		t.Fatal("fractional capacities accepted")
	}
}

func TestExactPackSingleton(t *testing.T) {
	g := graph.New(1)
	p, err := ExactPack(g, 0)
	if err != nil || !math.IsInf(p.Rate, 1) {
		t.Fatalf("singleton: %v %v", p, err)
	}
}

func TestExactPackZeroRate(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1, graph.NVLink) // vertex 2 unreachable
	g.AddEdge(1, 0, 1, graph.NVLink)
	g.AddEdge(2, 0, 1, graph.NVLink)
	p, err := ExactPack(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rate != 0 || len(p.Trees) != 0 {
		t.Fatalf("unreachable graph should pack nothing: %+v", p)
	}
}
