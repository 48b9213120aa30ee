package core

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"blink/internal/graph"
	"blink/internal/topology"
)

// The worker pool must never affect results: out[i] is roots[i]'s packing
// regardless of completion order, and each per-root compile is
// deterministic, so 1 worker and N workers produce byte-identical packings.
func TestPackRootsWorkerCountInvariance(t *testing.T) {
	g := topology.DGX1V().GPUGraph()
	roots := []int{0, 1, 2, 3, 4, 5, 6, 7}
	seq, _, err := NewPlannerPipeline(PipelineOptions{Workers: 1}).PackRoots(g, roots)
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := NewPlannerPipeline(PipelineOptions{Workers: 8}).PackRoots(g, roots)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel PackRoots differs from sequential")
	}
}

// Satellite determinism regression: the same compile under GOMAXPROCS=1 and
// GOMAXPROCS=N must yield byte-identical packings (map-order float
// accumulation in PackTrees used to be the hazard) and identical topology
// fingerprints.
func TestPackingDeterminismAcrossGOMAXPROCS(t *testing.T) {
	machine := topology.DGX1V()
	build := func() ([]*Packing, string) {
		g := machine.GPUGraph()
		pl := NewPlannerPipeline(PipelineOptions{})
		packs, _, err := pl.PackRoots(g, []int{0, 1, 2, 3, 4, 5, 6, 7})
		if err != nil {
			t.Fatal(err)
		}
		return packs, machine.Fingerprint()
	}
	old := runtime.GOMAXPROCS(1)
	seqPacks, seqFP := build()
	runtime.GOMAXPROCS(8)
	parPacks, parFP := build()
	runtime.GOMAXPROCS(old)
	if seqFP != parFP {
		t.Fatalf("fingerprint differs: %q vs %q", seqFP, parFP)
	}
	if !reflect.DeepEqual(seqPacks, parPacks) {
		t.Fatal("packings differ across GOMAXPROCS settings")
	}
}

// PackRoot must match the monolithic GenerateTrees it replaced, and the
// stage observer must see every stage that ran.
func TestPackRootMatchesGenerateTreesAndObservesStages(t *testing.T) {
	g := topology.DGX1V().GPUGraph()
	var mu sync.Mutex
	seen := map[string]int{}
	pl := NewPlannerPipeline(PipelineOptions{OnStage: func(stage string, seconds float64) {
		if seconds < 0 {
			t.Errorf("stage %s: negative latency %v", stage, seconds)
		}
		mu.Lock()
		seen[stage]++
		mu.Unlock()
	}})
	p, stages, err := pl.PackRoot(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := GenerateTrees(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, want) {
		t.Fatal("PackRoot differs from GenerateTrees")
	}
	if seen[StageEnumerate] != 1 || seen[StageMinimize] != 1 {
		t.Fatalf("stage observations %v, want enumerate and minimize exactly once", seen)
	}
	if stages.Total() <= 0 {
		t.Fatalf("stage breakdown %+v has no recorded time", stages)
	}
}

// The approximate fast path must produce a valid packing with a positive
// rate bounded by the min-cut, deterministically.
func TestApproxPackValidAndDeterministic(t *testing.T) {
	machine := topology.DGX1V()
	graphs := []*topology.Topology{machine}
	if d, err := machine.WithoutLink(0, 3); err == nil {
		graphs = append(graphs, d)
	}
	if d, err := machine.WithLinkUnits(2, 3, 1); err == nil {
		graphs = append(graphs, d)
	}
	for i, m := range graphs {
		g := m.GPUGraph()
		for root := 0; root < g.N; root += 3 {
			a, err := ApproxPack(g, root)
			if err != nil {
				t.Fatalf("graph %d root %d: %v", i, root, err)
			}
			if err := a.Validate(g); err != nil {
				t.Fatalf("graph %d root %d: invalid: %v", i, root, err)
			}
			if a.Rate <= 0 || a.Rate > a.Bound+1e-9 {
				t.Fatalf("graph %d root %d: rate %v outside (0, bound %v]", i, root, a.Rate, a.Bound)
			}
			b, err := ApproxPack(g, root)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("graph %d root %d: ApproxPack not deterministic", i, root)
			}
		}
	}
}

// A root outside the graph is an error from every exported packer, not an
// index panic in the min-cut bound or the reachability check.
func TestPackersRejectRootOutsideGraph(t *testing.T) {
	g := topology.DGX1V().GPUGraph()
	packers := map[string]func(root int) (*Packing, error){
		"PackTrees":  func(root int) (*Packing, error) { return PackTrees(g, root) },
		"ExactPack":  func(root int) (*Packing, error) { return ExactPack(g, root) },
		"ApproxPack": func(root int) (*Packing, error) { return ApproxPack(g, root) },
		"GenerateTrees": func(root int) (*Packing, error) {
			return GenerateTrees(g, root)
		},
	}
	for name, pack := range packers {
		for _, root := range []int{g.N, -1} {
			if p, err := pack(root); err == nil {
				t.Errorf("%s(root %d) = %+v, want an error", name, root, p)
			}
		}
	}
}

// PackRoots propagates the packing error of a disconnected root.
func TestPackRootsErrorPropagation(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1, graph.NVLink)
	g.AddEdge(1, 0, 1, graph.NVLink)
	_, _, err := NewPlannerPipeline(PipelineOptions{}).PackRoots(g, []int{0, 1})
	if !errors.Is(err, ErrNoSpanningTree) {
		t.Fatalf("got %v, want ErrNoSpanningTree", err)
	}
}

// ParallelMap returns the first error by index, not by completion order.
func TestParallelMapFirstErrorWins(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	err := ParallelMap(4, 2, func(i int) error {
		switch i {
		case 1:
			return errA
		case 3:
			return errB
		}
		return nil
	})
	if err != errA {
		t.Fatalf("got %v, want first-index error %v", err, errA)
	}
}
