package topology

import (
	"strings"
	"testing"

	"blink/internal/graph"
)

func TestParseBasic(t *testing.T) {
	topo, err := Parse("v100; 0-1:2, 1-2, 0-2:1")
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumGPUs != 3 || topo.Gen != GenV100 {
		t.Fatalf("parsed shape: %d GPUs gen %v", topo.NumGPUs, topo.Gen)
	}
	var cap01 float64
	for _, e := range topo.G.Edges {
		if e.From == 0 && e.To == 1 {
			cap01 = e.Cap
		}
	}
	if cap01 != 2 {
		t.Fatalf("0-1 capacity = %v, want 2", cap01)
	}
	if topo.P.N != 4 {
		t.Fatal("PCIe hub not attached")
	}
	if r := graph.BroadcastRateUpperBound(topo.GPUGraph(), 0); r != 2 {
		t.Fatalf("parsed triangle bound = %v", r)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",                // no separator
		"v100;",           // no edges
		"h100; 0-1",       // unknown gen
		"v100; 0-0",       // self loop
		"v100; 0_1",       // malformed edge
		"v100; 0-1:x",     // bad link count
		"v100; 0-1:0",     // zero links
		"v100; a-1",       // bad endpoint
		"v100; 0--1",      // negative endpoint
		"v100; 0-1, 2-:3", // missing endpoint
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	orig := "v100; 0-1:2, 0-2:1, 1-2:1"
	topo, err := Parse(orig)
	if err != nil {
		t.Fatal(err)
	}
	spec := topo.Spec()
	topo2, err := Parse(spec)
	if err != nil {
		t.Fatalf("round trip parse of %q: %v", spec, err)
	}
	if graph.CanonicalKey(topo.GPUGraph()) != graph.CanonicalKey(topo2.GPUGraph()) {
		t.Fatalf("round trip changed topology: %q -> %q", orig, spec)
	}
}

func TestSpecOfBuiltins(t *testing.T) {
	for _, m := range []*Topology{DGX1P(), DGX1V()} {
		spec := m.Spec()
		re, err := Parse(spec)
		if err != nil {
			t.Fatalf("%s spec %q: %v", m.Name, spec, err)
		}
		if graph.CanonicalKey(m.GPUGraph()) != graph.CanonicalKey(re.GPUGraph()) {
			t.Fatalf("%s spec round trip not isomorphic", m.Name)
		}
	}
}

func TestDOT(t *testing.T) {
	d := DGX1V().DOT()
	for _, want := range []string{"graph", "GPU0", "GPU7", "--", "x2"} {
		if !strings.Contains(d, want) {
			t.Fatalf("DOT missing %q:\n%s", want, d)
		}
	}
	// DGX-2 renders its switch.
	d2 := DGX2().DOT()
	if !strings.Contains(d2, "switch") {
		t.Fatal("DGX-2 DOT missing switch vertex")
	}
}
