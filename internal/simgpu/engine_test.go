package simgpu

import (
	"math"
	"testing"

	"blink/internal/graph"
	"blink/internal/topology"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestRunEmpty(t *testing.T) {
	res, err := Run(nil, nil, nil)
	if err != nil || res.Makespan != 0 {
		t.Fatalf("empty run: %+v %v", res, err)
	}
}

func TestRunSingleOp(t *testing.T) {
	links := []Link{{BW: 10, Label: "l"}}
	op := &Op{Stream: 0, Link: 0, Bytes: 100e6, Overhead: 1e-3}
	var sim Sim
	res, err := sim.Run(links, []*Op{op}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 1e-3 + 100e6/(10*1e9)
	if !almost(res.Makespan, want, 1e-12) {
		t.Fatalf("makespan = %v, want %v", res.Makespan, want)
	}
	if sim.Start[0] != 0 || !almost(sim.Finish[0], want, 1e-12) {
		t.Fatalf("op window [%v,%v]", sim.Start[0], sim.Finish[0])
	}
}

func TestRunStreamSerialization(t *testing.T) {
	links := []Link{{BW: 1}, {BW: 1}}
	// Same stream, different links: must still serialize.
	a := &Op{Stream: 0, Link: 0, Bytes: 1e9}
	b := &Op{Stream: 0, Link: 1, Bytes: 1e9}
	var sim Sim
	res, err := sim.Run(links, []*Op{a, b}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.Makespan, 2, 1e-9) {
		t.Fatalf("stream-serialized makespan = %v, want 2", res.Makespan)
	}
	if sim.Start[1] < sim.Finish[0] {
		t.Fatalf("stream order violated: b starts %v before a finishes %v", sim.Start[1], sim.Finish[0])
	}
}

func TestRunLinkContention(t *testing.T) {
	links := []Link{{BW: 1}}
	// Two streams sharing one link serialize; two separate links would not.
	a := &Op{Stream: 0, Link: 0, Bytes: 1e9}
	b := &Op{Stream: 1, Link: 0, Bytes: 1e9}
	res, err := Run(links, []*Op{a, b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.Makespan, 2, 1e-9) {
		t.Fatalf("contended makespan = %v, want 2", res.Makespan)
	}

	links2 := []Link{{BW: 1}, {BW: 1}}
	a2 := &Op{Stream: 0, Link: 0, Bytes: 1e9}
	b2 := &Op{Stream: 1, Link: 1, Bytes: 1e9}
	res2, err := Run(links2, []*Op{a2, b2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res2.Makespan, 1, 1e-9) {
		t.Fatalf("parallel makespan = %v, want 1", res2.Makespan)
	}
}

func TestRunDependencies(t *testing.T) {
	links := []Link{{BW: 1}, {BW: 1}}
	a := &Op{Stream: 0, Link: 0, Bytes: 1e9}
	b := &Op{Stream: 1, Link: 1, Bytes: 1e9, Deps: []int{0}}
	res, err := Run(links, []*Op{a, b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.Makespan, 2, 1e-9) {
		t.Fatalf("dependent makespan = %v, want 2", res.Makespan)
	}
}

func TestRunPipelining(t *testing.T) {
	// Two-hop chain with 4 chunks: pipelined makespan is (nChunks+1)*c not
	// 2*nChunks*c.
	links := []Link{{BW: 1}, {BW: 1}}
	var ops []*Op
	const chunks = 4
	for c := 0; c < chunks; c++ {
		ops = append(ops, &Op{Stream: 0, Link: 0, Bytes: 1e9})
	}
	for c := 0; c < chunks; c++ {
		ops = append(ops, &Op{Stream: 1, Link: 1, Bytes: 1e9, Deps: []int{c}})
	}
	res, err := Run(links, ops, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.Makespan, chunks+1, 1e-9) {
		t.Fatalf("pipelined makespan = %v, want %d", res.Makespan, chunks+1)
	}
}

func TestRunDeadlockDetection(t *testing.T) {
	links := []Link{{BW: 1}}
	a := &Op{Stream: 0, Link: 0, Bytes: 1, Deps: []int{1}}
	b := &Op{Stream: 1, Link: 0, Bytes: 1, Deps: []int{0}}
	if _, err := Run(links, []*Op{a, b}, nil); err == nil {
		t.Fatal("cyclic deps not detected")
	}
	// Stream-order vs dep-order conflict: op later in stream blocks an
	// earlier one through a dependency.
	c := &Op{Stream: 0, Link: 0, Bytes: 1, Deps: []int{1}}
	d := &Op{Stream: 0, Link: 0, Bytes: 1}
	if _, err := Run(links, []*Op{c, d}, nil); err == nil {
		t.Fatal("stream/dep conflict not detected")
	}
}

func TestRunInvalidInputs(t *testing.T) {
	if _, err := Run([]Link{{BW: 1}}, []*Op{{Stream: 0, Link: 5}}, nil); err == nil {
		t.Fatal("unknown link accepted")
	}
	if _, err := Run([]Link{{BW: 0}}, []*Op{{Stream: 0, Link: 0}}, nil); err == nil {
		t.Fatal("zero-bandwidth link accepted")
	}
	if _, err := Run([]Link{{BW: 1}}, []*Op{{Stream: 0, Link: 0, Deps: []int{7}}}, nil); err == nil {
		t.Fatal("invalid dep accepted")
	}
}

func TestRunExecOrderAndData(t *testing.T) {
	links := []Link{{BW: 1}}
	var order []string
	a := &Op{Stream: 0, Link: 0, Bytes: 1, Exec: func(*BufferSet, Window) { order = append(order, "a") }}
	b := &Op{Stream: 1, Link: 0, Bytes: 1, Deps: []int{0}, Exec: func(*BufferSet, Window) { order = append(order, "b") }}
	if _, err := Run(links, []*Op{a, b}, nil); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("exec order %v", order)
	}
}

func TestRunNilBufsGetsScratchArena(t *testing.T) {
	// Exec-carrying ops run against a lazily allocated throwaway arena when
	// the caller passes no BufferSet, so timing-only replays of data plans
	// never crash, and over every float.
	links := []Link{{BW: 1}}
	var got *BufferSet
	var window Window
	a := &Op{Stream: 0, Link: 0, Bytes: 1, Exec: func(bufs *BufferSet, w Window) {
		got, window = bufs, w
		bufs.Buffer(0, 0, 8)[3] = 1
	}}
	if _, err := Run(links, []*Op{a}, nil); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("Exec did not receive an arena")
	}
	if lo, hi := window.Clip(0, 1<<40); lo != 0 || hi != 1<<40 {
		t.Fatalf("Run passed window %+v, want every float", window)
	}
}

// TestWindowClip: a clipped range lies inside both the window and the
// range, and an empty one still slices a buffer that holds the range.
func TestWindowClip(t *testing.T) {
	for _, c := range []struct {
		w              Window
		off, end       int
		wantLo, wantHi int
	}{
		{Window{0, 100}, 10, 20, 10, 20},
		{Window{15, 100}, 10, 20, 15, 20},
		{Window{0, 15}, 10, 20, 10, 15},
		{Window{12, 14}, 10, 20, 12, 14},
		{Window{20, 30}, 10, 20, 20, 20},
		{Window{30, 40}, 10, 20, 20, 20},
		{Window{0, 5}, 10, 20, 10, 10},
		{Window{}, 10, 20, 10, 10},
	} {
		if lo, hi := c.w.Clip(c.off, c.end); lo != c.wantLo || hi != c.wantHi {
			t.Errorf("%+v.Clip(%d, %d) = [%d, %d), want [%d, %d)", c.w, c.off, c.end, lo, hi, c.wantLo, c.wantHi)
		}
	}
}

func TestRunZeroResourceOp(t *testing.T) {
	a := &Op{Stream: 0, Link: -1, Overhead: 5e-6}
	res, err := Run(nil, []*Op{a}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.Makespan, 5e-6, 1e-12) {
		t.Fatalf("makespan = %v", res.Makespan)
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.setDefaults()
	d := DefaultConfig()
	if c.OpOverhead != d.OpOverhead || c.ReduceBW != d.ReduceBW || c.CopyEff != d.CopyEff {
		t.Fatalf("defaults not applied: %+v", c)
	}
	// Explicit values survive.
	c2 := Config{OpOverhead: 1e-6}
	c2.setDefaults()
	if c2.OpOverhead != 1e-6 {
		t.Fatal("explicit overhead overwritten")
	}
}

func TestNewFabricLinks(t *testing.T) {
	topo := topology.DGX1V()
	f := NewFabric(topo, topo.GPUGraph(), Config{})
	gg := topo.GPUGraph()
	if len(f.Links) != len(gg.Edges)+gg.N {
		t.Fatalf("links = %d, want %d edges + %d reduce engines", len(f.Links), len(gg.Edges), gg.N)
	}
	// A doubled NVLink edge gets twice the bandwidth.
	var single, double float64
	for i, e := range gg.Edges {
		if e.Cap == 1 {
			single = f.Links[i].BW
		}
		if e.Cap == 2 {
			double = f.Links[i].BW
		}
	}
	if single <= 0 || double <= 0 || !almost(double, 2*single, 1e-9) {
		t.Fatalf("single=%v double=%v", single, double)
	}
	if !almost(single, 24*0.95, 1e-9) {
		t.Fatalf("unit NVLink bw = %v, want 22.8", single)
	}
	if rl := f.ReduceLink(3); f.Links[rl].BW != DefaultConfig().ReduceBW {
		t.Fatalf("reduce link bw wrong")
	}
}

func TestBufferSet(t *testing.T) {
	s := NewBufferSet()
	b := s.Buffer(0, 1, 4)
	if len(b) != 4 {
		t.Fatalf("buffer len %d", len(b))
	}
	b[2] = 7
	if s.Buffer(0, 1, 4)[2] != 7 {
		t.Fatal("buffer not persistent")
	}
	big := s.Buffer(0, 1, 8)
	if big[2] != 7 {
		t.Fatal("grow lost data")
	}
	s.SetBuffer(1, 0, []float32{1, 2, 3})
	if got := s.Buffer(1, 0, 3); got[1] != 2 {
		t.Fatal("SetBuffer not visible")
	}
	if s.Span() != 8 {
		t.Fatalf("span %d, want the longest buffer's 8", s.Span())
	}
}

func TestBufferSetNoKeyAliasing(t *testing.T) {
	// The legacy fabric map keyed buffers by v*1024+tag, so (v, tag) pairs
	// like (0, 1024) and (1, 0) collided. The struct-keyed BufferSet must
	// keep every combination distinct, including huge tags and vertex IDs.
	s := NewBufferSet()
	cases := [][2]int{{0, 1024}, {1, 0}, {2, 2048}, {4, 0}, {0, 5000}, {3, 3000}, {1000, 7}}
	for i, c := range cases {
		s.Buffer(c[0], c[1], 4)[0] = float32(i + 1)
	}
	for i, c := range cases {
		if got := s.Buffer(c[0], c[1], 4)[0]; got != float32(i+1) {
			t.Fatalf("buffer (%d,%d) = %v, want %d: keys alias", c[0], c[1], got, i+1)
		}
	}
}

func TestFabricPCIePlane(t *testing.T) {
	topo := topology.DGX1V()
	f := NewFabric(topo, topo.PCIeGraph(), Config{})
	// PCIe links should land near 5.5 GB/s per DESIGN.md.
	for i, e := range topo.PCIeGraph().Edges {
		if e.Type != graph.PCIe {
			continue
		}
		bw := f.Links[i].BW
		if bw < 4.5 || bw > 6.5 {
			t.Fatalf("PCIe link bw = %v, want ~5.2-5.5", bw)
		}
	}
}
