// Package verify is a randomized differential-testing harness: it runs
// collectives in data mode across random allocations, payload sizes and
// chunkings, for both scheduling backends, and checks the mathematical
// postconditions (broadcast delivers the root's buffer everywhere,
// AllReduce produces the elementwise sum on every rank). The test suites
// exercise fixed cases; this harness explores the space.
package verify

import (
	"fmt"
	"math/rand"

	"blink/internal/collective"
	"blink/internal/core"
	"blink/internal/graph"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

// packingEps absorbs the MWU packing's floating-point accumulation when
// checking capacity and rate invariants.
const packingEps = 1e-6

// CheckPacking validates the §3.2 invariants of a spanning-tree packing
// against the graph it was generated over:
//
//  1. every tree is a valid arborescence of g rooted at the packing root,
//  2. tree weights are positive and sum to the packing rate,
//  3. the summed weight crossing each edge respects the edge capacity,
//  4. the rate does not exceed the Edmonds/Lovász upper bound.
func CheckPacking(g *graph.Graph, p *core.Packing) error {
	if p == nil {
		return fmt.Errorf("verify: nil packing")
	}
	load := make([]float64, len(g.Edges))
	rate := 0.0
	for ti, t := range p.Trees {
		if t.Weight <= 0 {
			return fmt.Errorf("verify: tree %d has non-positive weight %v", ti, t.Weight)
		}
		if t.Arbo.Root != p.Root {
			return fmt.Errorf("verify: tree %d rooted at %d, packing root %d", ti, t.Arbo.Root, p.Root)
		}
		if err := t.Arbo.Validate(g); err != nil {
			return fmt.Errorf("verify: tree %d invalid: %w", ti, err)
		}
		rate += t.Weight
		for _, eid := range t.Arbo.Edges {
			if eid < 0 || eid >= len(g.Edges) {
				return fmt.Errorf("verify: tree %d uses unknown edge %d", ti, eid)
			}
			load[eid] += t.Weight
		}
	}
	if diff := rate - p.Rate; diff > packingEps || diff < -packingEps {
		return fmt.Errorf("verify: tree weights sum to %v, packing rate %v", rate, p.Rate)
	}
	for eid, l := range load {
		if l > g.Edges[eid].Cap+packingEps {
			return fmt.Errorf("verify: edge %d loaded %v over capacity %v", eid, l, g.Edges[eid].Cap)
		}
	}
	if p.Bound > 0 && p.Rate > p.Bound+packingEps {
		return fmt.Errorf("verify: rate %v exceeds optimal bound %v", p.Rate, p.Bound)
	}
	return nil
}

// CaseResult records one verification case.
type CaseResult struct {
	Devs    []int
	Op      collective.Op
	Backend collective.Backend
	Floats  int
	Chunk   int64
	OK      bool
	Detail  string
}

// Options shapes a verification run.
type Options struct {
	Cases int
	Seed  int64
	// MaxFloats bounds payload sizes (default 4096).
	MaxFloats int
}

// Run executes randomized verification cases on a DGX-1V and returns
// per-case results; any failing case also returns an error.
func Run(opts Options) ([]CaseResult, error) {
	if opts.Cases <= 0 {
		opts.Cases = 50
	}
	if opts.MaxFloats <= 0 {
		opts.MaxFloats = 4096
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	machine := topology.DGX1V()
	var out []CaseResult
	var firstErr error
	for i := 0; i < opts.Cases; i++ {
		perm := rng.Perm(8)
		k := 2 + rng.Intn(7)
		devs := append([]int(nil), perm[:k]...)
		backend := collective.Backend(rng.Intn(2))
		op := collective.Broadcast
		if rng.Intn(2) == 0 {
			op = collective.AllReduce
		}
		floats := 64 + rng.Intn(opts.MaxFloats)
		chunk := int64(4 * (1 + rng.Intn(512)))
		res := runCase(machine, devs, backend, op, floats, chunk, rng)
		out = append(out, res)
		if !res.OK && firstErr == nil {
			firstErr = fmt.Errorf("verify: case %d failed: %s", i, res.Detail)
		}
	}
	return out, firstErr
}

func runCase(machine *topology.Topology, devs []int, backend collective.Backend, op collective.Op, floats int, chunk int64, rng *rand.Rand) CaseResult {
	res := CaseResult{Devs: devs, Op: op, Backend: backend, Floats: floats, Chunk: chunk}
	cfg := simgpu.Config{DataMode: true}
	eng, err := collective.NewEngine(machine, devs, cfg)
	if err != nil {
		res.Detail = err.Error()
		return res
	}
	ranks := eng.Topo().NumGPUs
	bufs := simgpu.NewBufferSet()

	switch op {
	case collective.Broadcast:
		src := make([]float32, floats)
		for i := range src {
			src[i] = rng.Float32()
		}
		bufs.SetBuffer(0, core.BufData, append([]float32(nil), src...))
		if _, err := eng.Run(backend, op, 0, int64(floats)*4, collective.Options{ChunkBytes: chunk, DataMode: true, Buffers: bufs}); err != nil {
			res.Detail = err.Error()
			return res
		}
		for v := 0; v < ranks; v++ {
			got := bufs.Buffer(v, core.BufData, floats)
			for i := range src {
				if got[i] != src[i] {
					res.Detail = fmt.Sprintf("broadcast: rank %d float %d = %v, want %v (devs %v backend %v)",
						v, i, got[i], src[i], devs, backend)
					return res
				}
			}
		}
	case collective.AllReduce:
		want := make([]float32, floats)
		for v := 0; v < ranks; v++ {
			in := make([]float32, floats)
			for i := range in {
				in[i] = float32(rng.Intn(64))
			}
			bufs.SetBuffer(v, core.BufData, in)
			for i := range want {
				want[i] += in[i]
			}
		}
		if _, err := eng.Run(backend, op, 0, int64(floats)*4, collective.Options{ChunkBytes: chunk, DataMode: true, Buffers: bufs}); err != nil {
			res.Detail = err.Error()
			return res
		}
		for v := 0; v < ranks; v++ {
			got := bufs.Buffer(v, core.BufAcc, floats)
			for i := range want {
				if got[i] != want[i] {
					res.Detail = fmt.Sprintf("allreduce: rank %d float %d = %v, want %v (devs %v backend %v chunk %d)",
						v, i, got[i], want[i], devs, backend, chunk)
					return res
				}
			}
		}
	default:
		res.Detail = fmt.Sprintf("unsupported op %v", op)
		return res
	}
	res.OK = true
	return res
}

// Summary aggregates results.
func Summary(rs []CaseResult) (pass, fail int) {
	for _, r := range rs {
		if r.OK {
			pass++
		} else {
			fail++
		}
	}
	return
}
