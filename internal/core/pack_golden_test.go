package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"blink/internal/graph"
	"blink/internal/topology"
)

// goldenPackingDigest is the SHA-256 of every packing TestGoldenPackingDigest
// computes. It was generated before the MWU loop moved onto a reusable
// arborescence workspace and must not change with any change that claims to
// leave the trees alone: a different digest means some tree, edge order,
// weight, rate or bound moved.
const goldenPackingDigest = "3fe22cb935e7d10ffd94eb386f9cc95b0afebf0908dc081c764f342a299d1c08"

// TestGoldenPackingDigest pins PackTrees and PackRoot bit for bit on every
// (allocation, root) pair of the paper's DGX-1V and DGX-1P allocations, on
// every root of the physical DGX-2 (GPUs around the switch relay), and on
// one root of the logical all-to-all DGX-2 graph (all its roots are
// symmetric). It hashes each packing's root, rate and bound bits, and each
// tree's root, edges in order and weight bits.
func TestGoldenPackingDigest(t *testing.T) {
	h := sha256.New()
	put := func(vals ...uint64) {
		var b [8]byte
		for _, v := range vals {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	hashPacking := func(p *Packing) {
		put(uint64(p.Root), math.Float64bits(p.Rate), math.Float64bits(p.Bound), uint64(len(p.Trees)))
		for _, tr := range p.Trees {
			put(uint64(tr.Arbo.Root), math.Float64bits(tr.Weight), uint64(len(tr.Arbo.Edges)))
			for _, id := range tr.Arbo.Edges {
				put(uint64(id))
			}
		}
	}

	type job struct {
		g     *graph.Graph
		roots int // roots 0..roots-1
	}
	var jobs []job
	for _, set := range []struct {
		m      *topology.Topology
		allocs [][]int
	}{{topology.DGX1V(), topology.Fig15AllocationsDGX1V}, {topology.DGX1P(), topology.Fig16AllocationsDGX1P}} {
		for _, devs := range set.allocs {
			ind, err := set.m.Induce(devs)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job{ind.GPUGraph(), len(devs)})
		}
	}
	jobs = append(jobs, job{topology.DGX2().NVLinkGraph(), topology.DGX2().NumGPUs}, job{topology.DGX2Logical(), 1})

	pl := NewPlannerPipeline(PipelineOptions{Workers: 1})
	pairs := 0
	for _, j := range jobs {
		for root := 0; root < j.roots; root++ {
			p, err := PackTrees(j.g, root)
			if err != nil {
				t.Fatalf("PackTrees(%v, root %d): %v", j.g, root, err)
			}
			hashPacking(p)
			q, _, err := pl.PackRoot(j.g, root)
			if err != nil {
				t.Fatalf("PackRoot(%v, root %d): %v", j.g, root, err)
			}
			hashPacking(q)
			pairs++
		}
	}
	if pairs != 223+70+16+1 {
		t.Fatalf("hashed %d (graph, root) pairs, want 310", pairs)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenPackingDigest {
		t.Fatalf("packing digest %s, want %s", got, goldenPackingDigest)
	}
}
