package core

import "blink/internal/simgpu"

// ReplayStripes is a data replay of fp against ctx whose stripes the caller
// chooses: stripe s covers floats [cuts[s], cuts[s+1]), where the product
// path splits the arena's span evenly by GOMAXPROCS.
func (fp *FrozenPlan) ReplayStripes(ctx *simgpu.BufferSet, cuts []int) {
	fp.replayStripes(ctx, nil, cuts)
}

// ShallowPacking is the shallow packing PlanIR.tuned races last for an
// AllReduce over f, hung from root (shallow), nil where there is none.
func ShallowPacking(f *simgpu.Fabric, root int) *Packing {
	rev, _ := reverseEdges(f.Graph)
	return shallow(f.Graph, ranksOf(f), root, 0, rev, new(scratch))
}
