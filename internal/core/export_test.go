package core

import "blink/internal/simgpu"

// ReplayStripes is a data replay of fp against ctx whose stripes the caller
// chooses: stripe s covers floats [cuts[s], cuts[s+1]), where the product
// path splits the arena's span evenly by GOMAXPROCS.
func (fp *FrozenPlan) ReplayStripes(ctx *simgpu.BufferSet, cuts []int) {
	fp.replayStripes(ctx, nil, cuts)
}
