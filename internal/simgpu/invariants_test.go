package simgpu

import (
	"math/rand"
	"sort"
	"testing"
)

// randomDAG builds a random op set with stream ordering and random
// dependencies that always point backwards (guaranteeing acyclicity).
func randomDAG(rng *rand.Rand, nLinks, nOps int) ([]Link, []*Op) {
	links := make([]Link, nLinks)
	for i := range links {
		links[i] = Link{BW: 1 + rng.Float64()*20, Latency: rng.Float64() * 2e-6}
	}
	ops := make([]*Op, nOps)
	for i := range ops {
		op := &Op{
			Stream:   rng.Intn(nLinks + 2),
			Link:     rng.Intn(nLinks+1) - 1, // -1 allowed
			Bytes:    int64(rng.Intn(1 << 22)),
			Overhead: rng.Float64() * 1e-5,
		}
		for d := 0; d < rng.Intn(3); d++ {
			if i > 0 {
				op.Deps = append(op.Deps, rng.Intn(i))
			}
		}
		ops[i] = op
	}
	return links, ops
}

// TestEngineInvariants checks fundamental properties over many random
// schedules: dependency ordering, stream FIFO, exclusive link occupancy of
// the wire portion, and makespan consistency.
func TestEngineInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		links, ops := randomDAG(rng, 1+rng.Intn(5), 1+rng.Intn(60))
		var sim Sim
		res, err := sim.Run(links, ops, nil, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		start, finish := sim.Start, sim.Finish
		// 1. Dependencies: an op starts no earlier than its deps finish.
		for i, op := range ops {
			for _, d := range op.Deps {
				if start[i] < finish[d]-1e-12 {
					t.Fatalf("trial %d: op %d starts %.9f before dep %d finishes %.9f",
						trial, i, start[i], d, finish[d])
				}
			}
		}
		// 2. Stream FIFO: ops on a stream finish in issue order.
		last := map[int]float64{}
		for i, op := range ops {
			if f, ok := last[op.Stream]; ok && finish[i] < f-1e-12 {
				t.Fatalf("trial %d: stream %d op %d finishes before its predecessor", trial, op.Stream, i)
			}
			last[op.Stream] = finish[i]
		}
		// 3. Link exclusivity: wire windows on one link do not overlap.
		// The wire window is [finish-wire, finish]; reconstruct wire from
		// link rate and latency.
		byLink := map[int][]int{}
		for i, op := range ops {
			if op.Link >= 0 {
				byLink[op.Link] = append(byLink[op.Link], i)
			}
		}
		for l, lops := range byLink {
			wireOf := func(i int) float64 {
				return links[l].Latency + float64(ops[i].Bytes)/(links[l].BW*1e9)
			}
			sort.Slice(lops, func(i, j int) bool { return finish[lops[i]] < finish[lops[j]] })
			for i := 1; i < len(lops); i++ {
				prevEnd := finish[lops[i-1]]
				thisWireStart := finish[lops[i]] - wireOf(lops[i])
				if thisWireStart < prevEnd-1e-9 {
					t.Fatalf("trial %d: link %d wire windows overlap: %.9f < %.9f",
						trial, l, thisWireStart, prevEnd)
				}
			}
		}
		// 4. Makespan equals the max finish.
		maxFin := 0.0
		for _, f := range finish {
			maxFin = max(maxFin, f)
		}
		if res.Makespan != maxFin {
			t.Fatalf("trial %d: makespan %.9f != max finish %.9f", trial, res.Makespan, maxFin)
		}
	}
}

// TestEngineDeterminism re-runs identical schedules and requires byte-equal
// timing.
func TestEngineDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	links, ops := randomDAG(rng, 4, 50)
	clone := func() []*Op {
		out := make([]*Op, len(ops))
		for i, op := range ops {
			cp := *op
			cp.Deps = append([]int(nil), op.Deps...)
			out[i] = &cp
		}
		return out
	}
	var a, b Sim
	ra, err := a.Run(links, clone(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Run(links, clone(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Makespan != rb.Makespan {
		t.Fatalf("nondeterministic makespan: %v vs %v", ra.Makespan, rb.Makespan)
	}
	for i := range a.Start {
		if a.Start[i] != b.Start[i] || a.Finish[i] != b.Finish[i] {
			t.Fatalf("op %d timing differs across runs", i)
		}
	}
}

// TestEngineRerunnable verifies the same op slice can be Run twice (state
// is reset).
func TestEngineRerunnable(t *testing.T) {
	links := []Link{{BW: 1}}
	ops := []*Op{
		{Stream: 0, Link: 0, Bytes: 1e9},
		{Stream: 1, Link: 0, Bytes: 1e9, Deps: []int{0}},
	}
	r1, err := Run(links, ops, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(links, ops, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Makespan != r2.Makespan {
		t.Fatalf("rerun changed makespan: %v vs %v", r1.Makespan, r2.Makespan)
	}
}
