package collective

import (
	"strings"
	"testing"

	"blink/internal/simgpu"
	"blink/internal/topology"
)

// TestExchangeOpsBothBackends runs the three point-to-point collectives in
// timing mode under both backends on the full DGX-1V: every combination
// must produce a positive-throughput schedule, and the Blink AllToAll must
// not lose to the store-and-forward ring baseline.
func TestExchangeOpsBothBackends(t *testing.T) {
	e := newEng(t, []int{0, 1, 2, 3, 4, 5, 6, 7})
	chain := []int{0, 1, 2, 3, 4, 5, 6, 7}
	neighbors := make([][]int, 8)
	for v := range neighbors {
		neighbors[v] = []int{(v + 1) % 8, (v + 7) % 8}
	}
	cases := []struct {
		op   Op
		opts Options
	}{
		{AllToAll, Options{}},
		{SendRecv, Options{Chain: chain}},
		{NeighborExchange, Options{Neighbors: neighbors}},
	}
	for _, c := range cases {
		var tput [2]float64
		for i, b := range []Backend{Blink, NCCL} {
			res, err := e.Run(b, c.op, 0, 64<<20, c.opts)
			if err != nil {
				t.Fatalf("%v/%v: %v", b, c.op, err)
			}
			if res.ThroughputGBs <= 0 {
				t.Fatalf("%v/%v: throughput %.2f", b, c.op, res.ThroughputGBs)
			}
			tput[i] = res.ThroughputGBs
		}
		if c.op == AllToAll && tput[0] < tput[1] {
			t.Fatalf("Blink AllToAll %.1f GB/s below ring baseline %.1f", tput[0], tput[1])
		}
	}
}

// TestPointToPointVsRing is the gate the retired `blinkbench -mixed` mode
// held: on the full DGX-1V, at 16, 64 and 256 MB, Blink's AllToAll (every
// source scattering over its own packed trees) must at least match the
// baseline's store-and-forward ring walk, and sit in the ~1.4-1.5x band
// README quotes. The numbers are simulated seconds, identical on every run,
// so a test asserts them; the SendRecv chain and ring NeighborExchange
// ratios are logged beside them.
func TestPointToPointVsRing(t *testing.T) {
	e := newEng(t, []int{0, 1, 2, 3, 4, 5, 6, 7})
	neighbors := make([][]int, 8)
	for v := range neighbors {
		neighbors[v] = []int{(v + 1) % 8, (v + 7) % 8}
	}
	for _, c := range []struct {
		op   Op
		opts Options
	}{
		{AllToAll, Options{}},
		{SendRecv, Options{Chain: []int{0, 1, 2, 3, 4, 5, 6, 7}}},
		{NeighborExchange, Options{Neighbors: neighbors}},
	} {
		for _, bytes := range []int64{16 << 20, 64 << 20, 256 << 20} {
			blink, err := e.Run(Blink, c.op, 0, bytes, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			ring, err := e.Run(NCCL, c.op, 0, bytes, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			ratio := blink.ThroughputGBs / ring.ThroughputGBs
			t.Logf("%v %d MB: Blink %.2f GB/s (%s) / ring %.2f GB/s (%s) = %.3fx",
				c.op, bytes>>20, blink.ThroughputGBs, blink.Strategy, ring.ThroughputGBs, ring.Strategy, ratio)
			if c.op != AllToAll {
				continue
			}
			if ratio < 1.0 {
				t.Fatalf("Blink AllToAll at %d MB is %.3fx the ring baseline, below the 1.0x gate", bytes>>20, ratio)
			}
			if ratio < 1.4 || ratio > 1.5 {
				t.Fatalf("Blink AllToAll at %d MB is %.3fx the ring baseline, outside README's ~1.4-1.5x", bytes>>20, ratio)
			}
		}
	}
}

// TestExchangeOpsPartialAllocation: on the ringless {0,1,4} allocation the
// NCCL baseline falls back to the PCIe ring while Blink routes over the
// packed NVLink trees.
func TestExchangeOpsPartialAllocation(t *testing.T) {
	e := newEng(t, []int{0, 1, 4})
	blink := mustRun(t, e, Blink, AllToAll, 32<<20, Options{})
	nccl := mustRun(t, e, NCCL, AllToAll, 32<<20, Options{})
	if !strings.Contains(nccl.Strategy, "pcie-ring") {
		t.Fatalf("NCCL strategy = %q, want pcie-ring fallback", nccl.Strategy)
	}
	if blink.ThroughputGBs <= nccl.ThroughputGBs {
		t.Fatalf("Blink %.1f GB/s should beat the PCIe baseline %.1f",
			blink.ThroughputGBs, nccl.ThroughputGBs)
	}
}

// TestExchangeOpsOnSwitch: the DGX-2 compiles all three ops over one-hop
// switch trees (Blink) and the natural switch ring (NCCL).
func TestExchangeOpsOnSwitch(t *testing.T) {
	e := mustEngine(t, topology.DGX2(), nil, simgpu.Config{})
	chain := []int{0, 5, 11}
	for _, b := range []Backend{Blink, NCCL} {
		if _, err := e.Run(b, AllToAll, 0, 64<<20, Options{}); err != nil {
			t.Fatalf("%v AllToAll: %v", b, err)
		}
		if _, err := e.Run(b, SendRecv, 0, 8<<20, Options{Chain: chain}); err != nil {
			t.Fatalf("%v SendRecv: %v", b, err)
		}
	}
	res := mustRun(t, e, Blink, AllToAll, 64<<20, Options{})
	if !strings.Contains(res.Strategy, "one-hop") {
		t.Fatalf("DGX-2 strategy = %q, want one-hop", res.Strategy)
	}
}

// TestShapeKeyDifferentiatesPlans: two SendRecv calls with different chains
// (and two NeighborExchange calls with different lists) of equal payload
// must compile separately — the PlanKey Shape keeps them from sharing a
// frozen schedule — while repeating a shape replays its plan.
func TestShapeKeyDifferentiatesPlans(t *testing.T) {
	e := newEng(t, []int{0, 1, 2, 3})
	base := e.CacheStats()
	run := func(opts Options, op Op) Result {
		t.Helper()
		res := mustRun(t, e, Blink, op, 4<<20, opts)
		return res
	}
	a := run(Options{Chain: []int{0, 1, 2}}, SendRecv)
	b := run(Options{Chain: []int{0, 3}}, SendRecv)
	run(Options{Neighbors: [][]int{{1}, {0}, {3}, {2}}}, NeighborExchange)
	run(Options{Neighbors: [][]int{{2}, {}, {0}, {}}}, NeighborExchange)
	st := e.CacheStats()
	if got := st.Misses - base.Misses; got != 4 {
		t.Fatalf("4 distinct shapes should compile 4 plans, got %d misses", got)
	}
	warmA := run(Options{Chain: []int{0, 1, 2}}, SendRecv)
	st2 := e.CacheStats()
	if st2.Hits == st.Hits {
		t.Fatalf("repeated chain should hit the cache: %+v", st2)
	}
	if warmA.Seconds != a.Seconds {
		t.Fatalf("warm replay diverged: %v != %v", warmA.Seconds, a.Seconds)
	}
	if a.Seconds == b.Seconds && a.Strategy == b.Strategy {
		// Different chains route different distances; identical timing for
		// chains of different hop counts would suggest a shared plan.
		t.Fatalf("distinct chains produced identical results: %+v vs %+v", a, b)
	}
}

// TestExchangeOpValidationErrors: malformed shapes surface clean errors
// through the engine under both backends.
func TestExchangeOpValidationErrors(t *testing.T) {
	e := newEng(t, []int{0, 1, 2, 3})
	for _, b := range []Backend{Blink, NCCL} {
		if _, err := e.Run(b, SendRecv, 0, 1<<20, Options{Chain: []int{0, 0}}); err == nil {
			t.Fatalf("%v: self-loop chain accepted", b)
		}
		if _, err := e.Run(b, SendRecv, 0, 1<<20, Options{Chain: []int{0}}); err == nil {
			t.Fatalf("%v: single-rank chain accepted", b)
		}
		if _, err := e.Run(b, NeighborExchange, 0, 1<<20, Options{Neighbors: [][]int{{1}, {0}}}); err == nil {
			t.Fatalf("%v: wrong row count accepted", b)
		}
		if _, err := e.Run(b, NeighborExchange, 0, 1<<20, Options{Neighbors: [][]int{{0}, {}, {}, {}}}); err == nil {
			t.Fatalf("%v: self-loop neighbor accepted", b)
		}
	}
	// AllToAll payload must split into at least one float per (src, dst)
	// pair.
	if _, err := e.Run(Blink, AllToAll, 0, 4, Options{}); err == nil {
		t.Fatal("undersized AllToAll accepted")
	}
}
