package collective

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"blink/internal/core"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

// randomConnectedSpec emits a Parse spec for a random connected NVLink
// fabric: a random spanning tree, so it is connected, plus extra random
// edges, each of 1–2 links.
func randomConnectedSpec(rng *rand.Rand, n int) string {
	var parts []string
	edge := func(a, b int) {
		parts = append(parts, fmt.Sprintf("%d-%d:%d", a, b, 1+rng.Intn(2)))
	}
	for v := 1; v < n; v++ {
		edge(rng.Intn(v), v)
	}
	for i := rng.Intn(n); i > 0; i-- {
		if a, b := rng.Intn(n), rng.Intn(n); a != b {
			edge(a, b)
		}
	}
	return "v100; " + strings.Join(parts, ", ")
}

// checkData runs a data-mode Broadcast, AllReduce or AllToAll of floats on
// eng, its inputs and root drawn from rng, and checks every rank's result
// against the sequential reference, elementwise.
func checkData(t *testing.T, eng *Engine, b Backend, op Op, floats int, chunk int64, rng *rand.Rand) {
	t.Helper()
	ranks := eng.Topo().NumGPUs
	opts := Options{ChunkBytes: chunk, DataMode: true, Buffers: simgpu.NewBufferSet()}
	run := func(root, floats int) {
		t.Helper()
		if _, err := eng.Run(b, op, root, int64(floats)*4, opts); err != nil {
			t.Fatalf("%v %v of %d floats, chunk %d, on %s: %v", b, op, floats, chunk, eng.Topo().Name, err)
		}
		// Every accepted plan fits the compile budget, whichever row won.
		key := eng.planKey(eng.Fingerprint(), request{b: b, op: op, root: root, bytes: int64(floats) * 4, opts: opts})
		if cp, ok := eng.cache.Get(key); !ok || cp.Plan.NumOps() > core.MaxPlanOps {
			t.Fatalf("%v %v of %d floats, chunk %d, on %s: cached %v, over the %d-op budget", b, op, floats, chunk, eng.Topo().Name, ok, core.MaxPlanOps)
		}
	}
	same := func(v int, got, want []float32) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v %v of %d floats, chunk %d, on %s: rank %d float %d = %v, want %v",
					b, op, floats, chunk, eng.Topo().Name, v, i, got[i], want[i])
			}
		}
	}
	input := func(n int, v func() float32) []float32 {
		in := make([]float32, n)
		for i := range in {
			in[i] = v()
		}
		return in
	}
	switch op {
	case Broadcast:
		root, src := rng.Intn(ranks), input(floats, rng.Float32)
		opts.Buffers.SetBuffer(root, core.BufData, append([]float32(nil), src...))
		run(root, floats)
		for v := 0; v < ranks; v++ {
			same(v, opts.Buffers.Buffer(v, core.BufData, floats), src)
		}
	case AllReduce:
		// Small integers sum exactly in any order.
		want := make([]float32, floats)
		for v := 0; v < ranks; v++ {
			in := input(floats, func() float32 { return float32(rng.Intn(64)) })
			for i, x := range in {
				want[i] += x
			}
			opts.Buffers.SetBuffer(v, core.BufData, in)
		}
		run(0, floats)
		for v := 0; v < ranks; v++ {
			same(v, opts.Buffers.Buffer(v, core.BufAcc, floats), want)
		}
	default:
		// Rank d ends with every rank r's d-th shard under ExchangeTag(r).
		shard := (floats + ranks - 1) / ranks
		inputs := make([][]float32, ranks)
		for v := range inputs {
			inputs[v] = input(shard*ranks, rng.Float32)
			opts.Buffers.SetBuffer(v, core.BufData, append([]float32(nil), inputs[v]...))
		}
		run(0, shard*ranks)
		for d := 0; d < ranks; d++ {
			for r := 0; r < ranks; r++ {
				got := opts.Buffers.Buffer(d, core.ExchangeTag(r), shard*ranks)
				same(d, got[d*shard:(d+1)*shard], inputs[r][d*shard:(d+1)*shard])
			}
		}
	}
}

// derivations packs up to three {kind, a, b} derivations into
// FuzzEngineData's derive input.
func derivations(ds ...[3]int) int {
	v := len(ds)
	for i, d := range ds {
		v |= (d[0] | d[1]<<2 | d[2]<<5) << (2 + 8*i)
	}
	return v
}

// FuzzEngineData is the randomized differential check of the data path: a
// data-mode Engine.Run must return what the sequential reference computes
// (checkData) from a plan within core.MaxPlanOps, and every root's packing
// must pass Packing.Validate on the plane the engine schedules over. On a pristine machine every case must
// succeed. After a derivation only a clean derivation or Reconfigure error
// is allowed, and the engine must run on. The inputs:
//
//	machine  0 is the DGX-1V; any other value seeds a custom fabric of 3–8 GPUs
//	mask     the allocation, one bit per GPU; fewer than two GPUs skip the case
//	derive   the derivation count (low 2 bits), then 8 bits for each: its
//	         kind (WithoutLink, WithLinkUnits, else WithoutDevice) and the
//	         two GPUs it names, 3 bits each, then Reconfigure
//	op       Broadcast, AllReduce or AllToAll
//	nccl     the NCCL backend instead of Blink, for a Broadcast or an AllReduce
//	floats   the payload, 1–4,160 floats
//	chunk    0 is auto, else an explicit chunk of 4–2,048 B
//	data     seeds the inputs and the Broadcast root
func FuzzEngineData(f *testing.F) {
	f.Add(0, 0xff, 0, 1, false, 4159, 0, 1)   // whole DGX-1V AllReduce, auto chunk
	f.Add(0, 0xff, 0, 0, false, 4095, 2, 2)   // Broadcast in 12 B chunks
	f.Add(0, 0x72, 0, 0, true, 3001, 511, 3)  // [1 4 5 6] NCCL Broadcast, 2,048 B chunks
	f.Add(0, 0x43, 0, 1, false, 2047, 8, 4)   // [0 1 6] over PCIe, 36 B chunks
	f.Add(0, 0x0c, 0, 1, true, 64, 0, 5)      // two GPUs, NCCL
	f.Add(0, 0x3e, 0, 2, false, 1284, 512, 6) // AllToAll in 4 B chunks
	f.Add(0, 0x81, 0, 0, false, 0, 0, 7)      // one float
	f.Add(11, 0xff, 0, 1, false, 999, 99, 8)  // custom fabric AllReduce
	f.Add(12, 0x1d, 0, 0, true, 333, 17, 9)   // custom fabric NCCL Broadcast
	f.Add(13, 0xff, 0, 2, false, 520, 3, 10)  // custom fabric AllToAll
	f.Add(0, 0xff, derivations([3]int{0, 0, 1}), 1, false, 1500, 0, 11)
	f.Add(0, 0xff, derivations([3]int{2, 3, 0}, [3]int{1, 4, 5}), 2, false, 700, 31, 12)
	f.Add(14, 0xff, derivations([3]int{2, 1, 0}, [3]int{0, 0, 2}, [3]int{2, 0, 0}), 1, false, 800, 5, 13) // down to PCIe
	// Evicting GPU 4 of [4 5] leaves one GPU, which Reconfigure must
	// refuse: an NCCL AllReduce on one GPU returns zeros.
	f.Add(0, 0x30, derivations([3]int{2, 4, 0}), 1, true, 100, 0, 14)
	f.Add(0, 0x30, derivations([3]int{2, 4, 0}, [3]int{2, 4, 0}), 2, false, 100, 0, 15) // evicts both
	f.Add(0, 0xff, 0, 1, true, 4, 0, 16)                                                // NCCL AllReduce of 5 floats: fewer than a float per rank
	f.Fuzz(func(t *testing.T, machine, mask, derive, op int, nccl bool, floats, chunk, data int) {
		mod := func(x, m int) int { return (x%m + m) % m }
		m := topology.DGX1V()
		if machine != 0 {
			rng := rand.New(rand.NewSource(int64(machine)))
			var err error
			if m, err = topology.Parse(randomConnectedSpec(rng, 3+rng.Intn(6))); err != nil {
				t.Fatal(err)
			}
		}
		var devs []int
		for d := 0; d < m.NumGPUs; d++ {
			if mask>>d&1 == 1 {
				devs = append(devs, d)
			}
		}
		if len(devs) < 2 {
			return
		}
		eng, err := NewEngine(m, devs, simgpu.Config{DataMode: true})
		if err != nil {
			t.Fatalf("%s %v: %v", m.Name, devs, err)
		}

		cur, derived := m, false
		for i := 0; i < derive&3; i++ {
			s := derive >> (2 + 8*i)
			a, b := cur.DevIDs[(s>>2&7)%cur.NumGPUs], cur.DevIDs[(s>>5&7)%cur.NumGPUs]
			var next *topology.Topology
			switch s & 3 {
			case 0:
				next, err = cur.WithoutLink(a, b)
			case 1:
				next, err = cur.WithLinkUnits(a, b, 0.5)
			default:
				if next, err = cur.WithoutDevice(a); err == nil {
					devs = slices.DeleteFunc(devs, func(d int) bool { return d == a })
				}
			}
			if err == nil {
				cur, derived = next, true
			}
		}
		if derived {
			// A clean error leaves the engine on its old topology.
			_ = eng.Reconfigure(cur, devs)
		}

		o, n, c := [3]Op{Broadcast, AllReduce, AllToAll}[mod(op, 3)], 1+mod(floats, 4160), int64(0)
		if chunk != 0 {
			c = 4 * int64(1+mod(chunk, 512))
		}
		b := Blink
		if nccl && o != AllToAll {
			b = NCCL
		}
		checkData(t, eng, b, o, n, c, rand.New(rand.NewSource(int64(data))))

		g := eng.Topo().GPUGraph()
		if !eng.NVLinkConnected() {
			g = eng.Topo().PCIeGraph()
		}
		for root := 0; root < eng.Topo().NumGPUs; root++ {
			p, err := eng.Packing(root)
			if err == nil {
				err = p.Validate(g)
			}
			if err != nil {
				t.Fatalf("packing root %d on %s: %v", root, eng.Topo().Name, err)
			}
		}
	})
}
