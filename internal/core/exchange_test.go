package core

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"blink/internal/simgpu"
	"blink/internal/topology"
)

// exchangeFabric builds a data-mode fabric over the induced NVLink plane
// plus a per-root packing function, the shape BuildAllToAllPlan consumes.
func exchangeFabric(t *testing.T, topo *topology.Topology, devs []int) (*simgpu.Fabric, func(root int) (*Packing, error)) {
	t.Helper()
	ind, err := topo.Induce(devs)
	if err != nil {
		t.Fatal(err)
	}
	g := ind.GPUGraph()
	f := simgpu.NewFabric(ind, g, simgpu.Config{DataMode: true})
	packs := map[int]*Packing{}
	packFor := func(root int) (*Packing, error) {
		if p, ok := packs[root]; ok {
			return p, nil
		}
		p, err := GenerateTrees(g, root, PackOptions{}, MinimizeOptions{})
		if err != nil {
			return nil, err
		}
		packs[root] = p
		return p, nil
	}
	return f, packFor
}

// runAllToAll stages random inputs, executes the plan and checks every
// (source, dest) shard elementwise against the inputs.
func runAllToAll(t *testing.T, f *simgpu.Fabric, packFor func(int) (*Packing, error), n, shard int, chunk int64) {
	t.Helper()
	totalFloats := shard * n
	plan, err := BuildAllToAllPlan(f, packFor, int64(totalFloats)*4, PlanOptions{ChunkBytes: chunk, DataMode: true})
	if err != nil {
		t.Fatalf("BuildAllToAllPlan: %v", err)
	}
	rng := rand.New(rand.NewSource(int64(n*1000 + shard)))
	bufs := simgpu.NewBufferSet()
	inputs := make([][]float32, n)
	for v := 0; v < n; v++ {
		in := make([]float32, totalFloats)
		for i := range in {
			in[i] = float32(rng.Intn(1 << 14))
		}
		inputs[v] = in
		bufs.SetBuffer(v, BufData, append([]float32(nil), in...))
	}
	if _, err := plan.Freeze().ReplayData(bufs); err != nil {
		t.Fatalf("ExecuteData: %v", err)
	}
	for d := 0; d < n; d++ {
		for r := 0; r < n; r++ {
			got := bufs.Buffer(d, ExchangeTag(r), totalFloats)
			for i := 0; i < shard; i++ {
				want := inputs[r][d*shard+i]
				if got[d*shard+i] != want {
					t.Fatalf("n=%d shard=%d chunk=%d: dest %d from %d float %d = %v, want %v",
						n, shard, chunk, d, r, i, got[d*shard+i], want)
				}
			}
		}
	}
}

func TestAllToAllPlanDataCorrectness(t *testing.T) {
	for _, devs := range [][]int{
		{0, 1, 2, 3, 4, 5, 6, 7},
		{0, 1, 2, 3},
		{1, 4, 5, 6},
	} {
		f, packFor := exchangeFabric(t, topology.DGX1V(), devs)
		n := len(devs)
		for _, shard := range []int{1, 7, 64} {
			for _, chunk := range []int64{0, 64} {
				runAllToAll(t, f, packFor, n, shard, chunk)
			}
		}
	}
}

func TestAllToAllPlanPayloadTooSmall(t *testing.T) {
	f, packFor := exchangeFabric(t, topology.DGX1V(), []int{0, 1, 2, 3, 4, 5, 6, 7})
	if _, err := BuildAllToAllPlan(f, packFor, 4, PlanOptions{}); err == nil {
		t.Fatal("undersized payload accepted")
	}
}

func TestSendRecvChainPlanDataCorrectness(t *testing.T) {
	for _, chain := range [][]int{
		{0, 1, 2, 3, 4, 5, 6, 7},
		{7, 3, 0},
		{2, 5}, // non-adjacent on DGX-1V: BFS must route through a relay rank
	} {
		f, _ := exchangeFabric(t, topology.DGX1V(), []int{0, 1, 2, 3, 4, 5, 6, 7})
		const floats = 513
		plan, err := BuildSendRecvChainPlan(f, chain, floats*4, PlanOptions{ChunkBytes: 256, DataMode: true})
		if err != nil {
			t.Fatalf("chain %v: %v", chain, err)
		}
		bufs := simgpu.NewBufferSet()
		payload := make([]float32, floats)
		for i := range payload {
			payload[i] = float32(i + 1)
		}
		bufs.SetBuffer(chain[0], BufData, append([]float32(nil), payload...))
		if _, err := plan.Freeze().ReplayData(bufs); err != nil {
			t.Fatalf("chain %v: %v", chain, err)
		}
		for _, v := range chain {
			got := bufs.Buffer(v, BufData, floats)
			for i := range payload {
				if got[i] != payload[i] {
					t.Fatalf("chain %v: rank %d float %d = %v, want %v", chain, v, i, got[i], payload[i])
				}
			}
		}
	}
}

func TestSendRecvChainRejectsBadChains(t *testing.T) {
	f, _ := exchangeFabric(t, topology.DGX1V(), []int{0, 1, 2, 3})
	for _, chain := range [][]int{
		{0},          // too short
		{0, 0},       // self-loop hop
		{0, 1, 0},    // revisit
		{0, 9},       // out of range
		{-1, 1},      // negative
		{0, 1, 2, 2}, // duplicate tail
	} {
		if _, err := BuildSendRecvChainPlan(f, chain, 1024, PlanOptions{}); err == nil {
			t.Errorf("chain %v accepted", chain)
		}
	}
}

func TestSendRecvChainRejectsUnroutablePair(t *testing.T) {
	// Two disjoint NVLink islands: 0-1 and 2-3. A chain crossing them must
	// fail with a clean no-route error, not a panic.
	machine, err := topology.Parse("v100; 0-1:2, 2-3:2")
	if err != nil {
		t.Fatal(err)
	}
	ind, err := machine.Induce([]int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	f := simgpu.NewFabric(ind, ind.GPUGraph(), simgpu.Config{DataMode: true})
	if _, err := BuildSendRecvChainPlan(f, []int{0, 2}, 1024, PlanOptions{}); err == nil {
		t.Fatal("disconnected pair accepted")
	} else if !strings.Contains(err.Error(), "no route") {
		t.Fatalf("unexpected error shape: %v", err)
	}
}

func TestNeighborExchangePlanDataCorrectness(t *testing.T) {
	devs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	f, _ := exchangeFabric(t, topology.DGX1V(), devs)
	n := len(devs)
	// Bidirectional ring halo plus one long-distance pair.
	neighbors := make([][]int, n)
	for v := 0; v < n; v++ {
		neighbors[v] = []int{(v + 1) % n, (v + n - 1) % n}
	}
	neighbors[0] = append(neighbors[0], 5)
	const floats = 300
	plan, err := BuildNeighborExchangePlan(f, neighbors, floats*4, PlanOptions{ChunkBytes: 128, DataMode: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	bufs := simgpu.NewBufferSet()
	inputs := make([][]float32, n)
	for v := 0; v < n; v++ {
		in := make([]float32, floats)
		for i := range in {
			in[i] = float32(rng.Intn(1 << 12))
		}
		inputs[v] = in
		bufs.SetBuffer(v, BufData, append([]float32(nil), in...))
	}
	if _, err := plan.Freeze().ReplayData(bufs); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		for _, u := range neighbors[v] {
			got := bufs.Buffer(u, ExchangeTag(v), floats)
			for i := range inputs[v] {
				if got[i] != inputs[v][i] {
					t.Fatalf("recv %d from %d float %d = %v, want %v", u, v, i, got[i], inputs[v][i])
				}
			}
		}
	}
}

func TestNeighborExchangeRejectsBadLists(t *testing.T) {
	f, _ := exchangeFabric(t, topology.DGX1V(), []int{0, 1, 2, 3})
	for _, bad := range [][][]int{
		{{1}, {0}, {}},            // wrong row count
		{{0}, {}, {}, {}},         // self-loop
		{{9}, {}, {}, {}},         // out of range
		{{1, 1}, {}, {}, {}},      // duplicate target
		{{}, {}, {}, {}},          // no sends at all
		{{-1}, {}, {}, {}},        // negative target
		{{1}, {0}, {3}, {2}, {1}}, // too many rows
	} {
		if _, err := BuildNeighborExchangePlan(f, bad, 1024, PlanOptions{}); err == nil {
			t.Errorf("neighbor list %v accepted", bad)
		}
	}
}

func TestValidateHelpers(t *testing.T) {
	if err := ValidateChain(8, []int{0, 3, 7}); err != nil {
		t.Errorf("valid chain rejected: %v", err)
	}
	if err := ValidateNeighbors(2, [][]int{{1}, {0}}); err != nil {
		t.Errorf("valid neighbor list rejected: %v", err)
	}
}

// parseExchangeSpec decodes the fuzz corpus format: "c|r r r" for a chain,
// "n|a b;c;;d" for a neighbor list (rows ';'-separated, targets
// space-separated).
func parseExchangeSpec(s string) (chain []int, neighbors [][]int, ok bool) {
	kind, rest, found := strings.Cut(s, "|")
	if !found {
		return nil, nil, false
	}
	switch kind {
	case "c":
		for _, tok := range strings.Fields(rest) {
			v, err := strconv.Atoi(tok)
			if err != nil {
				return nil, nil, false
			}
			chain = append(chain, v)
		}
		return chain, nil, true
	case "n":
		for _, row := range strings.Split(rest, ";") {
			var r []int
			for _, tok := range strings.Fields(row) {
				v, err := strconv.Atoi(tok)
				if err != nil {
					return nil, nil, false
				}
				r = append(r, v)
			}
			neighbors = append(neighbors, r)
		}
		return nil, neighbors, true
	}
	return nil, nil, false
}

// FuzzExchangePlanBuilders drives the SendRecv-chain and NeighborExchange
// plan builders with arbitrary rank shapes over a full DGX-1V. The contract
// under fuzz: the builder returns a valid plan or a clean error — it never
// panics and never returns both. Valid plans must execute in data mode, and
// for neighbor lists every receiver must hold the sender's exact payload.
//
// The seeds (mirrored in testdata/fuzz/FuzzExchangePlanBuilders) cover the
// sharp edges: self-loops, out-of-range targets standing in for
// disconnected pairs, the max-degree node sending to everyone, wrong row
// counts, duplicate targets and malformed tokens.
func FuzzExchangePlanBuilders(f *testing.F) {
	for _, seed := range []string{
		"n|1;0;;;;;;",            // simple reciprocal pair
		"n|0;;;;;;;",             // self-loop -> reject
		"n|9;;;;;;;",             // out-of-range target -> reject
		"n|1 2 3 4 5 6 7;;;;;;;", // max-degree node 0 -> accept
		"n|1;0",                  // wrong row count -> reject
		"n|1 1;;;;;;;",           // duplicate target -> reject
		"n|;;;;;;;",              // no sends -> reject
		"c|0 7",                  // multi-hop route
		"c|0 1 2 3 4 5 6 7",      // full chain
		"c|0 0",                  // self-loop hop -> reject
		"c|0",                    // too short -> reject
		"c|0 8",                  // out of range -> reject
		"c|0 x",                  // malformed token
		"q|0 1",                  // unknown kind
	} {
		f.Add(seed)
	}
	ind, err := topology.DGX1V().Induce([]int{0, 1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		f.Fatal(err)
	}
	fab := simgpu.NewFabric(ind, ind.GPUGraph(), simgpu.Config{DataMode: true})
	const floats = 32
	f.Fuzz(func(t *testing.T, spec string) {
		chain, neighbors, ok := parseExchangeSpec(spec)
		if !ok {
			return
		}
		// Guard against fuzz inputs allocating absurd shapes before
		// validation can reject them.
		if len(chain) > 64 || len(neighbors) > 64 {
			return
		}
		var plan *Plan
		var err error
		if chain != nil {
			plan, err = BuildSendRecvChainPlan(fab, chain, floats*4, PlanOptions{ChunkBytes: 64, DataMode: true})
		} else {
			plan, err = BuildNeighborExchangePlan(fab, neighbors, floats*4, PlanOptions{ChunkBytes: 64, DataMode: true})
		}
		if err != nil {
			if plan != nil {
				t.Fatalf("%q: both plan and error %v", spec, err)
			}
			return
		}
		if plan == nil || len(plan.Ops) == 0 {
			t.Fatalf("%q: accepted but empty plan", spec)
		}
		bufs := simgpu.NewBufferSet()
		for v := 0; v < 8; v++ {
			in := make([]float32, floats)
			for i := range in {
				in[i] = float32(v*floats + i)
			}
			bufs.SetBuffer(v, BufData, in)
		}
		if _, err := plan.Freeze().ReplayData(bufs); err != nil {
			t.Fatalf("%q: execute: %v", spec, err)
		}
		for v, row := range neighbors {
			for _, u := range row {
				got := bufs.Buffer(u, ExchangeTag(v), floats)
				for i := 0; i < floats; i++ {
					if got[i] != float32(v*floats+i) {
						t.Fatalf("%q: recv %d from %d float %d = %v", spec, u, v, i, got[i])
					}
				}
			}
		}
	})
}
