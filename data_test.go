package blink

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randInputs builds one integer-valued buffer of n floats per rank
// (integer values keep float32 summation exact in any order) plus the
// sequential elementwise-sum reference.
func randInputs(rng *rand.Rand, ranks, n int) (inputs [][]float32, sum []float32) {
	inputs = make([][]float32, ranks)
	sum = make([]float32, n)
	for r := range inputs {
		inputs[r] = make([]float32, n)
		for i := range inputs[r] {
			inputs[r][i] = float32(rng.Intn(64))
			sum[i] += inputs[r][i]
		}
	}
	return inputs, sum
}

func assertEq(t *testing.T, ctx string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d = %v, want %v", ctx, i, got[i], want[i])
		}
	}
}

// The per-op exactness coverage that used to live here is now the
// table-driven cross-backend conformance matrix in conformance_test.go
// (all seven ops x three machines x pristine/degraded topologies).

// TestDataModeOpsWarmReplay re-runs data collectives of one shape and
// checks the warm (cached-plan) replays stay exact with fresh payloads.
func TestDataModeOpsWarmReplay(t *testing.T) {
	comm, err := NewComm(DGX1V(), []int{0, 2, 3, 5, 6, 7}, WithDataMode())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	ranks := comm.Size()
	const shard = 64
	for iter := 0; iter < 3; iter++ {
		shards, _ := randInputs(rng, ranks, shard)
		var concat []float32
		for _, s := range shards {
			concat = append(concat, s...)
		}
		got, err := comm.GatherData(2, shards)
		if err != nil {
			t.Fatal(err)
		}
		assertEq(t, fmt.Sprintf("warm gather iter %d", iter), got, concat)

		inputs, sum := randInputs(rng, ranks, shard*ranks)
		res, err := comm.ReduceData(1, inputs)
		if err != nil {
			t.Fatal(err)
		}
		assertEq(t, fmt.Sprintf("warm reduce iter %d", iter), res, sum)
	}
	if st := comm.CacheStats(); st.Hits == 0 {
		t.Fatalf("warm data replays never hit the plan cache: %+v", st)
	}
}

// TestDataModeValidation covers the error surface of the new data ops.
func TestDataModeValidation(t *testing.T) {
	comm, err := NewComm(DGX1V(), []int{5, 6, 7}, WithDataMode())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := comm.GatherData(0, [][]float32{{1}}); err == nil {
		t.Fatal("wrong rank count accepted")
	}
	if _, err := comm.ReduceData(0, [][]float32{{1}, {1, 2}, {1}}); err == nil {
		t.Fatal("ragged buffers accepted")
	}
	if _, err := comm.ScatterData(0, make([]float32, 4)); err == nil {
		t.Fatal("non-multiple scatter length accepted")
	}
	if _, err := comm.ReduceScatterData([][]float32{{1}, {1}, {1}}); err == nil {
		t.Fatal("non-multiple reducescatter length accepted")
	}
	plain, err := NewComm(DGX1V(), []int{5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.GatherData(0, make([][]float32, 3)); err == nil {
		t.Fatal("data call without WithDataMode accepted")
	}
	nccl, err := NewComm(DGX1V(), []int{5, 6, 7}, WithDataMode(), WithBackend(BackendNCCL))
	if err != nil {
		t.Fatal(err)
	}
	shards := [][]float32{{1, 2}, {3, 4}, {5, 6}}
	if _, err := nccl.GatherData(0, shards); err == nil {
		t.Fatal("NCCL data-mode gather accepted (no data-carrying schedule)")
	}
	if _, err := nccl.ScatterData(0, make([]float32, 6)); err == nil {
		t.Fatal("NCCL data-mode scatter accepted")
	}
	// The AllReduce-family data ops do support the ring baseline.
	inputs, sum := randInputs(rand.New(rand.NewSource(3)), 3, 12)
	got, err := nccl.ReduceData(0, inputs)
	if err != nil {
		t.Fatal(err)
	}
	assertEq(t, "nccl reduce", got, sum)
}

// TestDataBufferOwnership holds the *Data buffer contract over every
// data-mode entry point of Comm and ClusterComm on DGX-1V: (a) a call leaves
// every input it was lent bit-identical, and (b) every buffer it returns is
// the caller's own — writing a distinct marker into each returned row
// changes neither the inputs, nor another row, nor what a second call
// returns. A schedule that writes its staged inputs must therefore be fed
// copies of them, and a result that is a caller's input or another call's
// arena fails here.
func TestDataBufferOwnership(t *testing.T) {
	comm, err := NewComm(DGX1V(), []int{0, 1, 2, 3, 4, 5, 6, 7}, WithDataMode())
	if err != nil {
		t.Fatal(err)
	}
	cc, err := NewClusterComm(twoServerCluster(t, 3, 5, 100), WithDataMode())
	if err != nil {
		t.Fatal(err)
	}
	const ranks, n = 8, 8 * 24 // both communicators have eight ranks
	rng := rand.New(rand.NewSource(26))
	perRank, _ := randInputs(rng, ranks, n)
	single := perRank[3]
	neighbors := make([][]int, ranks)
	for v := range neighbors {
		neighbors[v] = []int{(v + 1) % ranks, (v + ranks - 1) % ranks}
	}
	row := func(out []float32, err error) ([][]float32, error) { return [][]float32{out}, err }
	cases := []struct {
		name   string
		inputs [][]float32
		run    func() ([][]float32, error)
	}{
		{"Broadcast", [][]float32{single}, func() ([][]float32, error) { return comm.BroadcastData(2, single) }},
		{"AllReduce", perRank, func() ([][]float32, error) { return comm.AllReduceData(perRank) }},
		{"Gather", perRank, func() ([][]float32, error) { return row(comm.GatherData(5, perRank)) }},
		{"Reduce", perRank, func() ([][]float32, error) { return row(comm.ReduceData(6, perRank)) }},
		{"Scatter", [][]float32{single}, func() ([][]float32, error) { return comm.ScatterData(1, single) }},
		{"AllGather", perRank, func() ([][]float32, error) { return comm.AllGatherData(perRank) }},
		{"ReduceScatter", perRank, func() ([][]float32, error) { return comm.ReduceScatterData(perRank) }},
		{"AllToAll", perRank, func() ([][]float32, error) { return comm.AllToAllData(perRank) }},
		{"SendRecv", [][]float32{single}, func() ([][]float32, error) { return comm.SendRecvData([]int{4, 0, 7}, single) }},
		{"NeighborExchange", perRank, func() ([][]float32, error) {
			got, err := comm.NeighborExchangeData(neighbors, perRank)
			var rows [][]float32
			for u := range got {
				for v := 0; v < ranks; v++ {
					if r, ok := got[u][v]; ok {
						rows = append(rows, r)
					}
				}
			}
			return rows, err
		}},
		{"ClusterAllReduce", perRank, func() ([][]float32, error) { return cc.AllReduceData(perRank) }},
		{"ClusterBroadcast", [][]float32{single}, func() ([][]float32, error) { return cc.BroadcastData(4, single) }},
		{"ClusterAllToAll", perRank, func() ([][]float32, error) { return cc.AllToAllData(perRank) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lent := cloneRows(tc.inputs)
			out, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if len(out) == 0 {
				t.Fatal("no result rows")
			}
			sameBits(t, "inputs after the call", tc.inputs, lent)
			want := cloneRows(out)
			for k, r := range out {
				for i := range r {
					r[i] = float32(-1 - k)
				}
			}
			for k, r := range out {
				for i, x := range r {
					if x != float32(-1-k) {
						t.Fatalf("row %d element %d changed by a write to another row", k, i)
					}
				}
			}
			sameBits(t, "inputs after writing the results", tc.inputs, lent)
			again, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "second call's results", again, want)
		})
	}
}

func cloneRows(rows [][]float32) [][]float32 {
	out := make([][]float32, len(rows))
	for i, r := range rows {
		out[i] = append([]float32(nil), r...)
	}
	return out
}

// sameBits fails unless got and want hold bit-identical rows.
func sameBits(t *testing.T, ctx string, got, want [][]float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", ctx, len(got), len(want))
	}
	for k := range want {
		if len(got[k]) != len(want[k]) {
			t.Fatalf("%s: row %d has %d floats, want %d", ctx, k, len(got[k]), len(want[k]))
		}
		for i := range want[k] {
			if math.Float32bits(got[k][i]) != math.Float32bits(want[k][i]) {
				t.Fatalf("%s: row %d element %d = %v, want %v", ctx, k, i, got[k][i], want[k][i])
			}
		}
	}
}
