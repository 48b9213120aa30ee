package blink

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
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
// data-mode entry point of a Comm on DGX-1V and on a 3+5 cluster: (a) a call
// leaves every input it was lent bit-identical, and (b) every buffer it
// returns is the caller's own — writing a distinct marker into each returned row
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

// resultDigests pins, per machine and backend, the SHA-256 of every float
// the reduce-class and broadcast *Data calls return (TestDataResultDigest).
var resultDigests = map[string]string{
	"dgx1p/Blink":       "05714eec326a56559ef933e858dabd2b7214f1ab1c3d2dd6b6837367ad59e72c",
	"dgx1p/NCCL":        "928b9a09968b921a13a2e5153260ccf13abe2cfdd8bf412db06b4e129b709c9c",
	"dgx1v/Blink":       "daf864ad8e341ef16f8f8ab131422324f605f4c8c96d6a5e3bad60977091ec77",
	"dgx1v/NCCL":        "6828c9dc374841c9235d153b46574bd5bebfa31a627720d206951f049454eb9d",
	"dgx1v-frag/Blink":  "9b993afe052511bc127344c1f5c7bb057359d9e19a13a94f83b03d86323610de",
	"dgx1v-frag/NCCL":   "dee428d3ac42beeb6d796b91d15e1f2b59e9e47f1d51ccdf084b11e1b9a856b9",
	"dgx2/Blink":        "b915b1f439d0d51850de486945265a51bbca6937840ce2040c9fb8dda85de28b",
	"dgx2/NCCL":         "c5a33e2eb681dd1bd9b0dd2da2cbe93ee4ec2728ff96437d1cd8af5c132db82d",
	"cluster-3+5/Blink": "dfd059a16c36fd2b85804039c735e5efe8903799cb49811d9aef44556acf687d",
	"cluster-3+5/NCCL":  "c1123c00af33943029baaf6be347a34775083ad158bd4ff5703942817ad3d245",
	"cluster-1+4/Blink": "fb9c42e6ca7241cdcd07967ea0440013251c966be4f9fdd342de886d57b84b46",
	"cluster-1+4/NCCL":  "2f6fec3b4e0c30eadb1770545339570f5b76b57ebdc90d1a33d69d3bba49ecf6",
}

// TestDataResultDigest pins the results of AllReduceData, ReduceData,
// ReduceScatterData, AllGatherData and BroadcastData bit for bit, under Blink
// and NCCL, on DGX-1P, DGX-1V, a fragmented DGX-1V allocation, the DGX-2 and
// two DGX-1V clusters — 3+5, and 1+4, whose one-GPU server has no tree to
// reduce over. The inputs are not integers, so a change in the order any
// schedule sums in moves a digest. A cluster runs only the ops it has a
// schedule for (TestClusterErrorRows).
func TestDataResultDigest(t *testing.T) {
	machines := []struct {
		name string
		comm func(...Option) (*Comm, error)
	}{
		{"dgx1p", func(o ...Option) (*Comm, error) { return NewComm(DGX1P(), []int{0, 1, 2, 3, 4, 5, 6, 7}, o...) }},
		{"dgx1v", func(o ...Option) (*Comm, error) { return NewComm(DGX1V(), []int{0, 1, 2, 3, 4, 5, 6, 7}, o...) }},
		{"dgx1v-frag", func(o ...Option) (*Comm, error) { return NewComm(DGX1V(), []int{1, 4, 5, 6, 7}, o...) }},
		{"dgx2", func(o ...Option) (*Comm, error) { return NewComm(DGX2(), nil, o...) }},
		{"cluster-3+5", func(o ...Option) (*Comm, error) { return NewClusterComm(twoServerCluster(t, 3, 5, 100), o...) }},
		{"cluster-1+4", func(o ...Option) (*Comm, error) { return NewClusterComm(twoServerCluster(t, 1, 4, 100), o...) }},
	}
	for _, m := range machines {
		for _, backend := range []Backend{BackendBlink, BackendNCCL} {
			name := fmt.Sprintf("%s/%v", m.name, backend)
			t.Run(name, func(t *testing.T) {
				comm, err := m.comm(WithDataMode(), WithBackend(backend))
				if err != nil {
					t.Fatal(err)
				}
				ranks := comm.Size()
				inputs := make([][]float32, ranks)
				for v := range inputs {
					inputs[v] = make([]float32, 48*ranks)
					for i := range inputs[v] {
						inputs[v][i] = float32(v+1)*1.1 + float32(i%97)*0.37
					}
				}
				shards := make([][]float32, ranks)
				for v := range shards {
					shards[v] = inputs[v][:48]
				}
				row := func(out []float32, err error) ([][]float32, error) { return [][]float32{out}, err }
				h := sha256.New()
				for _, op := range []struct {
					name    string
					cluster bool
					run     func() ([][]float32, error)
				}{
					{"AllReduce", true, func() ([][]float32, error) { return comm.AllReduceData(inputs) }},
					{"Reduce", false, func() ([][]float32, error) { return row(comm.ReduceData(ranks-1, inputs)) }},
					{"ReduceScatter", true, func() ([][]float32, error) { return comm.ReduceScatterData(inputs) }},
					{"AllGather", false, func() ([][]float32, error) { return comm.AllGatherData(shards) }},
					{"Broadcast", true, func() ([][]float32, error) { return comm.BroadcastData(1, inputs[2]) }},
				} {
					if strings.HasPrefix(m.name, "cluster") && !op.cluster {
						continue
					}
					out, err := op.run()
					if err != nil {
						t.Fatalf("%s: %v", op.name, err)
					}
					fmt.Fprintf(h, "%s %d\n", op.name, len(out))
					for _, r := range out {
						for _, x := range r {
							binary.Write(h, binary.LittleEndian, math.Float32bits(x))
						}
					}
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != resultDigests[name] {
					t.Errorf("result digest %s, want %s", got, resultDigests[name])
				}
			})
		}
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
