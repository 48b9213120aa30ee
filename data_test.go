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

// diffRows reports the first row or element where got and want differ bit
// for bit, or nil.
func diffRows(got, want [][]float32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for k := range want {
		if len(got[k]) != len(want[k]) {
			return fmt.Errorf("row %d has %d floats, want %d", k, len(got[k]), len(want[k]))
		}
		for i := range want[k] {
			if math.Float32bits(got[k][i]) != math.Float32bits(want[k][i]) {
				return fmt.Errorf("row %d element %d = %v, want %v", k, i, got[k][i], want[k][i])
			}
		}
	}
	return nil
}

// dgx1vComm builds a communicator over the given DGX-1V GPUs or fails t.
func dgx1vComm(t testing.TB, gpus []int, opts ...Option) *Comm {
	t.Helper()
	comm, err := NewComm(DGX1V(), gpus, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return comm
}

// clusterComm builds a communicator over c or fails t.
func clusterComm(t testing.TB, c *Cluster, opts ...Option) *Comm {
	t.Helper()
	cc, err := NewClusterComm(c, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return cc
}

// errOf keeps the error of a (result, error) pair.
func errOf(_ any, err error) error { return err }

// expectRejected fails t for every named call that returned no error.
func expectRejected(t *testing.T, calls map[string]error) {
	t.Helper()
	for name, err := range calls {
		if err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestDataModeValidation covers the error surface of the data ops: wrong
// rank counts, ragged, empty and non-multiple buffers, and the ops the NCCL
// baseline has no data-carrying schedule for.
func TestDataModeValidation(t *testing.T) {
	comm := dgx1vComm(t, []int{5, 6, 7}, WithDataMode())
	nccl := dgx1vComm(t, []int{5, 6, 7}, WithDataMode(), WithBackend(BackendNCCL))
	expectRejected(t, map[string]error{
		"wrong rank count":              errOf(comm.GatherData(0, [][]float32{{1}})),
		"ragged buffers":                errOf(comm.ReduceData(0, [][]float32{{1}, {1, 2}, {1}})),
		"empty buffer":                  errOf(comm.BroadcastData(0, nil)),
		"non-multiple scatter":          errOf(comm.ScatterData(0, make([]float32, 4))),
		"non-multiple reducescatter":    errOf(comm.ReduceScatterData([][]float32{{1}, {1}, {1}})),
		"NCCL has no data-mode gather":  errOf(nccl.GatherData(0, [][]float32{{1, 2}, {3, 4}, {5, 6}})),
		"NCCL has no data-mode scatter": errOf(nccl.ScatterData(0, make([]float32, 6))),
	})
}

// TestAllReduceDataValidation: AllReduceData rejects a wrong rank count and
// ragged buffers.
func TestAllReduceDataValidation(t *testing.T) {
	comm := dgx1vComm(t, []int{5, 6, 7}, WithDataMode())
	expectRejected(t, map[string]error{
		"wrong rank count": errOf(comm.AllReduceData([][]float32{{1}})),
		"ragged buffers":   errOf(comm.AllReduceData([][]float32{{1}, {1, 2}, {1}})),
	})
}

// TestDataModeRequired: a communicator built without WithDataMode refuses
// every data call.
func TestDataModeRequired(t *testing.T) {
	plain := dgx1vComm(t, []int{5, 6, 7})
	expectRejected(t, map[string]error{
		"GatherData":    errOf(plain.GatherData(0, make([][]float32, 3))),
		"AllReduceData": errOf(plain.AllReduceData(make([][]float32, 3))),
	})
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
	comm := dgx1vComm(t, []int{0, 1, 2, 3, 4, 5, 6, 7}, WithDataMode())
	cc := clusterComm(t, twoServerCluster(t, 3, 5), WithDataMode())
	for _, view := range []struct {
		prefix string
		comm   *Comm
	}{{"", comm}, {"Cluster", cc}} {
		for _, op := range confOps() {
			if view.prefix != "" && !op.cluster {
				continue
			}
			t.Run(view.prefix+strings.TrimSuffix(op.name, "Chain"), func(t *testing.T) {
				n := shardFloats * view.comm.Size()
				if op.shard {
					n = shardFloats
				}
				in, _ := randInputs(rand.New(rand.NewSource(26)), view.comm.Size(), n)
				run := func() ([][]float32, error) { return op.data(view.comm, 5, in) }
				lent := cloneRows(in)
				out, err := run()
				if err != nil {
					t.Fatal(err)
				}
				if len(out) == 0 {
					t.Fatal("no result rows")
				}
				if err := diffRows(in, lent); err != nil {
					t.Fatalf("inputs after the call: %v", err)
				}
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
				if err := diffRows(in, lent); err != nil {
					t.Fatalf("inputs after writing the results: %v", err)
				}
				again, err := run()
				if err != nil {
					t.Fatal(err)
				}
				if err := diffRows(again, want); err != nil {
					t.Fatalf("second call's results: %v", err)
				}
			})
		}
	}
}

// resultDigests pins, per machine and backend, the SHA-256 of every float
// the reduce-class and broadcast *Data calls return (TestDataResultDigest).
var resultDigests = map[string]string{
	"dgx1p/Blink":       "d3fdc8291bb06fd06d1a3610a56aa7d7547e51c062fae1adad689d3ff338c490",
	"dgx1p/NCCL":        "928b9a09968b921a13a2e5153260ccf13abe2cfdd8bf412db06b4e129b709c9c",
	"dgx1v/Blink":       "5e2f54af6d110bed4d619dca66903dcbae91ad858ba30c70e423295c20cceab1",
	"dgx1v/NCCL":        "6828c9dc374841c9235d153b46574bd5bebfa31a627720d206951f049454eb9d",
	"dgx1v-frag/Blink":  "2cdf23deab0c39dc8b18cb996e00228c1c0c59958c399956c3c4e7fe749e3a3b",
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
		{"cluster-3+5", func(o ...Option) (*Comm, error) { return NewClusterComm(twoServerCluster(t, 3, 5), o...) }},
		{"cluster-1+4", func(o ...Option) (*Comm, error) { return NewClusterComm(twoServerCluster(t, 1, 4), o...) }},
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
