package main

import (
	"fmt"
	"math/rand"
	"time"

	"blink"
	"blink/internal/collective"
	"blink/internal/core"
	"blink/internal/simgpu"
)

// dataFloats is 1 MB of float32 per rank.
const dataFloats = 262144

// dataOp is one distinct data-mode call: the public call, the reference it
// must match element for element, and a cheap strided checksum applied to
// every measured op.
type dataOp struct {
	label   string
	primary bool  // its host time goes into op_us_p50
	payload int64 // input bytes x ranks
	run     func() ([][]float32, error)
	want    [][]float32 // sequential reference
	sum     float64     // strided checksum of want
	simSecs float64

	// What the call is below the public API, for the traced pass: the
	// schedule's op and payload, and how its input arena is staged.
	op    collective.Op
	bytes int64
	stage func() *simgpu.BufferSet
}

// checksum adds every 61st element of every rank's output: cheap enough to
// run on each measured op, wide enough to catch a chunk landing in the
// wrong place. Inputs are small integers, so the sum is exact.
func checksum(out [][]float32) float64 {
	s := 0.0
	for _, row := range out {
		for i := 0; i < len(row); i += 61 {
			s += float64(row[i])
		}
	}
	return s
}

func equalRows(got, want [][]float32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d ranks, want %d", len(got), len(want))
	}
	for v := range want {
		if len(got[v]) != len(want[v]) {
			return fmt.Errorf("rank %d: %d floats, want %d", v, len(got[v]), len(want[v]))
		}
		for i := range want[v] {
			if got[v][i] != want[v][i] {
				return fmt.Errorf("rank %d element %d: %v, want %v", v, i, got[v][i], want[v][i])
			}
		}
	}
	return nil
}

// seededInputs returns one buffer of small integers per rank. Integer
// values keep every float32 sum exact whatever order a schedule adds in.
func seededInputs(rng *rand.Rand, ranks, n int) [][]float32 {
	in := make([][]float32, ranks)
	for v := range in {
		in[v] = make([]float32, n)
		for i := range in[v] {
			in[v][i] = float32(rng.Intn(17) - 8)
		}
	}
	return in
}

// dataOps builds the four data-mode calls of the warm_data mix on a
// data-mode communicator over 8 ranks, with their sequential references.
func dataOps(comm *blink.Comm, in [][]float32) []dataOp {
	ranks, n := len(in), len(in[0])
	shard := n / ranks
	sum := make([]float32, n)
	for _, row := range in {
		for i, x := range row {
			sum[i] += x
		}
	}
	same := func(row []float32) [][]float32 {
		out := make([][]float32, ranks)
		for v := range out {
			out[v] = row
		}
		return out
	}
	shards := make([][]float32, ranks) // AllGather input: n/ranks floats each
	var gathered []float32
	scattered := make([][]float32, ranks)
	for v := range shards {
		shards[v] = in[v][:shard]
		gathered = append(gathered, shards[v]...)
		scattered[v] = sum[v*shard : (v+1)*shard]
	}
	// The arenas the public wrappers build, rebuilt here so the traced pass
	// can enter the engine below them.
	stageAll := func() *simgpu.BufferSet {
		bs := simgpu.NewBufferSet()
		for v, row := range in {
			bs.SetBuffer(v, core.BufData, append([]float32(nil), row...))
		}
		return bs
	}
	stageRoot := func() *simgpu.BufferSet {
		bs := simgpu.NewBufferSet()
		bs.SetBuffer(0, core.BufData, append([]float32(nil), in[0]...))
		return bs
	}
	stagePadded := func() *simgpu.BufferSet {
		bs := simgpu.NewBufferSet()
		for v := range shards {
			buf := make([]float32, n)
			copy(buf[v*shard:], shards[v])
			bs.SetBuffer(v, core.BufData, buf)
		}
		return bs
	}
	bytes := int64(n) * 4
	payload := bytes * int64(ranks)
	return []dataOp{
		{label: "AllReduceData", primary: true, payload: payload, want: same(sum),
			run: func() ([][]float32, error) { return comm.AllReduceData(in) },
			op:  collective.AllReduce, bytes: bytes, stage: stageAll},
		{label: "BroadcastData", payload: payload, want: same(in[0]),
			run: func() ([][]float32, error) { return comm.BroadcastData(0, in[0]) },
			op:  collective.Broadcast, bytes: bytes, stage: stageRoot},
		{label: "AllGatherData", payload: payload, want: same(gathered),
			run: func() ([][]float32, error) { return comm.AllGatherData(shards) },
			op:  collective.AllGather, bytes: bytes, stage: stagePadded},
		{label: "ReduceScatterData", payload: payload, want: scattered,
			run: func() ([][]float32, error) { return comm.ReduceScatterData(in) },
			op:  collective.AllReduce, bytes: bytes, stage: stageAll},
	}
}

// warmAndCheck runs each data op twice — compile, then replay — and checks
// the replay element for element against the sequential reference. Data-mode
// calls return buffers, not a Result, so an op's simulated seconds are read
// from the communicator's per-op makespan histogram right after the op
// kind's first observation, when the histogram's sum is that one value
// exactly; an op that shares a schedule with an earlier one (ReduceScatter
// rides AllReduce's) shares its seconds.
func warmAndCheck(comm *blink.Comm, ops []dataOp) error {
	type schedule struct {
		op    collective.Op
		bytes int64
	}
	seen := map[schedule]float64{}
	for i := range ops {
		op := &ops[i]
		if _, err := op.run(); err != nil {
			return fmt.Errorf("%s: %w", op.label, err)
		}
		key := schedule{op.op, op.bytes}
		if _, ok := seen[key]; !ok {
			h := comm.MetricsSnapshot().Histograms[`blink_op_sim_seconds{op="`+op.op.String()+`"}`]
			if h.Count != 1 || h.Sum <= 0 {
				return fmt.Errorf("%s: expected one simulated-makespan observation, found %d", op.label, h.Count)
			}
			seen[key] = h.Sum
		}
		op.simSecs = seen[key]
		out, err := op.run()
		if err != nil {
			return fmt.Errorf("%s: %w", op.label, err)
		}
		if err := equalRows(out, op.want); err != nil {
			return fmt.Errorf("%s: %w", op.label, err)
		}
		op.sum = checksum(op.want)
	}
	return nil
}

// warmData replays cached plans in data mode: the same FrozenPlan/simgpu
// layer as warm_timing, used the other way — Exec closures, buffer arenas
// and the copy-in/copy-out wrappers dominate.
type warmData struct {
	seed    int64
	comm    *blink.Comm
	ops     []dataOp
	seq     []int
	pos     int
	issued  uint64
	base    cacheLedger
	summary simSummary
}

func newWarmData(seed int64) *warmData { return &warmData{seed: seed} }

const warmDataCycle = 10

func (w *warmData) setup() error {
	rng := rand.New(rand.NewSource(w.seed))
	var err error
	if w.comm, err = blink.NewComm(blink.DGX1V(), fullDGX, blink.WithDataMode(), blink.WithStreams(2)); err != nil {
		return err
	}
	w.ops = dataOps(w.comm, seededInputs(rng, len(fullDGX), dataFloats))
	if err := warmAndCheck(w.comm, w.ops); err != nil {
		return err
	}
	for _, op := range w.ops {
		w.summary.gbs = append(w.summary.gbs, float64(op.bytes)/op.simSecs/1e9)
	}
	nccl, err := ncclSeconds(blink.DGX1V(), fullDGX, []int64{w.ops[0].bytes})
	if err != nil {
		return err
	}
	w.summary.speedups = []float64{nccl[0] / w.ops[0].simSecs}
	w.seq = buildSequence(rng, []int{6, 2, 1, 1}, 16)
	return nil
}

func (w *warmData) sequence() []int { return w.seq }
func (w *warmData) sim() simSummary { return w.summary }
func (w *warmData) close()          {}

func (w *warmData) begin() {
	w.base = ledgerOf(w.comm.CacheStats(), w.comm.Metrics())
	w.issued = 0
}

func (w *warmData) cycle(r *recorder) {
	start, spent := time.Now(), r.cal.spent
	for k := 0; k < warmDataCycle; k++ {
		op := &w.ops[w.seq[w.pos]]
		if w.pos++; w.pos == len(w.seq) {
			w.pos = 0
		}
		r.attempted++
		t0 := r.cal.tick(time.Now())
		out, err := op.run()
		d := time.Since(t0)
		if err != nil {
			r.fail("%s: %v", op.label, err)
			continue
		}
		w.issued++
		r.payload += op.payload
		if got := checksum(out); got != op.sum {
			r.fail("%s: checksum %v, want %v", op.label, got, op.sum)
			continue
		}
		if op.primary {
			keep(&r.primary, d)
		}
	}
	keep(&r.steps, r.cal.since(start, spent))
}

func (w *warmData) verify(r *recorder) cacheLedger {
	d := ledgerOf(w.comm.CacheStats(), w.comm.Metrics()).minus(w.base)
	checkWarm(r, "warm_data comm", d, w.issued)
	// The elementwise check ran before the window (setup); run it again
	// after, off the clock.
	for i := range w.ops {
		out, err := w.ops[i].run()
		if err == nil {
			err = equalRows(out, w.ops[i].want)
		}
		r.attempted++
		if err != nil {
			r.fail("%s after the window: %v", w.ops[i].label, err)
		}
	}
	return d
}

func (w *warmData) fixture() (*fixture, error) {
	// The timing layers are traced on the timing-mode twins of the four
	// schedules; the data layers on the workload's own calls.
	var ops []timedOp
	for _, op := range w.ops {
		ops = append(ops, timedOp{devs: fullDGX, op: op.op, bytes: op.bytes})
	}
	return buildFixture(fixtureSpec{ops: ops, seq: w.seq, data: w.ops, dataSeq: w.seq, seed: w.seed})
}
