package main

import (
	"fmt"
	"math/rand"
	"time"

	"blink"
	"blink/internal/collective"
)

// ddpBuckets are the gradient bucket sizes a data-parallel job issues.
var ddpBuckets = []int64{256 * kib, 1 * mib, 4 * mib, 25 * mib, 64 * mib}

// warmTiming is the path every training iteration takes: a timing-mode
// replay of a cached plan. Key build, cache hit, op materialisation, event
// simulation and the result do all the work.
type warmTiming struct {
	seed    int64
	comms   []*blink.Comm
	cluster *blink.ClusterComm
	ops     []timedOp
	seq     []int
	pos     int

	issued  []uint64 // per communicator; the cluster is last
	base    []cacheLedger
	summary simSummary
}

func newWarmTiming(seed int64) *warmTiming { return &warmTiming{seed: seed} }

const warmTimingCycle = 100

func (w *warmTiming) setup() error {
	machine := blink.DGX1V()
	allocs := [][]int{fullDGX, fragA, fragB}
	var counts []int
	for ci, devs := range allocs {
		comm, err := blink.NewComm(machine, devs, blink.WithStreams(2))
		if err != nil {
			return err
		}
		w.comms = append(w.comms, comm)
		perCycle := 3
		if ci == 0 {
			perCycle = 6
		}
		for _, sz := range ddpBuckets {
			comm, sz := comm, sz
			w.ops = append(w.ops, timedOp{
				label: fmt.Sprintf("AllReduce/%v/%d", devs, sz), comm: ci, devs: devs,
				op: collective.AllReduce, bytes: sz, primary: true,
				run: func() (float64, error) { r, err := comm.AllReduce(sz); return r.Seconds, err },
			})
			counts = append(counts, perCycle)
		}
	}
	full := w.comms[0]
	other := func(label string, op collective.Op, root, perCycle int, call func() (blink.Result, error)) {
		w.ops = append(w.ops, timedOp{
			label: label, comm: 0, devs: fullDGX, op: op, root: root, bytes: 4 * mib,
			run: func() (float64, error) { r, err := call(); return r.Seconds, err },
		})
		counts = append(counts, perCycle)
	}
	for root := 0; root < 8; root++ {
		root := root
		other(fmt.Sprintf("Broadcast/root%d", root), collective.Broadcast, root, 1,
			func() (blink.Result, error) { return full.Broadcast(root, 4*mib) })
	}
	other("AllGather", collective.AllGather, 0, 7, func() (blink.Result, error) { return full.AllGather(4 * mib) })
	other("ReduceScatter", collective.ReduceScatter, 0, 7, func() (blink.Result, error) { return full.ReduceScatter(4 * mib) })
	other("AllToAll", collective.AllToAll, 0, 8, func() (blink.Result, error) { return full.AllToAll(4 * mib) })

	cl, err := twoServerCluster()
	if err != nil {
		return err
	}
	if w.cluster, err = blink.NewClusterComm(cl, blink.WithStreams(2)); err != nil {
		return err
	}
	cc := w.cluster
	w.ops = append(w.ops, timedOp{
		label: "ClusterAllReduce", comm: len(w.comms), op: collective.AllReduce, bytes: clusterBytes,
		run: func() (float64, error) { r, err := cc.AllReduce(clusterBytes); return r.Seconds, err },
	})
	counts = append(counts, 10)

	for i := range w.ops {
		if err := w.ops[i].warm(); err != nil {
			return err
		}
		w.summary.gbs = append(w.summary.gbs, float64(w.ops[i].bytes)/w.ops[i].want/1e9)
	}
	for ci, devs := range allocs {
		nccl, err := ncclSeconds(machine, devs, ddpBuckets)
		if err != nil {
			return err
		}
		for si := range ddpBuckets {
			w.summary.speedups = append(w.summary.speedups, nccl[si]/w.ops[ci*len(ddpBuckets)+si].want)
		}
	}
	w.seq = buildSequence(rand.New(rand.NewSource(w.seed)), counts, 8)
	w.issued = make([]uint64, len(w.comms)+1)
	return nil
}

func (w *warmTiming) sequence() []int { return w.seq }
func (w *warmTiming) sim() simSummary { return w.summary }
func (w *warmTiming) close()          {}

func (w *warmTiming) ledgers() []cacheLedger {
	out := make([]cacheLedger, 0, len(w.comms)+1)
	for _, c := range w.comms {
		out = append(out, ledgerOf(c.CacheStats(), c.Metrics()))
	}
	return append(out, ledgerOf(w.cluster.CacheStats(), w.cluster.Metrics()))
}

func (w *warmTiming) begin() {
	w.base = w.ledgers()
	for i := range w.issued {
		w.issued[i] = 0
	}
}

func (w *warmTiming) cycle(r *recorder) {
	start, spent := time.Now(), r.cal.spent
	for k := 0; k < warmTimingCycle; k++ {
		op := &w.ops[w.seq[w.pos]]
		if w.pos++; w.pos == len(w.seq) {
			w.pos = 0
		}
		d, ok := timeOp(r, op)
		if !ok {
			continue
		}
		w.issued[op.comm]++
		if op.primary {
			keep(&r.primary, d)
		}
	}
	keep(&r.steps, r.cal.since(start, spent))
}

func (w *warmTiming) verify(r *recorder) cacheLedger {
	var total cacheLedger
	for i, now := range w.ledgers() {
		d := now.minus(w.base[i])
		checkWarm(r, fmt.Sprintf("warm_timing comm %d", i), d, w.issued[i])
		total = total.plus(d)
	}
	return total
}

func (w *warmTiming) fixture() (*fixture, error) {
	// Subject of the probes: the 4 MB AllReduce on the full machine.
	return buildFixture(fixtureSpec{ops: w.ops, seq: w.seq, subject: 2, seed: w.seed})
}
