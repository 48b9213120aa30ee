package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"blink"
	"blink/internal/collective"
)

const (
	kib = int64(1) << 10
	mib = int64(1) << 20
)

// fullDGX is the whole 8-GPU machine; the fragmented allocations are two of
// the shapes a cluster scheduler leaves behind (paper Figure 3).
var (
	fullDGX = []int{0, 1, 2, 3, 4, 5, 6, 7}
	fragA   = []int{1, 4, 5, 7}
	fragB   = []int{2, 3, 5, 6, 7}
)

// timedOp is one distinct timing-mode call in a workload's op table: what
// the public call is, which plan key it resolves to (for the traced pass),
// and the simulated seconds it returned while warming. Simulated time is
// deterministic, so every later replay must return the same bits.
type timedOp struct {
	label string
	comm  int // which of the workload's communicators issues it
	// machine and devs name the allocation (nil machine: DGX-1V; nil devs:
	// the two-server cluster).
	machine *blink.Machine
	devs    []int
	op      collective.Op
	root    int
	bytes   int64
	primary bool // its host time goes into op_us_p50
	run     func() (float64, error)
	want    float64
}

// warm issues the op twice: the first call may compile, the second must be
// a replay, and the two must agree on the simulated clock.
func (o *timedOp) warm() error {
	first, err := o.run()
	if err != nil {
		return fmt.Errorf("%s: %w", o.label, err)
	}
	if o.want, err = o.run(); err != nil {
		return fmt.Errorf("%s: %w", o.label, err)
	}
	if o.want != first || o.want <= 0 {
		return fmt.Errorf("%s: simulated seconds %v then %v", o.label, first, o.want)
	}
	return nil
}

// buildSequence lays out `cycles` passes over an op table, each pass holding
// counts[i] copies of op i in a seeded shuffled order.
func buildSequence(rng *rand.Rand, counts []int, cycles int) []int {
	var one []int
	for op, n := range counts {
		for k := 0; k < n; k++ {
			one = append(one, op)
		}
	}
	seq := make([]int, 0, len(one)*cycles)
	for c := 0; c < cycles; c++ {
		rng.Shuffle(len(one), func(i, j int) { one[i], one[j] = one[j], one[i] })
		seq = append(seq, one...)
	}
	return seq
}

// seqHash fingerprints an op order, so tests can pin "same seed, same
// inputs" without comparing slices.
func seqHash(seq []int) string {
	h := fnv.New64a()
	for _, v := range seq {
		h.Write([]byte{byte(v), byte(v >> 8)})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// ledgerOf reads a communicator's plan-cache counters: hits, misses and
// evictions from CacheStats, lookups from the metrics registry.
func ledgerOf(cs blink.CacheStats, reg *blink.MetricsRegistry) cacheLedger {
	return cacheLedger{
		hits:      cs.Hits,
		misses:    cs.Misses,
		evictions: cs.Evictions,
		lookups:   reg.Counter("blink_plan_cache_lookups_total").Value(),
	}
}

func (a cacheLedger) minus(b cacheLedger) cacheLedger {
	return cacheLedger{a.hits - b.hits, a.misses - b.misses, a.lookups - b.lookups, a.evictions - b.evictions}
}

func (a cacheLedger) plus(b cacheLedger) cacheLedger {
	return cacheLedger{a.hits + b.hits, a.misses + b.misses, a.lookups + b.lookups, a.evictions + b.evictions}
}

// checkWarm holds a warm communicator's window to its contract: every op it
// issued was a cache hit, nothing missed, and the ledger adds up.
func checkWarm(r *recorder, name string, d cacheLedger, issued uint64) {
	if d.hits != issued || d.misses != 0 || d.lookups != d.hits+d.misses {
		r.fail("%s: cache ledger off: %d ops issued, %d hits, %d misses, %d lookups",
			name, issued, d.hits, d.misses, d.lookups)
	}
}

// ncclSeconds returns the simulated AllReduce time of the NCCL baseline on
// an allocation, per payload size.
func ncclSeconds(machine *blink.Machine, devs []int, sizes []int64) ([]float64, error) {
	comm, err := blink.NewComm(machine, devs, blink.WithBackend(blink.BackendNCCL))
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(sizes))
	for i, sz := range sizes {
		res, err := comm.AllReduce(sz)
		if err != nil {
			return nil, fmt.Errorf("nccl AllReduce %d on %v: %w", sz, devs, err)
		}
		out[i] = res.Seconds
	}
	return out, nil
}

// twoServerCluster is the 5+3 allocation across two DGX-1Vs on 100 Gbit/s
// NICs that the cluster ops run on.
func twoServerCluster() (*blink.Cluster, error) {
	return blink.NewCluster([]blink.ServerSpec{
		{Machine: blink.DGX1V(), Devs: []int{0, 1, 2, 3, 4}},
		{Machine: blink.DGX1V(), Devs: []int{0, 1, 2}},
	}, 100)
}

const clusterBytes = 25 * mib

// timeOp issues one timing-mode op, times it on the host clock and holds
// its simulated result to the bits seen while warming.
func timeOp(r *recorder, op *timedOp) (time.Duration, bool) {
	r.attempted++
	t0 := r.cal.tick(time.Now())
	secs, err := op.run()
	d := time.Since(t0)
	if err != nil {
		r.fail("%s: %v", op.label, err)
		return d, false
	}
	if secs != op.want {
		r.fail("%s: simulated seconds %v, warm-up saw %v", op.label, secs, op.want)
		return d, false
	}
	return d, true
}
