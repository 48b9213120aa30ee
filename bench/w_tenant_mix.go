package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"blink"
	"blink/internal/collective"
)

const numTenants = 300

// tenantRole is one tenant's part in the mix: 1 in 10 latency-critical at
// 1 MB, 3 in 10 bulk gradients at 32 MB, 6 in 10 telemetry at 4 MB.
type tenantRole struct {
	class blink.Class
	bytes int64
}

func roleOf(i int) tenantRole {
	switch {
	case i%10 == 0:
		return tenantRole{blink.ClassLatencyCritical, 1 * mib}
	case i%10 < 4:
		return tenantRole{blink.ClassBulkGradient, 32 * mib}
	default:
		return tenantRole{blink.ClassTelemetry, 4 * mib}
	}
}

// benchQoS is the lane configuration of every tenant measurement: three
// lanes with watermarks and queue bounds out of the way (a 300-op burst must
// be admitted whole) and two dispatch workers, one per vCPU.
func benchQoS() blink.QoSConfig {
	cfg := blink.QoSConfig{Workers: 2}
	for c := range cfg.Lanes {
		cfg.Lanes[c] = blink.LaneConfig{QueueCap: 1 << 16, LowWater: -1, HighWater: -1}
	}
	return cfg
}

// tenantRig is one shared communicator with 300 registered tenants and
// every plan warm. A step is one closed-loop burst: the single submitter
// issues one AllReduceAsync per tenant, then waits for the handles.
type tenantRig struct {
	comm    *blink.Comm
	tenants []*blink.Tenant
	want    map[int64]float64 // simulated seconds per payload size
	orders  [][]int           // seeded submission orders, one per step
	step    int
	handles []*blink.Handle
	lc      []int // positions in handles of the latency-critical ops
}

func newTenantRig(seed int64) (*tenantRig, error) {
	comm, err := blink.NewComm(blink.DGX1V(), fullDGX, blink.WithQoS(benchQoS()), blink.WithStreams(2))
	if err != nil {
		return nil, err
	}
	t := &tenantRig{comm: comm, want: map[int64]float64{}, handles: make([]*blink.Handle, numTenants)}
	for i := 0; i < numTenants; i++ {
		role := roleOf(i)
		if _, ok := t.want[role.bytes]; !ok {
			op := timedOp{label: fmt.Sprintf("AllReduce/%d", role.bytes), run: func() (float64, error) {
				r, err := comm.AllReduce(role.bytes)
				return r.Seconds, err
			}}
			if err := op.warm(); err != nil {
				return nil, err
			}
			t.want[role.bytes] = op.want
		}
		tn, err := blink.NewTenant(comm, blink.TenantOptions{Name: fmt.Sprintf("t%03d", i), Class: role.class})
		if err != nil {
			return nil, err
		}
		t.tenants = append(t.tenants, tn)
	}
	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < 16; s++ {
		t.orders = append(t.orders, rng.Perm(numTenants))
	}
	t.lc = make([]int, 0, numTenants/10)
	return t, nil
}

func (t *tenantRig) nextOrder() []int {
	o := t.orders[t.step%len(t.orders)]
	t.step++
	return o
}

// settle checks one resolved handle against the warm-up's simulated clock
// and the admission contract: anything but a plain admit is a failure.
func (t *tenantRig) settle(r *recorder, h *blink.Handle, bytes int64) {
	res, err := h.Wait()
	switch {
	case err != nil:
		r.fail("tenant op of %d bytes: %v", bytes, err)
	case h.Deferred():
		r.fail("tenant op of %d bytes was deferred", bytes)
	case res.Seconds != t.want[bytes]:
		r.fail("tenant op of %d bytes: simulated seconds %v, warm-up saw %v", bytes, res.Seconds, t.want[bytes])
	}
}

// burst submits one op per tenant in the given order through submit, then
// waits for the latency-critical handles and then for the rest. It returns
// burst start → last latency-critical handle resolved, and → all resolved.
// With watch set, each latency-critical op's own submit → resolve time is
// recorded too (one watcher goroutine per such op; traced steps only).
func (t *tenantRig) burst(r *recorder, order []int, watch bool, submit func(tenant int, bytes int64) *blink.Handle) (lcDrain, all time.Duration) {
	t.lc = t.lc[:0]
	var wg sync.WaitGroup
	var waits []time.Duration // by position in the burst
	if watch {
		waits = make([]time.Duration, len(order))
	}
	start := r.cal.tick(time.Now())
	for pos, i := range order {
		role := roleOf(i)
		h := submit(i, role.bytes)
		t.handles[pos] = h
		if role.class != blink.ClassLatencyCritical {
			continue
		}
		t.lc = append(t.lc, pos)
		if watch {
			slot, submitted := &waits[pos], time.Now()
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-h.Done()
				*slot = time.Since(submitted)
			}()
		}
	}
	r.attempted += len(order)
	for _, pos := range t.lc {
		t.settle(r, t.handles[pos], 1*mib)
		t.handles[pos] = nil
	}
	lcDrain = time.Since(start)
	for pos, i := range order {
		if h := t.handles[pos]; h != nil {
			t.settle(r, h, roleOf(i).bytes)
		}
	}
	all = time.Since(start)
	if watch {
		wg.Wait()
		for _, pos := range t.lc {
			keep(&r.lcWait, waits[pos])
		}
	}
	return lcDrain, all
}

// laneStep sends the burst through the tenants' QoS lanes.
func (t *tenantRig) laneStep(r *recorder, watch bool) {
	lcDrain, all := t.burst(r, t.nextOrder(), watch, func(i int, bytes int64) *blink.Handle {
		return t.tenants[i].AllReduceAsync(bytes)
	})
	keep(&r.primary, lcDrain)
	keep(&r.steps, all)
}

// streamStep sends the identical burst untenanted, through the stream
// scheduler.
func (t *tenantRig) streamStep(r *recorder) {
	_, all := t.burst(r, t.nextOrder(), false, func(_ int, bytes int64) *blink.Handle {
		return t.comm.AllReduceAsync(bytes)
	})
	keep(&r.stream, all)
}

// verdicts sums the tenants' admission ledgers.
func (t *tenantRig) verdicts() (admit, deferred, reject, submitted, completed int64) {
	for _, tn := range t.tenants {
		s := tn.Stats()
		admit += s.AdmittedOps - s.DeferredOps
		deferred += s.DeferredOps
		reject += s.RejectedOps
		submitted += s.SubmittedOps
		completed += s.CompletedOps
	}
	return
}

// tenantMix alternates lane steps and stream steps, so that a change which
// speeds one scheduler at the other's cost cannot hide in a total.
type tenantMix struct {
	seed    int64
	rig     *tenantRig
	base    cacheLedger
	baseOps int64
	summary simSummary
}

func newTenantMix(seed int64) *tenantMix { return &tenantMix{seed: seed} }

func (w *tenantMix) setup() error {
	var err error
	if w.rig, err = newTenantRig(w.seed); err != nil {
		return err
	}
	sizes := []int64{1 * mib, 32 * mib, 4 * mib}
	nccl, err := ncclSeconds(blink.DGX1V(), fullDGX, sizes)
	if err != nil {
		return err
	}
	for i, sz := range sizes {
		w.summary.gbs = append(w.summary.gbs, float64(sz)/w.rig.want[sz]/1e9)
		w.summary.speedups = append(w.summary.speedups, nccl[i]/w.rig.want[sz])
	}
	return nil
}

func (w *tenantMix) sequence() []int { return w.rig.orders[0] }
func (w *tenantMix) sim() simSummary { return w.summary }
func (w *tenantMix) close()          {}

func (w *tenantMix) begin() {
	w.base = ledgerOf(w.rig.comm.CacheStats(), w.rig.comm.Metrics())
	_, _, _, w.baseOps, _ = w.rig.verdicts()
}

func (w *tenantMix) cycle(r *recorder) {
	w.rig.laneStep(r, false)
	w.rig.streamStep(r)
}

func (w *tenantMix) verify(r *recorder) cacheLedger {
	d := ledgerOf(w.rig.comm.CacheStats(), w.rig.comm.Metrics()).minus(w.base)
	checkWarm(r, "tenant_mix comm", d, uint64(r.attempted))
	admit, deferred, reject, submitted, completed := w.rig.verdicts()
	if deferred != 0 || reject != 0 || admit != submitted || completed != submitted {
		r.fail("tenant ledger: %d submitted, %d admitted, %d deferred, %d rejected, %d completed",
			submitted, admit, deferred, reject, completed)
	}
	if lane := submitted - w.baseOps; lane*2 != int64(r.attempted) {
		r.fail("tenant ledger: %d lane submissions for %d ops attempted", lane, r.attempted)
	}
	return d
}

func (w *tenantMix) fixture() (*fixture, error) {
	sizes := []int64{1 * mib, 32 * mib, 4 * mib}
	index := map[int64]int{}
	var ops []timedOp
	for i, sz := range sizes {
		index[sz] = i
		ops = append(ops, timedOp{devs: fullDGX, op: collective.AllReduce, bytes: sz, want: w.rig.want[sz]})
	}
	seq := make([]int, numTenants)
	for pos, i := range w.rig.orders[0] {
		seq[pos] = index[roleOf(i).bytes]
	}
	return buildFixture(fixtureSpec{ops: ops, seq: seq, rig: w.rig, seed: w.seed})
}
