package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"blink"
	"blink/internal/collective"
	"blink/internal/topology"
)

const coldBytes = 64 * mib

// coldAlloc is one of the paper's unique allocations (Figures 15-17) with
// the simulated seconds both backends return on it.
type coldAlloc struct {
	machine *blink.Machine
	devs    []int
	blinkS  float64
	ncclS   float64
}

// coldPlan pays the whole first-use price again and again: per allocation a
// fresh communicator with a fresh on-disk plan store and its first
// AllReduce — induce, fingerprint, pack, minimise, CodeGen, freeze, encode,
// disk put, first replay. Replay does almost nothing here.
type coldPlan struct {
	seed    int64
	outDir  string
	root    string // parent of the per-dispatch plan-store directories
	allocs  []coldAlloc
	seq     []int
	pos     int
	dirs    int
	ledger  cacheLedger
	summary simSummary
}

func newColdPlan(seed int64, outDir string) *coldPlan { return &coldPlan{seed: seed, outDir: outDir} }

func (w *coldPlan) setup() error {
	if err := os.MkdirAll(w.outDir, 0o755); err != nil {
		return err
	}
	var err error
	if w.root, err = os.MkdirTemp(w.outDir, "planstore-"); err != nil {
		return err
	}
	v, p := blink.DGX1V(), blink.DGX1P()
	for _, devs := range topology.Fig15AllocationsDGX1V {
		w.allocs = append(w.allocs, coldAlloc{machine: v, devs: devs})
	}
	for _, devs := range topology.Fig16AllocationsDGX1P {
		w.allocs = append(w.allocs, coldAlloc{machine: p, devs: devs})
	}
	counts := make([]int, len(w.allocs))
	for i := range w.allocs {
		a := &w.allocs[i]
		nccl, err := ncclSeconds(a.machine, a.devs, []int64{coldBytes})
		if err != nil {
			return err
		}
		a.ncclS = nccl[0]
		counts[i] = 1
	}
	w.seq = buildSequence(rand.New(rand.NewSource(w.seed)), counts, 8)
	// One unmeasured pass: it records the simulated seconds every later
	// dispatch must reproduce and lets the heap and the scratch directory
	// reach their steady state.
	for i := range w.allocs {
		a := &w.allocs[i]
		res, _, err := w.dispatch(a)
		if err != nil {
			return err
		}
		a.blinkS = res.Seconds
		w.summary.gbs = append(w.summary.gbs, float64(coldBytes)/a.blinkS/1e9)
		w.summary.speedups = append(w.summary.speedups, a.ncclS/a.blinkS)
	}
	return nil
}

// dispatch is the workload's op: a new communicator over a new plan store,
// and its first collective.
func (w *coldPlan) dispatch(a *coldAlloc) (blink.Result, blink.CacheStats, error) {
	w.dirs++
	dir := filepath.Join(w.root, fmt.Sprintf("p%06d", w.dirs))
	comm, err := blink.NewComm(a.machine, a.devs, blink.WithPlanStore(dir))
	if err != nil {
		return blink.Result{}, blink.CacheStats{}, fmt.Errorf("NewComm %v: %w", a.devs, err)
	}
	res, err := comm.AllReduce(coldBytes)
	if err != nil {
		return res, blink.CacheStats{}, fmt.Errorf("AllReduce on %v: %w", a.devs, err)
	}
	return res, comm.CacheStats(), nil
}

func (w *coldPlan) sequence() []int { return w.seq }
func (w *coldPlan) sim() simSummary { return w.summary }
func (w *coldPlan) begin()          { w.ledger = cacheLedger{} }

// close removes every plan store the workload wrote. They are left in place
// during the window so that deleting them is not on the clock.
func (w *coldPlan) close() {
	if w.root != "" {
		os.RemoveAll(w.root)
	}
}

func (w *coldPlan) cycle(r *recorder) {
	start, spent := time.Now(), r.cal.spent
	for k := 0; k < len(w.allocs); k++ {
		a := &w.allocs[w.seq[w.pos]]
		if w.pos++; w.pos == len(w.seq) {
			w.pos = 0
		}
		r.attempted++
		t0 := r.cal.tick(time.Now())
		res, cs, err := w.dispatch(a)
		d := time.Since(t0)
		switch {
		case err != nil:
			r.fail("%v", err)
			continue
		case res.Seconds != a.blinkS:
			r.fail("cold AllReduce on %v: simulated seconds %v, first pass saw %v", a.devs, res.Seconds, a.blinkS)
			continue
		case cs.Hits != 0 || cs.Misses != 1 || cs.DiskPuts != 1 || cs.StoreErrors != 0:
			r.fail("cold AllReduce on %v: want one miss and one disk put, got %+v", a.devs, cs)
			continue
		}
		w.ledger.misses++
		w.ledger.lookups++
		keep(&r.primary, d)
	}
	keep(&r.steps, r.cal.since(start, spent))
}

func (w *coldPlan) verify(*recorder) cacheLedger { return w.ledger }

func (w *coldPlan) fixture() (*fixture, error) {
	// The warm layers are traced on the same 60 plans the workload builds
	// cold; the 8-GPU DGX-1V plan, the costliest, is the probes' subject.
	ops := make([]timedOp, len(w.allocs))
	subject := -1
	for i, a := range w.allocs {
		ops[i] = timedOp{machine: a.machine, devs: a.devs, op: collective.AllReduce, bytes: coldBytes, want: a.blinkS}
		if subject < 0 && len(a.devs) == 8 { // the DGX-1V allocations come first
			subject = i
		}
	}
	return buildFixture(fixtureSpec{ops: ops, seq: w.seq, subject: subject, seed: w.seed})
}
