package cluster

import (
	"fmt"
	"math/rand"

	"blink/internal/graph"
	"blink/internal/topology"
)

// Fault scheduling: the degradation events a long-running training job can
// hit mid-flight. The scheduler fragments allocations (scheduler.go); the
// fabric underneath then keeps changing — NVLink links fail or degrade and
// recover, GPUs get evicted, whole servers drop out of a multi-server job.
// A FaultSchedule scripts those events against training iterations so the
// dnn trainer (SimulateTrainingRunWithFaults) can measure the throughput
// trajectory across each replan.

// FaultKind enumerates degradation events.
type FaultKind int

const (
	// LinkDown removes the NVLink connection between devices A and B.
	LinkDown FaultKind = iota
	// LinkDegraded reduces the A<->B connection to Units capacity units
	// per direction.
	LinkDegraded
	// LinkRestored heals an earlier LinkDown/LinkDegraded on A<->B back to
	// the fabric's original capacity (the recovery half of a link flap).
	LinkRestored
	// GPUEvicted removes device Dev from the job's allocation.
	GPUEvicted
	// ServerLost removes server Server from a multi-server job.
	ServerLost
)

// String names the fault kind.
func (k FaultKind) String() string {
	if names := [...]string{"link-down", "link-degraded", "link-restored", "gpu-evicted", "server-lost"}; k >= 0 && int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Fault is one scheduled degradation event; it strikes immediately before
// training iteration Iter.
type Fault struct {
	Iter int
	Kind FaultKind
	// A, B are the link endpoints (physical device IDs) for the link kinds.
	A, B int
	// Units is the surviving per-direction capacity for LinkDegraded.
	Units float64
	// Dev is the evicted device for GPUEvicted.
	Dev int
	// Server is the lost server (index in the current server order) for
	// ServerLost.
	Server int
}

// String renders the event compactly, e.g. "iter 3: link-down 0-3".
func (f Fault) String() string {
	switch f.Kind {
	case LinkDown:
		return fmt.Sprintf("iter %d: link-down %d-%d", f.Iter, f.A, f.B)
	case LinkDegraded:
		return fmt.Sprintf("iter %d: link-degraded %d-%d to %g", f.Iter, f.A, f.B, f.Units)
	case LinkRestored:
		return fmt.Sprintf("iter %d: link-restored %d-%d", f.Iter, f.A, f.B)
	case GPUEvicted:
		return fmt.Sprintf("iter %d: gpu-evicted %d", f.Iter, f.Dev)
	case ServerLost:
		return fmt.Sprintf("iter %d: server-lost %d", f.Iter, f.Server)
	default:
		return fmt.Sprintf("iter %d: %v", f.Iter, f.Kind)
	}
}

// FaultSchedule is an ordered script of faults injected into one training
// run.
type FaultSchedule struct {
	Name   string
	Faults []Fault
}

// At returns the faults striking immediately before the given iteration.
func (s FaultSchedule) At(iter int) []Fault {
	var out []Fault
	for _, f := range s.Faults {
		if f.Iter == iter {
			out = append(out, f)
		}
	}
	return out
}

// FirstIter returns the iteration of the earliest fault (-1 if none).
func (s FaultSchedule) FirstIter() int {
	first := -1
	for _, f := range s.Faults {
		if first < 0 || f.Iter < first {
			first = f.Iter
		}
	}
	return first
}

// LastIter returns the iteration of the latest fault (-1 if none).
func (s FaultSchedule) LastIter() int {
	last := -1
	for _, f := range s.Faults {
		last = max(last, f.Iter)
	}
	return last
}

// LinkLoss scripts a permanent link failure between devices a and b before
// iteration iter.
func LinkLoss(a, b, iter int) FaultSchedule {
	return FaultSchedule{
		Name:   fmt.Sprintf("link-loss-%d-%d@%d", a, b, iter),
		Faults: []Fault{{Iter: iter, Kind: LinkDown, A: a, B: b}},
	}
}

// LinkFlap scripts a link going down before downIter and healing before
// upIter.
func LinkFlap(a, b, downIter, upIter int) FaultSchedule {
	return FaultSchedule{
		Name: fmt.Sprintf("link-flap-%d-%d@%d-%d", a, b, downIter, upIter),
		Faults: []Fault{
			{Iter: downIter, Kind: LinkDown, A: a, B: b},
			{Iter: upIter, Kind: LinkRestored, A: a, B: b},
		},
	}
}

// LinkDegrade scripts the a<->b connection dropping to units capacity
// before iteration iter (e.g. one lane of a doubled NVLink pair failing).
func LinkDegrade(a, b int, units float64, iter int) FaultSchedule {
	return FaultSchedule{
		Name:   fmt.Sprintf("link-degrade-%d-%d-%g@%d", a, b, units, iter),
		Faults: []Fault{{Iter: iter, Kind: LinkDegraded, A: a, B: b, Units: units}},
	}
}

// Eviction scripts device dev leaving the allocation before iteration iter.
func Eviction(dev, iter int) FaultSchedule {
	return FaultSchedule{
		Name:   fmt.Sprintf("evict-%d@%d", dev, iter),
		Faults: []Fault{{Iter: iter, Kind: GPUEvicted, Dev: dev}},
	}
}

// ServerLoss scripts server si dropping out of a multi-server job before
// iteration iter.
func ServerLoss(si, iter int) FaultSchedule {
	return FaultSchedule{
		Name:   fmt.Sprintf("server-loss-%d@%d", si, iter),
		Faults: []Fault{{Iter: iter, Kind: ServerLost, Server: si}},
	}
}

// RandomFaultSchedules draws n single-fault schedules over the machine's
// allocation, seeded and deterministic: each picks a random NVLink link
// inside the allocation to fail, degrade or flap, or a random device to
// evict. iters bounds the fault iteration to [1, iters-2] so every schedule
// leaves at least one pre-fault and one post-fault iteration.
func RandomFaultSchedules(machine *topology.Topology, devs []int, iters, n int, seed int64) ([]FaultSchedule, error) {
	if iters < 3 {
		return nil, fmt.Errorf("cluster: need >= 3 iterations to frame a fault, got %d", iters)
	}
	ind, err := machine.Induce(devs)
	if err != nil {
		return nil, err
	}
	type link struct{ a, b int }
	seen := map[link]bool{}
	var links []link
	for _, e := range ind.NVLinkGraph().Edges {
		if e.Type != graph.NVLink || e.From >= ind.NumGPUs || e.To >= ind.NumGPUs {
			continue
		}
		a, b := ind.DevIDs[e.From], ind.DevIDs[e.To]
		if a > b {
			a, b = b, a
		}
		if !seen[link{a, b}] {
			seen[link{a, b}] = true
			links = append(links, link{a, b})
		}
	}
	if len(links) == 0 && len(devs) < 3 {
		return nil, fmt.Errorf("cluster: allocation has no NVLink links and too few devices to evict")
	}
	rng := rand.New(rand.NewSource(seed))
	var out []FaultSchedule
	for i := 0; i < n; i++ {
		iter := 1 + rng.Intn(iters-2)
		kind := rng.Intn(4)
		if len(links) == 0 {
			kind = 3
		}
		if len(devs) <= 2 && kind == 3 {
			kind = rng.Intn(3)
		}
		switch kind {
		case 0:
			l := links[rng.Intn(len(links))]
			out = append(out, LinkLoss(l.a, l.b, iter))
		case 1:
			l := links[rng.Intn(len(links))]
			if iter >= iters-2 {
				// No room for the heal before the final post-fault
				// iteration: degrade to a permanent loss.
				out = append(out, LinkLoss(l.a, l.b, iter))
				continue
			}
			up := iter + 1 + rng.Intn(iters-2-iter)
			out = append(out, LinkFlap(l.a, l.b, iter, up))
		case 2:
			l := links[rng.Intn(len(links))]
			out = append(out, LinkDegrade(l.a, l.b, 0.5, iter))
		default:
			out = append(out, Eviction(devs[rng.Intn(len(devs))], iter))
		}
	}
	return out, nil
}
