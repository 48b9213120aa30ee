package dnn

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"blink/internal/cluster"
	"blink/internal/collective"
	"blink/internal/obs"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

// Fault-aware training simulation: drive a bucketed data-parallel training
// loop while the fabric degrades underneath it, reconfigure the
// communicator at each fault, and record the throughput trajectory across
// the replan — the paper's core claim (§2) exercised end to end: Blink
// re-packs spanning trees on whatever topology survives, while NCCL's rings
// break and fall back.

// FaultIter is one iteration of a fault-injected training run.
type FaultIter struct {
	Iter int
	// Fault describes the event(s) applied immediately before this
	// iteration ("" for fault-free iterations).
	Fault string
	// StepSeconds is the simulated collective time of this step's gradient
	// buckets; ThroughputGBs is payload over that time.
	StepSeconds   float64
	ThroughputGBs float64
	// WallSeconds is the host-side dispatch wall time, including any
	// reconfiguration and schedule recompilation this iteration triggered.
	WallSeconds float64
	// GPUs is the allocation size this iteration ran on.
	GPUs int
	// CacheHits/CacheMisses are this step's own plan-cache activity.
	CacheHits, CacheMisses uint64
}

// FaultTrainingRun reports a training run that survived a fault schedule.
type FaultTrainingRun struct {
	Model      string
	Schedule   string
	Backend    string
	Iterations int
	Trajectory []FaultIter

	// PreFaultStepSeconds / PreFaultGBs capture the steady state of the
	// last iteration before the first fault; PostFaultStepSeconds /
	// PostFaultGBs the steady state of the final iteration.
	PreFaultStepSeconds  float64
	PreFaultGBs          float64
	PostFaultStepSeconds float64
	PostFaultGBs         float64

	// ReplanWallSeconds is the dispatch wall time of the first post-fault
	// step (reconfigure + cold compile of every bucket schedule);
	// WarmPostWallSeconds is the mean dispatch wall time of the steps after
	// the last fault's replan, i.e. the amortized steady state.
	ReplanWallSeconds   float64
	WarmPostWallSeconds float64

	CacheHits, CacheMisses uint64
}

// faultState tracks the active degradations of a single-machine run and
// derives the current (machine, devs) pair from the pristine baseline, so
// a restored link comes back at its true original capacity.
type faultState struct {
	base *topology.Topology
	devs []int
	// links holds the active link faults keyed by canonical endpoint pair;
	// value is the surviving capacity (0 = down).
	links   map[[2]int]float64
	evicted map[int]bool
}

func newFaultState(base *topology.Topology, devs []int) *faultState {
	return &faultState{
		base:    base,
		devs:    append([]int(nil), devs...),
		links:   map[[2]int]float64{},
		evicted: map[int]bool{},
	}
}

func linkKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// apply folds one fault into the active set.
func (fs *faultState) apply(f cluster.Fault) error {
	switch f.Kind {
	case cluster.LinkDown:
		fs.links[linkKey(f.A, f.B)] = 0
	case cluster.LinkDegraded:
		if f.Units <= 0 {
			return fmt.Errorf("dnn: degraded link %d-%d needs positive units", f.A, f.B)
		}
		fs.links[linkKey(f.A, f.B)] = f.Units
	case cluster.LinkRestored:
		if _, ok := fs.links[linkKey(f.A, f.B)]; !ok {
			return fmt.Errorf("dnn: link %d-%d restored without a prior fault", f.A, f.B)
		}
		delete(fs.links, linkKey(f.A, f.B))
	case cluster.GPUEvicted:
		if fs.evicted[f.Dev] {
			return fmt.Errorf("dnn: device %d already evicted", f.Dev)
		}
		if !slices.Contains(fs.devs, f.Dev) {
			return fmt.Errorf("dnn: evicted device %d not in allocation %v", f.Dev, fs.devs)
		}
		fs.evicted[f.Dev] = true
	default:
		return fmt.Errorf("dnn: fault %v not applicable to a single-machine run", f.Kind)
	}
	return nil
}

// derive replays the active faults onto the pristine machine and returns
// the current (machine, devs). With no active faults it returns the
// pristine inputs themselves, so a fully healed fabric reuses its original
// fingerprint (and therefore its cached schedules).
func (fs *faultState) derive() (*topology.Topology, []int, error) {
	m := fs.base
	var err error
	// Apply active link faults in sorted endpoint order: the fingerprint
	// is order-independent (edits commute) but the derived Name is not,
	// and it surfaces in errors and bench output.
	keys := make([][2]int, 0, len(fs.links))
	for k := range fs.links {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		if units := fs.links[k]; units == 0 {
			m, err = m.WithoutLink(k[0], k[1])
		} else {
			m, err = m.WithLinkUnits(k[0], k[1], units)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	var devs []int
	for _, d := range fs.devs {
		if !fs.evicted[d] {
			devs = append(devs, d)
		}
	}
	if len(devs) < 2 {
		return nil, nil, fmt.Errorf("dnn: %d device(s) survive the fault schedule; need >= 2", len(devs))
	}
	return m, devs, nil
}

// runFaultTrajectory is the shared accounting loop of the fault-injected
// training runs: apply folds an iteration's faults into the communicator
// and returns their descriptions; step runs one training step and reports
// the surviving rank count. The returned run carries the per-iteration
// trajectory, the pre/post-fault steady states and the replan cost.
func runFaultTrajectory(tr FaultTrainingRun, iters int, sched cluster.FaultSchedule, clock func() float64,
	apply func(it int, faults []cluster.Fault) ([]string, error),
	step func() (collective.GroupResult, int, error)) (FaultTrainingRun, error) {
	first, last := sched.FirstIter(), sched.LastIter()
	if first < 1 || last > iters-2 {
		return FaultTrainingRun{}, fmt.Errorf("dnn: fault schedule %s must strike within [1,%d] to leave pre- and post-fault iterations", sched.Name, iters-2)
	}
	tr.Schedule = sched.Name
	tr.Iterations = iters
	warmCount := 0
	for it := 0; it < iters; it++ {
		start := clock()
		descs, err := apply(it, sched.At(it))
		if err != nil {
			return FaultTrainingRun{}, fmt.Errorf("dnn: replan at iter %d: %w", it, err)
		}
		g, gpus, err := step()
		if err != nil {
			return FaultTrainingRun{}, fmt.Errorf("dnn: step %d: %w", it, err)
		}
		elapsed := clock() - start
		tr.Trajectory = append(tr.Trajectory, FaultIter{
			Iter:          it,
			Fault:         strings.Join(descs, "; "),
			StepSeconds:   g.Seconds,
			ThroughputGBs: g.ThroughputGBs,
			WallSeconds:   elapsed,
			GPUs:          gpus,
			CacheHits:     g.CacheHits,
			CacheMisses:   g.CacheMisses,
		})
		tr.CacheHits += g.CacheHits
		tr.CacheMisses += g.CacheMisses
		switch {
		case it == first-1:
			tr.PreFaultStepSeconds = g.Seconds
			tr.PreFaultGBs = g.ThroughputGBs
		case it == first:
			tr.ReplanWallSeconds = elapsed
		}
		if it > last {
			tr.WarmPostWallSeconds += elapsed
			warmCount++
		}
	}
	final := tr.Trajectory[len(tr.Trajectory)-1]
	tr.PostFaultStepSeconds = final.StepSeconds
	tr.PostFaultGBs = final.ThroughputGBs
	if warmCount > 0 {
		tr.WarmPostWallSeconds /= float64(warmCount)
	}
	return tr, nil
}

// SimulateTrainingRunWithFaults drives iters bucketed training steps of the
// model over the allocation while injecting the fault schedule: before each
// scheduled iteration the machine is re-derived and the engine
// Reconfigured, so that iteration's dispatch pays the replan (cold compile)
// and later iterations replay the new frozen plans. It returns the
// per-iteration throughput trajectory plus the pre/post-fault steady states
// and the replan cost.
func SimulateTrainingRunWithFaults(machine *topology.Topology, devs []int, backend collective.Backend, m *Model, bucketBytes int64, iters int, sched cluster.FaultSchedule, cfg simgpu.Config, clock func() float64) (FaultTrainingRun, error) {
	eng, err := collective.NewEngine(machine, devs, cfg)
	if err != nil {
		return FaultTrainingRun{}, err
	}
	return simulateFaultsOnEngine(eng, machine, devs, backend, m, bucketBytes, iters, sched, clock)
}

// simulateFaultsOnEngine runs the fault-injected trajectory on a caller-
// provided engine, so observed runs can enable the engine's timeline and
// read its metrics registry afterwards.
func simulateFaultsOnEngine(eng *collective.Engine, machine *topology.Topology, devs []int, backend collective.Backend, m *Model, bucketBytes int64, iters int, sched cluster.FaultSchedule, clock func() float64) (FaultTrainingRun, error) {
	fs := newFaultState(machine, devs)
	tr := FaultTrainingRun{Model: m.Name, Backend: backend.String()}
	return runFaultTrajectory(tr, iters, sched, clock,
		func(it int, faults []cluster.Fault) ([]string, error) {
			var descs []string
			for _, f := range faults {
				if err := fs.apply(f); err != nil {
					return nil, err
				}
				descs = append(descs, f.String())
			}
			if len(descs) > 0 {
				dm, dd, err := fs.derive()
				if err != nil {
					return nil, err
				}
				if err := eng.Reconfigure(dm, dd); err != nil {
					return nil, fmt.Errorf("%s: %w", strings.Join(descs, "; "), err)
				}
			}
			return descs, nil
		},
		func() (collective.GroupResult, int, error) {
			g, err := TrainStep(eng, backend, m, bucketBytes)
			return g, eng.Topo().NumGPUs, err
		})
}

// ObservedFaultRun is a fault-injected training run with its observability
// artifacts: the per-op span timeline, the engine's metrics registry, and
// the deterministic replay evidence.
type ObservedFaultRun struct {
	Run FaultTrainingRun
	// Spans is the run's full op timeline in completion order.
	Spans []obs.Span
	// Registry is the engine's metrics registry (cache attribution,
	// compile/replay counts, replan latency, per-op makespans).
	Registry *obs.Registry
	// Evidence is the deterministic replay-evidence artifact: two runs with
	// identical inputs serialize it byte-identically.
	Evidence obs.Evidence
}

// SimulateTrainingRunWithFaultsObserved is SimulateTrainingRunWithFaults
// with the observability layer enabled: the engine records a span per
// collective dispatch, and the result carries replay evidence binding the
// seed (whatever produced the fault schedule — pass the one given to
// cluster.RandomFaultSchedules, or 0 for a scripted schedule), the pristine
// topology fingerprint, the fault schedule and the timeline hash. The
// trajectory is dispatched sequentially, so the hash is deterministic:
// identical inputs yield identical evidence.
func SimulateTrainingRunWithFaultsObserved(machine *topology.Topology, devs []int, backend collective.Backend, m *Model, bucketBytes int64, iters int, sched cluster.FaultSchedule, cfg simgpu.Config, clock func() float64, seed int64) (ObservedFaultRun, error) {
	eng, err := collective.NewEngine(machine, devs, cfg)
	if err != nil {
		return ObservedFaultRun{}, err
	}
	tl := eng.EnableTimeline()
	pristine := eng.Fingerprint()
	run, err := simulateFaultsOnEngine(eng, machine, devs, backend, m, bucketBytes, iters, sched, clock)
	if err != nil {
		return ObservedFaultRun{}, err
	}
	faults := make([]string, 0, len(sched.Faults))
	for _, f := range sched.Faults {
		faults = append(faults, f.String())
	}
	steps := make([]float64, 0, len(run.Trajectory))
	for _, it := range run.Trajectory {
		steps = append(steps, it.StepSeconds)
	}
	return ObservedFaultRun{
		Run:      run,
		Spans:    tl.Spans(),
		Registry: eng.Metrics(),
		Evidence: obs.Evidence{
			Tool:           "dnn.SimulateTrainingRunWithFaultsObserved",
			Seed:           seed,
			Topology:       pristine,
			Backend:        backend.String(),
			Model:          m.Name,
			FaultSchedule:  faults,
			Iterations:     iters,
			Spans:          tl.Len(),
			StepSimSeconds: steps,
			TimelineHash:   tl.Hash(),
		},
	}, nil
}

// SimulateClusterTrainingRunWithFaults is the multi-server counterpart:
// it drives bucketed cluster training steps while servers drop out
// (ServerLost is the only fault kind a cluster run accepts — link and GPU
// faults strike a single machine). Server indices refer to the server order
// current when the fault strikes.
func SimulateClusterTrainingRunWithFaults(c *topology.Cluster, backend collective.Backend, m *Model, bucketBytes int64, iters int, sched cluster.FaultSchedule, cfg simgpu.Config, clock func() float64) (FaultTrainingRun, error) {
	for _, f := range sched.Faults {
		if f.Kind != cluster.ServerLost {
			return FaultTrainingRun{}, fmt.Errorf("dnn: cluster runs accept only server-lost faults, got %v", f.Kind)
		}
	}
	eng, err := collective.NewClusterEngine(c, cfg)
	if err != nil {
		return FaultTrainingRun{}, err
	}
	tr := FaultTrainingRun{Model: m.Name, Backend: backend.String()}
	return runFaultTrajectory(tr, iters, sched, clock,
		func(it int, faults []cluster.Fault) ([]string, error) {
			var descs []string
			for _, f := range faults {
				if err := eng.RemoveServer(f.Server); err != nil {
					return nil, fmt.Errorf("%s: %w", f, err)
				}
				descs = append(descs, f.String())
			}
			return descs, nil
		},
		func() (collective.GroupResult, int, error) {
			g, err := TrainStep(eng, backend, m, bucketBytes)
			return g, eng.Topo().NumGPUs, err
		})
}
