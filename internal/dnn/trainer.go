package dnn

import (
	"fmt"
	"sync"

	"blink/internal/collective"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

// CommFn returns the time to AllReduce a gradient tensor of the given size
// across the training job's GPUs.
type CommFn func(bytes int64) (float64, error)

// CollectiveCallLatency is the fixed framework cost of issuing one gradient
// AllReduce (Python/framework hook, NCCL group launch); it is what makes
// many-small-layer models like ResNet pay overhead even at high link
// bandwidth.
const CollectiveCallLatency = 300e-6

// EngineComm adapts a collective engine — one machine (packed trees or
// rings) or a cluster (the three-phase protocol or the flat cross-machine
// ring) — as a CommFn, caching per distinct tensor size (models reuse a
// handful of layer shapes). The returned function is safe for concurrent
// use; the engine's plan cache makes even first-touch timing for a repeated
// size a frozen-plan replay.
func EngineComm(eng *collective.Engine, backend collective.Backend) CommFn {
	var mu sync.Mutex
	cache := map[int64]float64{}
	return func(bytes int64) (float64, error) {
		mu.Lock()
		t, ok := cache[bytes]
		mu.Unlock()
		if ok {
			return t, nil
		}
		res, err := eng.Run(backend, collective.AllReduce, 0, bytes, collective.Options{})
		if err != nil {
			return 0, err
		}
		t = res.Seconds + CollectiveCallLatency
		mu.Lock()
		cache[bytes] = t
		mu.Unlock()
		return t, nil
	}
}

// MultiServerChunkBytes is the pipelining chunk the paper's multi-server
// figures (22a/22b) are recorded at.
const MultiServerChunkBytes = 4 << 20

// MultiServerComm adapts Blink's three-phase cross-machine AllReduce,
// dispatched through a cluster engine over c.
func MultiServerComm(c *topology.Cluster, cfg simgpu.Config) CommFn {
	eng, engErr := collective.NewClusterEngine(c, cfg)
	cache := map[int64]float64{}
	return func(bytes int64) (float64, error) {
		if engErr != nil {
			return 0, engErr
		}
		if t, ok := cache[bytes]; ok {
			return t, nil
		}
		res, err := eng.Run(collective.Blink, collective.AllReduce, 0, bytes, collective.Options{ChunkBytes: MultiServerChunkBytes})
		if err != nil {
			return 0, err
		}
		t := res.Seconds + CollectiveCallLatency
		cache[bytes] = t
		return t, nil
	}
}

// AnalyticComm models a fixed effective AllReduce bandwidth (GB/s) plus a
// per-call latency, used for the NCCL cross-machine baseline.
func AnalyticComm(effGBs, latency float64) CommFn {
	return func(bytes int64) (float64, error) {
		if effGBs <= 0 {
			return 0, fmt.Errorf("dnn: non-positive bandwidth")
		}
		return latency + float64(bytes)/(effGBs*1e9), nil
	}
}

// IterStats reports one simulated training iteration.
type IterStats struct {
	ComputeSeconds float64
	// CommSeconds is the total time spent in AllReduce calls (whether or
	// not hidden by compute).
	CommSeconds float64
	// IterSeconds is the wall-clock iteration time with wait-free
	// backpropagation overlap.
	IterSeconds float64
	// CommOverheadFrac is the fraction of the iteration not hidden behind
	// compute: (iter - compute) / iter, the paper's "communication
	// percentage" (Figure 5).
	CommOverheadFrac float64
	ImagesPerSec     float64
}

// OverlapEfficiency is the fraction of full collective bandwidth available
// while backward compute is still running: collective reduction kernels
// compete with training kernels for SMs and memory bandwidth, so overlap
// during the backward pass is partial (this is why Figure 5 shows sizeable
// overheads even under wait-free backpropagation). After compute finishes
// the collective runs at full speed.
const OverlapEfficiency = 0.3

// SimulateIteration runs the wait-free-backpropagation timeline: backward
// produces per-layer gradients in reverse layer order; each gradient's
// AllReduce is enqueued as soon as it is available and the collective
// channel processes tensors FIFO, at OverlapEfficiency of full rate while
// compute is in flight. The iteration ends when both compute and the last
// AllReduce finish (Poseidon/WFBP, §1).
func SimulateIteration(m *Model, gen topology.Gen, nGPUs int, comm CommFn) (IterStats, error) {
	ct, ok := m.Compute[gen]
	if !ok {
		return IterStats{}, fmt.Errorf("dnn: model %s has no compute time for %v", m.Name, gen)
	}
	var st IterStats
	st.ComputeSeconds = ct.Fwd + ct.Bwd
	nl := len(m.Layers)
	if nl == 0 {
		return IterStats{}, fmt.Errorf("dnn: model %s has no layers", m.Name)
	}
	computeEnd := st.ComputeSeconds
	// serve advances the collective channel by `work` seconds of full-rate
	// service starting at `start`, derating while compute is running.
	serve := func(start, work float64) float64 {
		if start >= computeEnd {
			return start + work
		}
		overlapCapacity := (computeEnd - start) * OverlapEfficiency
		if overlapCapacity >= work {
			return start + work/OverlapEfficiency
		}
		return computeEnd + (work - overlapCapacity)
	}
	// Gradient of layer i (forward order) is ready after backward has
	// walked from the top of the network down to layer i.
	chanFree := 0.0
	for i := nl - 1; i >= 0; i-- {
		ready := ct.Fwd + ct.Bwd*float64(nl-i)/float64(nl)
		dur, err := comm(m.Layers[i].Bytes)
		if err != nil {
			return IterStats{}, err
		}
		start := ready
		if chanFree > start {
			start = chanFree
		}
		chanFree = serve(start, dur)
		st.CommSeconds += dur
	}
	st.IterSeconds = st.ComputeSeconds
	if chanFree > st.IterSeconds {
		st.IterSeconds = chanFree
	}
	st.CommOverheadFrac = (st.IterSeconds - st.ComputeSeconds) / st.IterSeconds
	st.ImagesPerSec = float64(m.BatchPerGPU*nGPUs) / st.IterSeconds
	return st, nil
}

// GradientBuckets returns the gradient bucket sizes one training step
// issues, in backward (reverse-layer) order, fusing adjacent gradients into
// buckets of at least bucketBytes the way Horovod tensor fusion / PyTorch
// DDP do. bucketBytes <= 0 disables fusion: one AllReduce per layer.
func GradientBuckets(m *Model, bucketBytes int64) []int64 {
	var sizes []int64
	var pending int64
	for i := len(m.Layers) - 1; i >= 0; i-- {
		pending += m.Layers[i].Bytes
		if bucketBytes <= 0 || pending >= bucketBytes {
			sizes = append(sizes, pending)
			pending = 0
		}
	}
	if pending > 0 {
		sizes = append(sizes, pending)
	}
	return sizes
}

// TrainStep issues one data-parallel step's gradient buckets as a grouped
// collective through the engine's plan cache — the hot path a framework's
// gradient hook hits every iteration. The first step compiles one schedule
// per distinct bucket size (across every server plus the NIC phase, on a
// cluster engine); every later step replays frozen plans
// (GroupResult.CacheHits covers the whole group).
func TrainStep(eng *collective.Engine, backend collective.Backend, m *Model, bucketBytes int64) (collective.GroupResult, error) {
	sizes := GradientBuckets(m, bucketBytes)
	if len(sizes) == 0 {
		return collective.GroupResult{}, fmt.Errorf("dnn: model %s has no gradients", m.Name)
	}
	return eng.RunMany(backend, collective.AllReduce, 0, sizes, collective.Options{})
}

// TrainingRun reports a multi-iteration training loop's collective
// dispatch, separating the cold first step (schedule compilation) from the
// warm steady state (frozen-plan replay).
type TrainingRun struct {
	Model      string
	Iterations int
	Buckets    int
	// ColdWallSeconds / WarmWallSeconds are host-side dispatch wall times:
	// the first iteration vs. the mean of the remaining ones.
	ColdWallSeconds float64
	WarmWallSeconds float64
	// StepSeconds is the simulated per-step collective time (identical
	// across iterations — schedules are deterministic).
	StepSeconds float64
	CacheHits   uint64
	CacheMisses uint64
}

// SimulateTrainingRun drives iters training steps of the model through one
// engine, timing schedule dispatch per iteration. It is the plan-cache
// analog of the paper's generate-once / reuse-per-iteration workflow.
func SimulateTrainingRun(eng *collective.Engine, backend collective.Backend, m *Model, bucketBytes int64, iters int, clock func() float64) (TrainingRun, error) {
	if iters < 2 {
		return TrainingRun{}, fmt.Errorf("dnn: need >= 2 iterations to split cold/warm, got %d", iters)
	}
	tr := TrainingRun{Model: m.Name, Iterations: iters, Buckets: len(GradientBuckets(m, bucketBytes))}
	for it := 0; it < iters; it++ {
		start := clock()
		g, err := TrainStep(eng, backend, m, bucketBytes)
		if err != nil {
			return TrainingRun{}, err
		}
		elapsed := clock() - start
		if it == 0 {
			tr.ColdWallSeconds = elapsed
			tr.StepSeconds = g.Seconds
		} else {
			tr.WarmWallSeconds += elapsed / float64(iters-1)
		}
		tr.CacheHits += g.CacheHits
		tr.CacheMisses += g.CacheMisses
	}
	return tr, nil
}

// Comparison holds a Blink-vs-NCCL end-to-end result (Figure 18).
type Comparison struct {
	Model              string
	NCCL, Blink        IterStats
	IterTimeReduction  float64 // 1 - blinkIter/ncclIter
	CommTimeReduction  float64 // 1 - blinkOverhead/ncclOverhead
	ImagesPerSecFactor float64
}

// Compare trains one iteration of the model with both backends on the same
// allocation.
func Compare(m *Model, machine *topology.Topology, devs []int, cfg simgpu.Config) (Comparison, error) {
	eng, err := collective.NewEngine(machine, devs, cfg)
	if err != nil {
		return Comparison{}, err
	}
	n := len(devs)
	if n == 0 {
		n = machine.NumGPUs
	}
	nccl, err := SimulateIteration(m, machine.Gen, n, EngineComm(eng, collective.NCCL))
	if err != nil {
		return Comparison{}, err
	}
	blink, err := SimulateIteration(m, machine.Gen, n, EngineComm(eng, collective.Blink))
	if err != nil {
		return Comparison{}, err
	}
	c := Comparison{Model: m.Name, NCCL: nccl, Blink: blink}
	if nccl.IterSeconds > 0 {
		c.IterTimeReduction = 1 - blink.IterSeconds/nccl.IterSeconds
	}
	ncclOv := nccl.IterSeconds - nccl.ComputeSeconds
	blinkOv := blink.IterSeconds - blink.ComputeSeconds
	if ncclOv > 1e-12 {
		c.CommTimeReduction = 1 - blinkOv/ncclOv
		if c.CommTimeReduction < 0 {
			c.CommTimeReduction = 0
		}
	}
	if nccl.ImagesPerSec > 0 {
		c.ImagesPerSecFactor = blink.ImagesPerSec / nccl.ImagesPerSec
	}
	return c, nil
}
