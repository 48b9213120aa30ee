package core

import (
	"math"
	"runtime"
	"sync"
	"time"

	"blink/internal/graph"
)

// This file is the staged planner pipeline: the explicit form of the
// paper's Figure 9 toolchain that the monolithic GenerateTrees call used to
// hide. A compile for one root walks four stages —
//
//	enumerate  MWU candidate-tree enumeration        (PackTrees, §3.2)
//	minimize   ILP-style tree-count reduction        (MinimizeTrees, §3.2.1)
//	fill       exact peeling when the ILP undershoots the integral bound
//	codegen    chunked schedule generation            (Build*Plan, §4.1)
//
// — where codegen belongs to the collective layer (it needs a fabric and an
// op). The pipeline owns the first three, reports per-stage latency to an
// observer hook, and fans independent roots across a bounded worker pool
// with a deterministic index-ordered merge. PackRoot is the one packer entry
// of both collective engines.

// Stage names reported to PipelineOptions.OnStage (and used as the
// `stage` label of the collective layer's compile-latency histograms).
const (
	StageEnumerate = "enumerate"
	StageMinimize  = "minimize"
	StageFill      = "fill"
	StageCodegen   = "codegen"
	StageRepair    = "repair"
)

// StageSeconds is the per-stage latency breakdown of one root's compile.
type StageSeconds struct {
	Enumerate, Minimize, Fill float64
}

// Total sums the recorded stage latencies.
func (s StageSeconds) Total() float64 { return s.Enumerate + s.Minimize + s.Fill }

// PipelineOptions configures a PlannerPipeline.
type PipelineOptions struct {
	// Workers bounds the worker pool PackRoots fans out over; <= 0 uses
	// GOMAXPROCS. Worker count never affects results — per-root compiles
	// are independent and deterministic, and the merge is index-ordered —
	// only wall-clock latency.
	Workers int
	// OnStage, when non-nil, observes each completed stage's latency. It
	// may be called from multiple workers concurrently and must be
	// goroutine-safe.
	OnStage func(stage string, seconds float64)
}

// PlannerPipeline runs the staged compile path. The zero value is not
// usable; construct with NewPlannerPipeline. A pipeline is stateless apart
// from its options and safe for concurrent use.
type PlannerPipeline struct {
	opts PipelineOptions
}

// NewPlannerPipeline builds a pipeline over the given options.
func NewPlannerPipeline(opts PipelineOptions) *PlannerPipeline {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	return &PlannerPipeline{opts: opts}
}

// Workers returns the pool bound PackRoots fans out over.
func (pl *PlannerPipeline) Workers() int { return pl.opts.Workers }

func (pl *PlannerPipeline) observe(stage string, d time.Duration) {
	if pl.opts.OnStage != nil {
		pl.opts.OnStage(stage, d.Seconds())
	}
}

// PackRoot runs the packing stages for one root and reports the per-stage
// latency breakdown.
func (pl *PlannerPipeline) PackRoot(g *graph.Graph, root int) (*Packing, StageSeconds, error) {
	var st StageSeconds
	t0 := time.Now()
	p, err := PackTrees(g, root)
	d := time.Since(t0)
	st.Enumerate = d.Seconds()
	pl.observe(StageEnumerate, d)
	if err != nil {
		return nil, st, err
	}
	if len(p.Trees) == 0 {
		return p, st, nil
	}

	t0 = time.Now()
	min := MinimizeTrees(g, p)
	d = time.Since(t0)
	st.Minimize = d.Seconds()
	pl.observe(StageMinimize, d)

	// Fill: when the minimized rate still falls short of the integral
	// Edmonds optimum on an integer-capacity graph (the ILP's candidate set
	// is limited to what MWU produced), the exact peeling packer closes the
	// gap. Mirrors GenerateTrees.
	intBound := math.Floor(p.Bound + 1e-9)
	if min.Rate < intBound-1e-9 && integerCaps(g) {
		t0 = time.Now()
		exact, ferr := ExactPack(g, root)
		d = time.Since(t0)
		st.Fill = d.Seconds()
		pl.observe(StageFill, d)
		if ferr == nil && exact.Rate > min.Rate {
			return exact, st, nil
		}
	}
	return min, st, nil
}

// PackRoots fans PackRoot out across the bounded worker pool, one task per
// requested root, and merges results in input order: out[i] is roots[i]'s
// packing regardless of which worker finished first, so the output — and
// everything derived from it (plans, fingerprints) — is byte-identical
// whether the pool has 1 worker or N. The first error (in input order) wins.
func (pl *PlannerPipeline) PackRoots(g *graph.Graph, roots []int) ([]*Packing, []StageSeconds, error) {
	out := make([]*Packing, len(roots))
	stages := make([]StageSeconds, len(roots))
	err := ParallelMap(len(roots), pl.opts.Workers, func(i int) (err error) {
		out[i], stages[i], err = pl.PackRoot(g, roots[i])
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return out, stages, nil
}

// ParallelMap runs fn(i) for i in [0, n) across a bounded worker pool
// (GOMAXPROCS when workers <= 0) and returns the first error in index order.
// Results are the callee's business (write into a pre-sized slice at index
// i), which keeps merges deterministic. It is the one fan-out under
// PackRoots, the cluster compiler's per-server phases and Engine.Prewarm.
func ParallelMap(n, workers int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	errs := make([]error, n)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
