package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"blink/internal/collective"
	"blink/internal/core"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

// compileFastPath compares time-to-first-usable-plan of the approximate-
// first fast path against the full exact compile on a cold engine.
type compileFastPath struct {
	Op                string  `json:"op"`
	Bytes             int64   `json:"bytes"`
	ExactColdMillis   float64 `json:"exactColdMillis"`
	FastColdMillis    float64 `json:"fastColdMillis"`
	Speedup           float64 `json:"speedup"`
	FastPathCompiles  uint64  `json:"fastPathCompiles"`
	RefineSwaps       uint64  `json:"refineSwaps"`
	ApproxRate        float64 `json:"approxRate"`
	RefinedRate       float64 `json:"refinedRate"`
	RateBound         float64 `json:"rateBound"`
	RefineWaitMillis  float64 `json:"refineWaitMillis"`
	MeetsSpeedupOfTwo bool    `json:"meetsSpeedupOfTwo"`
}

// compileRepair compares single-machine fault replanning via incremental
// packing repair against the full per-root recompile baseline.
type compileRepair struct {
	Fault             string  `json:"fault"`
	Roots             int     `json:"roots"`
	FullMillis        float64 `json:"fullRecompileMillis"`
	IncrementalMillis float64 `json:"incrementalMillis"`
	Speedup           float64 `json:"speedup"`
	RepairedRoots     uint64  `json:"repairedRoots"`
	FallbackRoots     uint64  `json:"fallbackRoots"`
	MinRateRatio      float64 `json:"minRateRatio"`
	MeetsSpeedupOfTen bool    `json:"meetsSpeedupOfTen"`
}

// compileStage is one stage's latency aggregate from the engine's
// blink_compile_stage_seconds histogram family.
type compileStage struct {
	Stage        string  `json:"stage"`
	Count        uint64  `json:"count"`
	TotalSeconds float64 `json:"totalSeconds"`
}

// compileReport is the schema of BENCH_compile.json.
type compileReport struct {
	Methodology string          `json:"methodology"`
	Machine     string          `json:"machine"`
	Devices     []int           `json:"devices"`
	GoVersion   string          `json:"goVersion"`
	GOOS        string          `json:"goos"`
	GOARCH      string          `json:"goarch"`
	FastPath    compileFastPath `json:"fastPath"`
	Repair      compileRepair   `json:"repair"`
	Stages      []compileStage  `json:"stages"`
}

const compileMethodology = "fastPath: two cold engines on a full 8-GPU " +
	"DGX-1V dispatch the same Broadcast; one compiles the exact " +
	"enumerate→minimize→fill pipeline inline, the other publishes an " +
	"approximate greedy packing first (SetFastCompile) and refines in the " +
	"background. Cold millis is wall-clock to the first returned result. " +
	"repair: two engines lose one NVLink; millis is wall-clock for " +
	"Reconfigure plus re-resolving all root packings — the engine that " +
	"prewarmed exact packings for every root repairs them incrementally, " +
	"reusing trees the fault missed; the baseline never prewarmed, so it " +
	"has nothing to repair and recompiles every root from scratch. stages aggregates the engines' per-stage compile-latency " +
	"histograms (blink_compile_stage_seconds)."

// runCompileBench measures the staged-compile pipeline and writes the JSON
// report to out.
func runCompileBench(out io.Writer) error {
	machine := topology.DGX1V()
	devs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	rep := compileReport{
		Methodology: compileMethodology,
		Machine:     machine.Name,
		Devices:     devs,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
	}

	// --- Fast-path cold start ---------------------------------------------
	const bytes = 64 << 20
	exactEng, err := collective.NewEngine(machine, devs, simgpu.Config{})
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := exactEng.Run(collective.Blink, collective.Broadcast, 0, bytes, collective.Options{}); err != nil {
		return err
	}
	exactCold := time.Since(t0)
	exactPack, err := exactEng.Packing(0)
	if err != nil {
		return err
	}

	fastEng, err := collective.NewEngine(machine, devs, simgpu.Config{})
	if err != nil {
		return err
	}
	fastEng.SetFastCompile(true)
	t0 = time.Now()
	if _, err := fastEng.Run(collective.Blink, collective.Broadcast, 0, bytes, collective.Options{}); err != nil {
		return err
	}
	fastCold := time.Since(t0)
	approxPack, err := fastEng.Packing(0)
	if err != nil {
		return err
	}
	t0 = time.Now()
	fastEng.WaitRefinements()
	refineWait := time.Since(t0)
	refinedPack, err := fastEng.Packing(0)
	if err != nil {
		return err
	}

	fp := compileFastPath{
		Op:               "Broadcast",
		Bytes:            bytes,
		ExactColdMillis:  float64(exactCold) / 1e6,
		FastColdMillis:   float64(fastCold) / 1e6,
		FastPathCompiles: fastEng.Metrics().Counter("blink_fastpath_compiles_total").Value(),
		RefineSwaps:      fastEng.Metrics().Counter("blink_refine_swaps_total").Value(),
		ApproxRate:       approxPack.Rate,
		RefinedRate:      refinedPack.Rate,
		RateBound:        exactPack.Bound,
		RefineWaitMillis: float64(refineWait) / 1e6,
	}
	if fastCold > 0 {
		fp.Speedup = float64(exactCold) / float64(fastCold)
	}
	fp.MeetsSpeedupOfTwo = fp.Speedup >= 2
	rep.FastPath = fp

	// --- Incremental fault repair -----------------------------------------
	faulted, err := machine.WithoutLink(0, 3)
	if err != nil {
		return err
	}
	replanAll := func(eng *collective.Engine) (time.Duration, error) {
		t0 := time.Now()
		if err := eng.Reconfigure(faulted, nil); err != nil {
			return 0, err
		}
		for r := range devs {
			if _, err := eng.Packing(r); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}

	fullEng, err := collective.NewEngine(machine, devs, simgpu.Config{})
	if err != nil {
		return err
	}
	// Never prewarmed: with no packings to repair, every post-fault root
	// recompiles from scratch — the full-recompile baseline.
	fullDur, err := replanAll(fullEng)
	if err != nil {
		return err
	}

	incEng, err := collective.NewEngine(machine, devs, simgpu.Config{})
	if err != nil {
		return err
	}
	if err := incEng.Prewarm(nil); err != nil {
		return err
	}
	incDur, err := replanAll(incEng)
	if err != nil {
		return err
	}

	// Quality check: repaired rate vs full-recompile rate per root.
	minRatio := 1.0
	for r := range devs {
		rp, err := incEng.Packing(r)
		if err != nil {
			return err
		}
		fpk, err := fullEng.Packing(r)
		if err != nil {
			return err
		}
		if fpk.Rate > 0 {
			if ratio := rp.Rate / fpk.Rate; ratio < minRatio {
				minRatio = ratio
			}
		}
	}

	cr := compileRepair{
		Fault:             "WithoutLink(0,3)",
		Roots:             len(devs),
		FullMillis:        float64(fullDur) / 1e6,
		IncrementalMillis: float64(incDur) / 1e6,
		RepairedRoots:     incEng.Metrics().Counter("blink_repair_incremental_total").Value(),
		FallbackRoots:     incEng.Metrics().Counter("blink_repair_fallback_total").Value(),
		MinRateRatio:      minRatio,
	}
	if incDur > 0 {
		cr.Speedup = float64(fullDur) / float64(incDur)
	}
	cr.MeetsSpeedupOfTen = cr.Speedup >= 10
	rep.Repair = cr

	// --- Per-stage latency aggregates -------------------------------------
	for _, stage := range []string{core.StageEnumerate, core.StageMinimize, core.StageFill, core.StageCodegen, core.StageRepair} {
		var count uint64
		var total float64
		for _, eng := range []*collective.Engine{exactEng, fastEng, fullEng, incEng} {
			h := eng.Metrics().Histogram(`blink_compile_stage_seconds{stage="`+stage+`"}`, nil)
			count += h.Count()
			total += h.Sum()
		}
		rep.Stages = append(rep.Stages, compileStage{Stage: stage, Count: count, TotalSeconds: total})
	}

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// compileMain handles the -compile flag; -check additionally gates the
// fast-path (>=2x) and incremental-repair (>=10x) speedups for CI.
func compileMain(path string) {
	writeReport(path, "compile", runCompileBench)
}

// compileCheck re-runs the compile bench discarding output and exits
// non-zero unless both speedup gates hold. Used by `make compile-smoke`.
func compileCheck() error {
	var buf jsonCapture
	if err := runCompileBench(&buf); err != nil {
		return err
	}
	var rep compileReport
	if err := json.Unmarshal(buf.data, &rep); err != nil {
		return err
	}
	if !rep.FastPath.MeetsSpeedupOfTwo {
		return fmt.Errorf("fast-path cold compile speedup %.2fx < 2x (exact %.2fms, fast %.2fms)",
			rep.FastPath.Speedup, rep.FastPath.ExactColdMillis, rep.FastPath.FastColdMillis)
	}
	if !rep.Repair.MeetsSpeedupOfTen {
		return fmt.Errorf("incremental repair speedup %.2fx < 10x (full %.2fms, incremental %.2fms)",
			rep.Repair.Speedup, rep.Repair.FullMillis, rep.Repair.IncrementalMillis)
	}
	fmt.Printf("compile-smoke: fast path %.1fx (>=2x), incremental repair %.1fx (>=10x), min rate ratio %.3f\n",
		rep.FastPath.Speedup, rep.Repair.Speedup, rep.Repair.MinRateRatio)
	return nil
}

// jsonCapture buffers writes in memory for compileCheck's self-parse.
type jsonCapture struct{ data []byte }

func (c *jsonCapture) Write(p []byte) (int, error) {
	c.data = append(c.data, p...)
	return len(p), nil
}
