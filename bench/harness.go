package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// recorder collects what one measured window produces. Its sample slices
// are sized before the window opens so that recording never allocates and
// the window's malloc counts belong to the library alone.
type recorder struct {
	primary []time.Duration // the workload's primary op
	steps   []time.Duration // its closed-loop steps
	stream  []time.Duration // tenant_mix stream steps
	lcWait  []time.Duration // per latency-critical op (traced steps only)

	attempted int
	failed    int
	payload   int64 // data-mode input bytes x ranks moved
	notes     []string

	cal *calibrator // reference kernel, ticked between ops (calib.go)
}

const maxSamples = 1 << 21

func newRecorder() *recorder {
	return &recorder{
		primary: make([]time.Duration, 0, maxSamples),
		steps:   make([]time.Duration, 0, maxSamples/16),
		stream:  make([]time.Duration, 0, maxSamples/16),
		lcWait:  make([]time.Duration, 0, maxSamples/16),
		cal:     newCalibrator(),
	}
}

// keep appends without growing: once a sample set is full the count of
// operations stays exact and further samples are dropped.
func keep(dst *[]time.Duration, d time.Duration) {
	if len(*dst) < cap(*dst) {
		*dst = append(*dst, d)
	}
}

// fail counts one failed operation or check; the first few reasons are kept
// for the report.
func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 8 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// simSummary is the simulated-clock outcome of a workload's distinct keys,
// gathered while warming. It is deterministic: two runs of one commit must
// agree bit for bit.
type simSummary struct {
	gbs      []float64 // bytes / Result.Seconds / 1e9 per distinct key
	speedups []float64 // NCCL seconds / Blink seconds per AllReduce key
}

// cacheLedger sums the plan-cache counters of a workload's communicators
// over one window.
type cacheLedger struct{ hits, misses, lookups, evictions uint64 }

// workload is one named set of inputs. The runner owns the clock; the
// workload owns the calls into the library.
type workload interface {
	// setup does everything that precedes the first measured op: topology,
	// communicators, warm-up compiles, input generation, reference checks.
	setup() error
	// sequence returns the seeded op order (indices into the workload's op
	// table) that cycle walks.
	sequence() []int
	// begin marks the start of a measured window (ledger baselines).
	begin()
	// cycle runs one closed-loop pass: the single load-generating goroutine
	// issues each op and waits for it before the next.
	cycle(r *recorder)
	// verify runs the post-window checks and returns the window's ledger.
	verify(r *recorder) cacheLedger
	// sim returns the simulated results gathered in setup.
	sim() simSummary
	// fixture builds what the traced pass measures layer by layer.
	fixture() (*fixture, error)
	// close releases temp directories.
	close()
}

// runConfig is one invocation: a workload, a seed, a window and a pass.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string // trace files and temp plan stores
}

func newWorkload(cfg runConfig) (workload, error) {
	switch cfg.workload {
	case "warm_timing":
		return newWarmTiming(cfg.seed), nil
	case "warm_data":
		return newWarmData(cfg.seed), nil
	case "cold_plan":
		return newColdPlan(cfg.seed, cfg.outDir), nil
	case "tenant_mix":
		return newTenantMix(cfg.seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// metric is one reported value. Samples is how many observations stand
// behind a median or percentile (0 for counts and ratios of totals).
type metric struct {
	Value   float64
	Unit    string
	Samples int
}

// outcome is the result of one pass over one workload.
type outcome struct {
	Workload  string
	Trace     bool
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]metric
	// Wall holds the scaled host-time metrics as the wall clock gave them
	// (calib.go), the reference kernel's own time and the scale.
	Wall  map[string]float64
	Notes []string
	Env   envBlock
}

// set stores a metric under its declared unit; an undeclared name is a bug
// in the benchmark and panics.
func (o *outcome) set(name string, value float64, samples int) {
	list := endToEnd
	if o.Trace {
		list = perLayer
	}
	spec, ok := findSpec(list, name)
	if !ok {
		panic("bench: metric " + name + " is not declared in spec.go")
	}
	o.Metrics[name] = metric{Value: value, Unit: spec.Unit, Samples: samples}
}

// setMedian stores the median of ascending samples, times scale.
func (o *outcome) setMedian(name string, sorted []float64, scale float64) {
	o.set(name, percentile(sorted, 50)*scale, len(sorted))
}

// windowStats is what the runtime reports about one measured window.
type windowStats struct {
	elapsed          time.Duration // the kernel's share taken out
	mallocs, bytes   uint64
	gcCycles         uint32
	gcPause          time.Duration
	goroutinesBefore int
	goroutinesAfter  int
}

// measure runs whole cycles of the workload for at least the window and
// returns what was recorded. Whole cycles keep the op mix — and so the
// per-op allocation averages — identical from run to run. The runtime
// collects as it would in a training process: a collection's cost lands on
// whichever ops it overlaps and in ops_per_s.
func measure(w workload, window time.Duration) (*recorder, windowStats) {
	rec := newRecorder()
	runtime.GC() // every window starts from a collected heap, whatever set-up left
	var ws windowStats
	ws.goroutinesBefore = runtime.NumGoroutine()
	w.begin()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for {
		w.cycle(rec)
		if ws.elapsed = rec.cal.since(t0, 0); ws.elapsed >= window {
			break
		}
	}
	runtime.ReadMemStats(&m1)
	ws.mallocs = m1.Mallocs - m0.Mallocs
	ws.bytes = m1.TotalAlloc - m0.TotalAlloc
	ws.gcCycles = m1.NumGC - m0.NumGC
	ws.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	// Scheduler workers are ephemeral and exit once their queues drain; give
	// them a moment before counting what is left.
	for i := 0; i < 500; i++ {
		if ws.goroutinesAfter = runtime.NumGoroutine(); ws.goroutinesAfter <= ws.goroutinesBefore {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	return rec, ws
}

// runUntraced is the end-to-end pass: set up (several times, for a steady
// setup_s), measure one untraced window, check, and report every end-to-end
// metric.
func runUntraced(cfg runConfig) (*outcome, error) {
	out := &outcome{Workload: cfg.workload, Metrics: map[string]metric{}, Env: readEnv(cfg.seed)}
	var w workload
	var setups []float64
	// setup_s is the median of repeated set-ups: at least five and, because a
	// set-up of tens of milliseconds needs more repeats than one of half a
	// second for the same steadiness, about a second and a half of them in
	// total. A smoke window gets one.
	total := 0.0
	for len(setups) == 0 || (cfg.seconds > quickSeconds && len(setups) < 30 && (len(setups) < 5 || total < 1.5)) {
		if w != nil {
			w.close()
		}
		t0 := time.Now()
		var err error
		if w, err = newWorkload(cfg); err != nil {
			return nil, err
		}
		if err = w.setup(); err != nil {
			w.close()
			return nil, fmt.Errorf("%s: setup: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		total += setups[len(setups)-1]
	}
	defer w.close()

	rec, ws := measure(w, time.Duration(cfg.seconds*float64(time.Second)))
	ops := float64(rec.attempted) // the window's; verify's own checks are not on its clock
	w.verify(rec)
	if ws.goroutinesAfter > ws.goroutinesBefore {
		rec.fail("goroutines: %d before the window, %d after", ws.goroutinesBefore, ws.goroutinesAfter)
	}
	if ops == 0 || len(rec.primary) == 0 || len(rec.steps) == 0 {
		return nil, fmt.Errorf("%s: window of %.2fs recorded no operations", cfg.workload, cfg.seconds)
	}

	sim := w.sim()
	// Host times inside the window are reported on the nominal machine:
	// scaled by how much slower or faster the reference kernel ran in this
	// very window. Set-up runs before it and is reported as the clock gave it.
	k := rec.cal.scale()
	out.Wall = map[string]float64{
		"ops_per_s":     ops / ws.elapsed.Seconds(),
		"op_us_p50":     percentile(durMicros(rec.primary), 50),
		"step_ms_p50":   percentile(durMicros(rec.steps), 50) / 1e3,
		"ref_kernel_us": rec.cal.refUS(),
		"scale":         k,
	}
	out.set("setup_s", median(setups), len(setups))
	out.set("ops_per_s", out.Wall["ops_per_s"]/k, int(ops))
	out.set("op_us_p50", out.Wall["op_us_p50"]*k, len(rec.primary))
	out.set("step_ms_p50", out.Wall["step_ms_p50"]*k, len(rec.steps))
	out.set("allocs_per_op", float64(ws.mallocs)/ops, int(ops))
	out.set("alloc_kb_per_op", float64(ws.bytes)/1024/ops, int(ops))
	out.set("sim_gbs", geomean(sim.gbs), len(sim.gbs))
	out.set("sim_speedup_vs_nccl", geomean(sim.speedups), len(sim.speedups))
	out.finish(rec)
	return out, nil
}

func (o *outcome) finish(rec *recorder) {
	o.Attempted, o.Failed, o.Notes = rec.attempted, rec.failed, rec.notes
	o.Correct = rec.failed == 0
}

// print writes every metric by name with its unit, then the single JSON
// line the driver reads.
func (o *outcome) print() {
	pass := "end-to-end (untraced)"
	if o.Trace {
		pass = "per-layer (traced)"
	}
	fmt.Printf("# %s  %s  seed=%d  GOMAXPROCS=%d  %s\n", o.Workload, pass, o.Env.Seed, o.Env.GOMAXPROCS, o.Env.CPU)
	names := make([]string, 0, len(o.Metrics))
	for n := range o.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := o.Metrics[n]
		fmt.Printf("%-36s %16.6g %-6s", n, m.Value, m.Unit)
		if m.Samples > 0 {
			fmt.Printf(" n=%d", m.Samples)
		}
		if wall, ok := o.Wall[n]; ok {
			fmt.Printf("  (wall clock: %.6g)", wall)
		}
		fmt.Println()
	}
	if ref, ok := o.Wall["ref_kernel_us"]; ok {
		fmt.Printf("# reference kernel %.1f us in this window, nominal %.0f us: host times scaled by %.4f\n",
			ref, refNominalUS, o.Wall["scale"])
	}
	for _, note := range o.Notes {
		fmt.Fprintln(os.Stderr, "FAIL:", note)
	}
	fmt.Println(o.driverLine())
}

// driverLine is the one-object summary the driver parses: exactly the keys
// correct, attempted, failed and metrics, each metric a value and a unit.
func (o *outcome) driverLine() string {
	r := driverResult{Correct: o.Correct, Attempted: o.Attempted, Failed: o.Failed, Metrics: map[string]driverMetric{}}
	for n, m := range o.Metrics {
		r.Metrics[n] = driverMetric{m.Value, m.Unit}
	}
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // only NaN/Inf can fail here, and those are benchmark bugs
	}
	return string(b)
}
