package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"blink/internal/collective"
	"blink/internal/simgpu"
)

// The traced pass. End-to-end numbers never come from here: tracing means
// calling every layer's entry point again after the public call, which
// disturbs caches and the heap. The pass reports what each layer costs, on
// the wall clock, and how much the public call itself slowed down while
// traced.

const (
	spanCapacity   = 1 << 19
	traceFileSpans = 20000
)

// traceTiming walks the workload's seeded op order and, for each op, times
// the public call and then each layer below it on the same plan:
//
//	blink.comm ⊃ collective.engine ⊃ { collective.cache, core.frozen ⊃ simgpu }
//
// Every layer must reproduce the simulated seconds the workload saw.
func (fx *fixture) traceTiming(buf *spanBuf, window time.Duration, r *recorder) (nsPerOp []float64) {
	nsPerOp = make([]float64, 0, cap(buf.spans)/5)
	check := func(h *planHandle, layer string, secs float64, err error) {
		if err != nil {
			r.fail("traced %s of %v on %v: %v", layer, h.op.op, h.op.devs, err)
		} else if secs != h.op.want {
			r.fail("traced %s of %v on %v: simulated seconds %v, want %v", layer, h.op.op, h.op.devs, secs, h.op.want)
		}
	}
	t0 := time.Now()
	for i := 0; time.Since(t0) < window && buf.room(5); i++ {
		h := fx.handles[fx.seq[i%len(fx.seq)]]
		r.attempted++
		a := time.Now()
		secs, err := h.call()
		b := time.Now()
		check(h, "public call", secs, err)
		root := buf.add(spComm, i, -1, a, b)
		if h.eng == nil {
			continue
		}
		op := h.op
		a = time.Now()
		res, err := h.eng.Run(collective.Blink, op.op, op.root, op.bytes, collective.Options{})
		b = time.Now()
		check(h, "Engine.Run", res.Seconds, err)
		eng := buf.add(spEngine, i, root, a, b)

		a = time.Now()
		cp, ok := fx.cache.Get(h.key)
		b = time.Now()
		buf.add(spCacheGet, i, eng, a, b)
		if !ok {
			r.fail("traced PlanCache.Get of %v on %v missed", op.op, op.devs)
			continue
		}

		a = time.Now()
		rr, err := cp.Plan.Replay()
		b = time.Now()
		check(h, "FrozenPlan.Replay", rr.Makespan, err)
		replay := buf.add(spReplay, i, eng, a, b)

		a = time.Now()
		sr, err := simgpu.Run(h.links, h.ops, nil)
		b = time.Now()
		check(h, "simgpu.Run", sr.Makespan, err)
		buf.add(spSimRun, i, replay, a, b)
		nsPerOp = append(nsPerOp, float64(b.Sub(a))/float64(len(h.ops)))
	}
	return nsPerOp
}

// plainTiming makes the same public calls in the same order with nothing
// interleaved, for the tracing-overhead comparison.
func (fx *fixture) plainTiming(window time.Duration) []time.Duration {
	var out []time.Duration
	t0 := time.Now()
	for i := 0; time.Since(t0) < window; i++ {
		h := fx.handles[fx.seq[i%len(fx.seq)]]
		a := time.Now()
		h.call()
		out = append(out, time.Since(a))
	}
	return out
}

// traceData does the same for the data-mode calls:
//
//	blink.data ⊃ collective.engine (staged arena) ⊃ core.frozen ⊃ simgpu
//
// plus a timing-only run of the same schedule as the reference the Exec
// closures' cost is taken against. Arenas are staged off the clock.
func (fx *fixture) traceData(buf *spanBuf, window time.Duration, minOps int, r *recorder) (payload int64) {
	check := func(h *dataHandle, layer string, secs float64, err error) {
		if err != nil {
			r.fail("traced %s of %s: %v", layer, h.op.label, err)
		} else if secs != h.op.simSecs {
			r.fail("traced %s of %s: simulated seconds %v, want %v", layer, h.op.label, secs, h.op.simSecs)
		}
	}
	t0 := time.Now()
	for i := 0; (i < minOps || time.Since(t0) < window) && buf.room(5); i++ {
		h := fx.data[fx.dataSeq[i%len(fx.dataSeq)]]
		id := -1 - i // data ops get negative ids so the two loops never collide
		r.attempted++
		a := time.Now()
		out, err := h.op.run()
		b := time.Now()
		if err != nil {
			r.fail("traced %s: %v", h.op.label, err)
			continue
		}
		if got := checksum(out); got != h.op.sum {
			r.fail("traced %s: checksum %v, want %v", h.op.label, got, h.op.sum)
		}
		payload += h.op.payload
		root := buf.add(spData, id, -1, a, b)

		arena := h.op.stage()
		snap := h.eng.Snapshot()
		a = time.Now()
		res, err := snap.Run(collective.Blink, h.op.op, 0, h.op.bytes, collective.Options{DataMode: true, Buffers: arena})
		b = time.Now()
		check(h, "Snapshot.Run", res.Seconds, err)
		eng := buf.add(spDataEngine, id, root, a, b)

		arena = h.op.stage()
		a = time.Now()
		rr, err := h.plan.ReplayData(arena)
		b = time.Now()
		check(h, "FrozenPlan.ReplayData", rr.Makespan, err)
		replay := buf.add(spDataReplay, id, eng, a, b)

		arena = h.op.stage()
		a = time.Now()
		sr, err := simgpu.Run(h.links, h.ops, arena)
		b = time.Now()
		check(h, "simgpu.Run with Exec", sr.Makespan, err)
		buf.add(spDataSimRun, id, replay, a, b)

		a = time.Now()
		sr, err = simgpu.Run(h.links, h.refOps, nil)
		b = time.Now()
		check(h, "simgpu.Run reference", sr.Makespan, err)
		buf.add(spDataSimRef, id, -1, a, b)
	}
	return payload
}

// runTraced is the per-layer pass over one workload.
func runTraced(cfg runConfig) (*outcome, error) {
	out := &outcome{Workload: cfg.workload, Trace: true, Metrics: map[string]metric{}, Env: readEnv(cfg.seed)}
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	defer w.close()
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("%s: setup: %w", cfg.workload, err)
	}
	share := func(f float64) time.Duration { return time.Duration(cfg.seconds * f * float64(time.Second)) }

	// An untraced reference window of the workload itself: cache ledger, GC
	// and goroutine behaviour, and the workload-specific user-facing numbers.
	ref, ws := measure(w, share(0.15))
	ledger := w.verify(ref)

	fx, err := w.fixture()
	if err != nil {
		return nil, fmt.Errorf("%s: fixture: %w", cfg.workload, err)
	}
	rec := newRecorder()
	rec.attempted, rec.failed, rec.notes = ref.attempted, ref.failed, ref.notes

	replays0, compiles0 := fx.engineCounters()
	plain := durMicros(fx.plainTiming(share(0.05)))
	buf := newSpanBuf(spanCapacity)
	nsPerOp := fx.traceTiming(buf, share(0.30), rec)
	replays1, compiles1 := fx.engineCounters()
	payload := fx.traceData(buf, share(0.10), 5, rec)

	med := func(name string, vals []float64) { out.setMedian(name, vals, 1) }
	comm := buf.durations(spComm)
	med("blink.comm.op_us_p50", comm)
	out.set("blink.comm.op_us_p90", percentile(comm, 90), len(comm))
	out.set("blink.comm.op_us_p99", percentile(comm, 99), len(comm))
	med("blink.comm.self_us", buf.selfTimes(spComm))
	med("collective.engine.run_us", buf.durations(spEngine))
	med("collective.engine.self_us", buf.selfTimes(spEngine))
	out.set("collective.engine.replays", float64(replays1-replays0), 0)
	out.set("collective.engine.compiles", float64(compiles1-compiles0), 0)
	out.setMedian("collective.cache.get_ns", buf.durations(spCacheGet), 1e3)
	med("core.replay_us", buf.durations(spReplay))
	med("core.materialise_us", buf.selfTimes(spReplay))
	med("simgpu.run_us", buf.durations(spSimRun))
	out.set("simgpu.run_ns_per_op", median(nsPerOp), len(nsPerOp))

	data := buf.durations(spData)
	med("blink.data.copy_us", buf.selfTimes(spData))
	med("core.replay_data_us", buf.durations(spDataReplay))
	med("simgpu.exec_us", buf.diffs(spDataSimRun, spDataSimRef))

	if lookups := ledger.hits + ledger.misses; lookups > 0 {
		out.set("collective.cache.hit_ratio", float64(ledger.hits)/float64(lookups), int(lookups))
	} else {
		out.set("collective.cache.hit_ratio", 0, 0)
	}
	out.set("collective.cache.evictions", float64(ledger.evictions), 0)

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(cfg.outDir, "probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	p := &prober{fx: fx, out: out, rec: rec, slice: share(0.02), scratch: scratch}
	if err := p.all(); err != nil {
		return nil, fmt.Errorf("%s: probes: %w", cfg.workload, err)
	}

	// Workload-specific user-facing numbers: from the workload's own untraced
	// window where it produces them, else from the probes' stand-ins.
	steps := p.steps
	if cfg.workload == "tenant_mix" {
		steps = ref
	}
	out.set("lc_drain_ms_p50", percentile(durMicros(steps.primary), 50)/1e3, len(steps.primary))
	out.set("stream_step_ms_p50", percentile(durMicros(steps.stream), 50)/1e3, len(steps.stream))
	if cfg.workload == "warm_data" {
		out.set("data_gbs", float64(ref.payload)/ws.elapsed.Seconds()/1e9, ref.attempted)
	} else {
		total := 0.0
		for _, us := range data {
			total += us
		}
		out.set("data_gbs", float64(payload)/(total/1e6)/1e9, len(data))
	}

	out.set("runtime.gc_cycles", float64(ws.gcCycles), 0)
	out.set("runtime.gc_pause_ms", float64(ws.gcPause)/1e6, 0)
	out.set("runtime.goroutines_end", float64(ws.goroutinesAfter), 0)
	if ws.goroutinesAfter > ws.goroutinesBefore {
		rec.fail("goroutines: %d before the window, %d after", ws.goroutinesBefore, ws.goroutinesAfter)
	}
	out.set("runtime.peak_rss_mb", peakRSSMB(), 0)
	base := percentile(plain, 50)
	out.set("runtime.trace_overhead_frac", (percentile(comm, 50)-base)/base, len(plain))
	out.set("fail_frac", float64(rec.failed)/float64(rec.attempted), rec.attempted)
	out.finish(rec)

	f, err := os.Create(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json"))
	if err != nil {
		return nil, err
	}
	if err := buf.writeChromeTrace(f, traceFileSpans); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// engineCounters sums the bench-owned engines' replay and compile counters.
func (fx *fixture) engineCounters() (replays, compiles uint64) {
	for _, e := range fx.engines {
		replays += e.Metrics().Counter("blink_plan_replays_total").Value()
		compiles += e.Metrics().Counter("blink_plan_compiles_total").Value()
	}
	return
}
