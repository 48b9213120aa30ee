package main

import (
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"blink"
	"blink/internal/collective"
	"blink/internal/core"
	"blink/internal/dnn"
	"blink/internal/graph"
	"blink/internal/obs"
	"blink/internal/plansvc"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

// prober times the layer entry points that the traced replay does not reach:
// cold paths, the async schedulers on an idle engine, the planner stages,
// codec, store, observability primitives. Each probe repeats until it has a
// minimum number of samples and its time slice is spent.
type prober struct {
	fx      *fixture
	out     *outcome
	rec     *recorder
	slice   time.Duration
	scratch string
	steps   *recorder // tenant-rig steps (lc drain, lane step, stream step)
}

const probeMaxSamples = 20000

// sample calls fn — which does its own untimed preparation and returns the
// duration of the part under test — and returns the ascending microseconds.
func (p *prober) sample(minN int, fn func() (time.Duration, error)) ([]float64, error) {
	deadline := time.Now().Add(p.slice)
	var ds []time.Duration
	for len(ds) < minN || (time.Now().Before(deadline) && len(ds) < probeMaxSamples) {
		d, err := fn()
		if err != nil {
			return nil, err
		}
		ds = append(ds, d)
	}
	return durMicros(ds), nil
}

// batch times n back-to-back calls of a nanosecond-scale primitive and
// returns nanoseconds per call; sample repeats it.
func (p *prober) batch(name string, n int, fn func()) error {
	us, err := p.sample(5, func() (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	p.out.set(name, percentile(us, 50)*1e3/float64(n), len(us)*n)
	return nil
}

func (p *prober) all() error {
	for _, probe := range []func() error{
		p.engine, p.cache, p.store, p.async, p.tenantSteps, p.cluster,
		p.planner, p.codec, p.topology, p.obs, p.dnn, p.plansvc, p.memory,
	} {
		if err := probe(); err != nil {
			return err
		}
	}
	return nil
}

// subjectEngine returns a fresh engine on the subject's allocation and a
// closure that runs the subject's op on it.
func (p *prober) subjectEngine() (*collective.Engine, func(*collective.Engine) (collective.Result, error), error) {
	op := p.fx.subject.op
	eng, err := collective.NewEngine(op.machine, op.devs, simgpu.Config{})
	run := func(e *collective.Engine) (collective.Result, error) {
		return e.Run(collective.Blink, op.op, op.root, op.bytes, collective.Options{})
	}
	return eng, run, err
}

func (p *prober) engine() error {
	cold, err := p.sample(3, func() (time.Duration, error) {
		eng, run, err := p.subjectEngine()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		_, err = run(eng)
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	p.out.setMedian("collective.engine.cold_us", cold, 1)

	// A link fault on the full machine: reconfigure, then have every root's
	// packing ready again (incremental repair where it applies).
	degraded, err := topology.DGX1V().WithoutLink(0, 3)
	if err != nil {
		return err
	}
	reconf, err := p.sample(2, func() (time.Duration, error) {
		eng, err := collective.NewEngine(topology.DGX1V(), fullDGX, simgpu.Config{})
		if err != nil {
			return 0, err
		}
		if err := eng.Prewarm(nil); err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := eng.Reconfigure(degraded, nil); err != nil {
			return 0, err
		}
		for root := range fullDGX {
			if _, err := eng.Packing(root); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	p.out.setMedian("collective.engine.reconfigure_ms", reconf, 1e-3)
	return nil
}

func (p *prober) cache() error {
	miss := p.fx.subject.key
	miss.Bytes++
	if err := p.batch("collective.cache.get_miss_ns", 1000, func() { p.fx.cache.Get(miss) }); err != nil {
		return err
	}
	// Steady-state insert: a full cache, every Put a new key, so each one
	// also evicts the least recently used entry.
	own := collective.NewPlanCache(collective.DefaultPlanCacheCapacity)
	key, cp := p.fx.subject.key, &collective.CachedPlan{Plan: p.fx.subject.plan}
	return p.batch("collective.cache.put_ns", 1000, func() {
		key.Bytes += 4
		own.Put(key, cp)
	})
}

func (p *prober) store() error {
	s := p.fx.subject
	st, err := collective.NewPlanStore(filepath.Join(p.scratch, "store"))
	if err != nil {
		return err
	}
	key := s.key
	var keys []collective.PlanKey
	put, err := p.sample(10, func() (time.Duration, error) {
		key.Bytes += 4
		keys = append(keys, key)
		t0 := time.Now()
		err := st.Put(key, s.blob)
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	p.out.setMedian("collective.store.put_us", put, 1)
	i := 0
	get, err := p.sample(10, func() (time.Duration, error) {
		k := keys[i%len(keys)]
		i++
		t0 := time.Now()
		blob, err := st.Get(k)
		d := time.Since(t0)
		if err == nil && len(blob) != len(s.blob) {
			err = fmt.Errorf("plan store returned %d bytes, stored %d", len(blob), len(s.blob))
		}
		return d, err
	})
	if err != nil {
		return err
	}
	p.out.setMedian("collective.store.get_us", get, 1)

	// Warm start: a second process's view — a new communicator over a store
	// that already holds the plan.
	dir := filepath.Join(p.scratch, "warmstart")
	first := func() (blink.CacheStats, error) {
		comm, err := blink.NewComm(s.op.machine, s.op.devs, blink.WithPlanStore(dir))
		if err != nil {
			return blink.CacheStats{}, err
		}
		if _, err := publicCall(comm, s.op)(); err != nil {
			return blink.CacheStats{}, err
		}
		return comm.CacheStats(), nil
	}
	if _, err := first(); err != nil {
		return err
	}
	warm, err := p.sample(3, func() (time.Duration, error) {
		t0 := time.Now()
		cs, err := first()
		d := time.Since(t0)
		if err == nil && cs.DiskHits != 1 {
			err = fmt.Errorf("warm start did not hit the disk tier: %+v", cs)
		}
		return d, err
	})
	if err != nil {
		return err
	}
	p.out.setMedian("collective.store.warm_start_us", warm, 1)
	return nil
}

// async measures both schedulers on an otherwise idle engine: how long a
// submission takes to return, submit → Wait, and what that adds to the
// synchronous Run of the same plan taken in the same iteration.
func (p *prober) async() error {
	s := p.fx.subject
	eng, run, err := p.subjectEngine()
	if err != nil {
		return err
	}
	eng.SetPlanCache(p.fx.cache)
	eng.ConfigureAsync(2, 0)
	eng.ConfigureQoS(benchQoS())
	tn := eng.NewTenant(collective.TenantConfig{Name: "probe", Class: collective.LatencyCritical})
	op := s.op
	paths := []struct {
		name   string
		submit func() *collective.Handle
	}{
		{"collective.stream", func() *collective.Handle {
			return eng.RunAsync(collective.Blink, op.op, op.root, op.bytes, collective.Options{}, -1)
		}},
		{"collective.lanes", func() *collective.Handle {
			h, _ := eng.RunAsyncTenant(tn, collective.Blink, op.op, op.root, op.bytes, collective.Options{})
			return h
		}},
	}
	for _, path := range paths {
		var submit, overhead []time.Duration
		round, err := p.sample(20, func() (time.Duration, error) {
			t0 := time.Now()
			h := path.submit()
			t1 := time.Now()
			res, err := h.Wait()
			t2 := time.Now()
			if err == nil && res.Seconds != op.want {
				err = fmt.Errorf("%s: simulated seconds %v, want %v", path.name, res.Seconds, op.want)
			}
			if err != nil {
				return 0, err
			}
			_, err = run(eng)
			sync := time.Since(t2)
			submit = append(submit, t1.Sub(t0))
			overhead = append(overhead, t2.Sub(t0)-sync)
			return t2.Sub(t0), err
		})
		if err != nil {
			return err
		}
		p.out.setMedian(path.name+".submit_us", durMicros(submit), 1)
		p.out.setMedian(path.name+".roundtrip_us", round, 1)
		p.out.setMedian(path.name+".overhead_us", durMicros(overhead), 1)
	}

	// The public tenant entry point, on an idle communicator.
	comm, err := blink.NewComm(op.machine, op.devs, blink.WithQoS(benchQoS()), blink.WithPlanCache(p.fx.cache))
	if err != nil {
		return err
	}
	view, err := blink.NewTenant(comm, blink.TenantOptions{Name: "probe", Class: blink.ClassLatencyCritical})
	if err != nil {
		return err
	}
	sub, err := p.sample(20, func() (time.Duration, error) {
		t0 := time.Now()
		h := view.AllReduceAsync(op.bytes)
		d := time.Since(t0)
		_, err := h.Wait()
		return d, err
	})
	if err != nil {
		return err
	}
	p.out.setMedian("blink.tenant.submit_us", sub, 1)
	return nil
}

// tenantSteps runs a few bursts of the 300-tenant rig with a watcher on each
// latency-critical op.
func (p *prober) tenantSteps() error {
	p.steps = newRecorder()
	rig := p.fx.rig
	_, err := p.sample(3, func() (time.Duration, error) {
		t0 := time.Now()
		rig.laneStep(p.steps, true)
		rig.streamStep(p.steps)
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	p.rec.attempted += p.steps.attempted
	p.rec.failed += p.steps.failed
	p.rec.notes = append(p.rec.notes, p.steps.notes...)
	waits := durMicros(p.steps.lcWait)
	p.out.set("collective.lanes.lc_wait_ms_p50", percentile(waits, 50)/1e3, len(waits))
	p.out.set("collective.lanes.lc_wait_ms_p99", percentile(waits, 99)/1e3, len(waits))
	admit, deferred, reject, _, _ := rig.verdicts()
	p.out.set("collective.lanes.admit", float64(admit), 0)
	p.out.set("collective.lanes.defer", float64(deferred), 0)
	p.out.set("collective.lanes.reject", float64(reject), 0)
	if deferred != 0 || reject != 0 {
		p.rec.fail("tenant rig: %d deferred, %d rejected", deferred, reject)
	}
	return nil
}

func (p *prober) cluster() error {
	cl, err := twoServerCluster()
	if err != nil {
		return err
	}
	var warmEng *collective.ClusterEngine
	run := func(e *collective.ClusterEngine) (time.Duration, error) {
		t0 := time.Now()
		_, err := e.Run(collective.Blink, collective.AllReduce, 0, clusterBytes, collective.Options{})
		return time.Since(t0), err
	}
	cold, err := p.sample(3, func() (time.Duration, error) {
		if warmEng, err = collective.NewClusterEngine(cl, simgpu.Config{}); err != nil {
			return 0, err
		}
		return run(warmEng)
	})
	if err != nil {
		return err
	}
	p.out.setMedian("collective.cluster.cold_ms", cold, 1e-3)
	warm, err := p.sample(20, func() (time.Duration, error) { return run(warmEng) })
	if err != nil {
		return err
	}
	p.out.setMedian("collective.cluster.run_us", warm, 1)
	return nil
}

// planner times TreeGen's stages, the fast path, incremental repair and
// CodeGen on the full 8-GPU DGX-1V, and holds the packing to its bound.
func (p *prober) planner() error {
	ind, err := topology.DGX1V().Induce(fullDGX)
	if err != nil {
		return err
	}
	g := ind.GPUGraph()
	pipe := core.NewPlannerPipeline(core.PipelineOptions{Workers: 1})
	var pack *core.Packing
	var enum, min, fill []float64
	if _, err := p.sample(3, func() (time.Duration, error) {
		pk, st, err := pipe.PackRoot(g, 0)
		pack = pk
		enum, min, fill = append(enum, st.Enumerate*1e3), append(min, st.Minimize*1e3), append(fill, st.Fill*1e3)
		return 0, err
	}); err != nil {
		return err
	}
	if err := pack.Validate(g); err != nil {
		p.rec.fail("planner: packing invalid: %v", err)
	}
	if pack.Rate > pack.Bound+1e-9 {
		p.rec.fail("planner: packing rate %v exceeds the Edmonds bound %v", pack.Rate, pack.Bound)
	}
	p.rec.attempted++
	p.out.set("core.pack.enumerate_ms", median(enum), len(enum))
	p.out.set("core.pack.minimize_ms", median(min), len(min))
	p.out.set("core.pack.fill_ms", median(fill), len(fill))
	p.out.set("core.pack.trees", float64(len(pack.Trees)), 0)
	p.out.set("core.pack.rate_over_bound", pack.Rate/pack.Bound, 0)

	approx, err := p.sample(5, func() (time.Duration, error) {
		t0 := time.Now()
		_, err := core.ApproxPack(g, 0)
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	p.out.setMedian("core.approx_pack_us", approx, 1)

	degraded, err := topology.DGX1V().WithoutLink(0, 3)
	if err != nil {
		return err
	}
	dind, err := degraded.Induce(fullDGX)
	if err != nil {
		return err
	}
	repair, err := p.sample(5, func() (time.Duration, error) {
		t0 := time.Now()
		_, err := core.RepairPacking(g, dind.GPUGraph(), core.IdentityVertexMap(g.N), pack, core.RepairOptions{})
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	p.out.setMedian("core.repair_us", repair, 1)

	fabric := simgpu.NewFabric(ind, g, simgpu.Config{})
	const bytes = 25 * mib
	opts := core.PlanOptions{ChunkBytes: (bytes/16 + 3) &^ 3, NoStreamReuse: true}
	codegen, err := p.sample(5, func() (time.Duration, error) {
		t0 := time.Now()
		plan, err := core.BuildAllReducePlan(fabric, pack, bytes, opts)
		if err != nil {
			return 0, err
		}
		plan.Freeze()
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	p.out.setMedian("core.codegen_us", codegen, 1)

	arb, err := p.sample(20, func() (time.Duration, error) {
		t0 := time.Now()
		_, _, err := graph.MinCostArborescence(g, 0, func(e int) float64 { return 1 / g.Edges[e].Cap })
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	p.out.setMedian("graph.arborescence_us", arb, 1)
	return nil
}

func (p *prober) codec() error {
	s := p.fx.subject
	enc, err := p.sample(20, func() (time.Duration, error) {
		t0 := time.Now()
		_, err := core.EncodePlan(s.plan)
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	p.out.setMedian("core.encode_us", enc, 1)
	fabric := s.plan.Fabric()
	dec, err := p.sample(10, func() (time.Duration, error) {
		t0 := time.Now()
		fp, err := core.DecodePlan(s.blob, func(core.FabricSel) *simgpu.Fabric { return fabric })
		d := time.Since(t0)
		if err == nil && fp.NumOps() != s.plan.NumOps() {
			err = fmt.Errorf("decoded plan has %d ops, encoded one had %d", fp.NumOps(), s.plan.NumOps())
		}
		return d, err
	})
	if err != nil {
		return err
	}
	p.out.setMedian("core.decode_us", dec, 1)
	p.out.set("core.plan_blob_bytes", float64(len(s.blob)), 0)
	p.out.set("core.plan_ops", float64(s.plan.NumOps()), 0)
	return nil
}

func (p *prober) topology() error {
	op := p.fx.subject.op
	var ind *topology.Topology
	induce, err := p.sample(20, func() (time.Duration, error) {
		t0 := time.Now()
		var err error
		ind, err = op.machine.Induce(op.devs)
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	p.out.setMedian("topology.induce_us", induce, 1)
	fp, err := p.sample(20, func() (time.Duration, error) {
		t0 := time.Now()
		got := ind.Fingerprint()
		d := time.Since(t0)
		if got != p.fx.subject.key.Fingerprint {
			return d, fmt.Errorf("fingerprint changed between inductions of %v", op.devs)
		}
		return d, nil
	})
	if err != nil {
		return err
	}
	p.out.setMedian("topology.fingerprint_us", fp, 1)
	return nil
}

func (p *prober) obs() error {
	op := p.fx.subject.op
	tl := obs.NewTimeline()
	if err := p.batch("obs.span_ns", 1000, func() {
		rec := tl.Begin("AllReduce", "Blink", -1, op.bytes)
		rec.Dispatch()
		rec.Complete("trees", true, op.want, nil)
	}); err != nil {
		return err
	}
	reg := obs.NewRegistry()
	c, h := reg.Counter("bench_probe_total"), reg.Histogram("bench_probe_seconds", nil)
	if err := p.batch("obs.counter_inc_ns", 100000, c.Inc); err != nil {
		return err
	}
	if err := p.batch("obs.hist_observe_ns", 100000, func() { h.Observe(op.want) }); err != nil {
		return err
	}

	// The same warm call on two communicators, one recording spans,
	// alternating so that drift hits both alike.
	var plain, spans []time.Duration
	comms := [2]*blink.Comm{}
	for i := range comms {
		comm, err := blink.NewComm(op.machine, op.devs, blink.WithPlanCache(p.fx.cache))
		if err != nil {
			return err
		}
		comms[i] = comm
	}
	comms[1].EnableTimeline()
	calls := [2]func() (float64, error){publicCall(comms[0], op), publicCall(comms[1], op)}
	if _, err := p.sample(50, func() (time.Duration, error) {
		for i, call := range calls {
			t0 := time.Now()
			if _, err := call(); err != nil {
				return 0, err
			}
			if d := time.Since(t0); i == 0 {
				plain = append(plain, d)
			} else {
				spans = append(spans, d)
			}
		}
		return 0, nil
	}); err != nil {
		return err
	}
	base := percentile(durMicros(plain), 50)
	p.out.set("obs.timeline_overhead_frac", (percentile(durMicros(spans), 50)-base)/base, len(plain))
	return nil
}

func (p *prober) dnn() error {
	eng, err := collective.NewEngine(topology.DGX1V(), fullDGX, simgpu.Config{})
	if err != nil {
		return err
	}
	model := dnn.ResNet50()
	if _, err := dnn.TrainStep(eng, collective.Blink, model, 25*mib); err != nil {
		return err
	}
	step, err := p.sample(10, func() (time.Duration, error) {
		t0 := time.Now()
		g, err := dnn.TrainStep(eng, collective.Blink, model, 25*mib)
		d := time.Since(t0)
		if err == nil && g.CacheMisses != 0 {
			err = fmt.Errorf("warm train step compiled %d plans", g.CacheMisses)
		}
		return d, err
	})
	if err != nil {
		return err
	}
	p.out.setMedian("dnn.train_step_us", step, 1)
	it, err := dnn.SimulateIteration(dnn.Bucketed(model, 25*mib), topology.GenV100, len(fullDGX), dnn.EngineComm(eng, collective.Blink))
	if err != nil {
		return err
	}
	p.out.set("dnn.sim_images_per_s", it.ImagesPerSec, 0)
	return nil
}

// plansvc times one plan fetch from an in-process planning server over a
// loopback TCP connection (the client keeps the connection alive).
func (p *prober) plansvc() error {
	s := p.fx.subject
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("plansvc probe needs a loopback listener: %w", err)
	}
	srv := &http.Server{Handler: plansvc.NewServer(nil, 0).Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) // returns once Close is called
	}()
	defer func() {
		srv.Close()
		<-done
	}()
	req := collective.PlanRequest{
		Machine: map[string]string{"DGX-1V": "dgx1v", "DGX-1P": "dgx1p"}[s.op.machine.Name],
		Devs:    s.op.devs, Config: s.key.Config, Fingerprint: s.key.Fingerprint,
		Backend: collective.Blink, Op: s.op.op, Root: s.op.root, Bytes: s.op.bytes, ChunkBytes: s.key.ChunkBytes,
	}
	client := plansvc.NewClient(ln.Addr().String())
	if _, err := client.FetchPlan(req); err != nil { // the server compiles once
		return err
	}
	rt, err := p.sample(20, func() (time.Duration, error) {
		t0 := time.Now()
		blob, err := client.FetchPlan(req)
		d := time.Since(t0)
		if err == nil && len(blob) != len(s.blob) {
			err = fmt.Errorf("plan service returned %d bytes, local plan encodes to %d", len(blob), len(s.blob))
		}
		return d, err
	})
	if err != nil {
		return err
	}
	p.out.setMedian("plansvc.roundtrip_us", rt, 1)
	return nil
}

// memory counts what the runtime allocates for one timing replay and how
// many bytes a data-mode run's Exec closures add to the arena.
func (p *prober) memory() error {
	s := p.fx.subject
	const n = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		if _, err := s.plan.Replay(); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	p.out.set("core.replay_allocs", float64(m1.Mallocs-m0.Mallocs)/n, n)

	dh := p.fx.data[0]
	allocated := func(ops []*simgpu.Op, arena *simgpu.BufferSet) (uint64, error) {
		runtime.ReadMemStats(&m0)
		_, err := simgpu.Run(dh.links, ops, arena)
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc, err
	}
	withExec, err := allocated(dh.ops, dh.op.stage())
	if err != nil {
		return err
	}
	without, err := allocated(dh.refOps, nil)
	if err != nil {
		return err
	}
	p.out.set("simgpu.arena_kb", (float64(withExec)-float64(without))/1024, 1)
	return nil
}
