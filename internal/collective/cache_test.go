package collective

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"blink/internal/core"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

func TestPlanCacheLRU(t *testing.T) {
	c := NewPlanCache(2)
	k := func(i int) PlanKey { return PlanKey{Fingerprint: "f", Bytes: int64(i)} }
	v := &CachedPlan{Strategy: "x"}
	c.Put(k(1), v)
	c.Put(k(2), v)
	if _, ok := c.Get(k(1)); !ok {
		t.Fatal("key 1 evicted prematurely")
	}
	c.Put(k(3), v) // evicts key 2 (key 1 was just used)
	if _, ok := c.Get(k(2)); ok {
		t.Fatal("key 2 should have been evicted (LRU)")
	}
	if _, ok := c.Get(k(1)); !ok {
		t.Fatal("key 1 should survive")
	}
	if _, ok := c.Get(k(3)); !ok {
		t.Fatal("key 3 should be resident")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries / 1 eviction", st)
	}
}

func TestPlanCacheZeroCapacity(t *testing.T) {
	c := NewPlanCache(0)
	c.Put(PlanKey{Bytes: 1}, &CachedPlan{})
	if _, ok := c.Get(PlanKey{Bytes: 1}); ok {
		t.Fatal("zero-capacity cache stored an entry")
	}
	if st := c.Stats(); st.Misses != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRunHitsPlanCache(t *testing.T) {
	e := newEng(t, []int{0, 1, 2, 3, 4, 5, 6, 7})
	cold := mustRun(t, e, Blink, AllReduce, 100<<20, Options{})
	st := e.CacheStats()
	if st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("after cold run: %+v, want 1 miss / 0 hits", st)
	}
	warm := mustRun(t, e, Blink, AllReduce, 100<<20, Options{})
	st = e.CacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("after warm run: %+v, want 1 hit / 1 miss", st)
	}
	// Replay is deterministic: identical simulated timing and strategy.
	if warm.Seconds != cold.Seconds || warm.Strategy != cold.Strategy {
		t.Fatalf("warm replay diverged: cold=%+v warm=%+v", cold, warm)
	}
	// A different size is a different schedule.
	mustRun(t, e, Blink, AllReduce, 64<<20, Options{})
	if st = e.CacheStats(); st.Misses != 2 {
		t.Fatalf("distinct size should miss: %+v", st)
	}
}

func TestWarmDispatchFasterThanCold(t *testing.T) {
	// The acceptance bar for the cache: a warm AllReduce dispatch must not
	// re-run TreeGen/minimize/CodeGen, so its wall time sits far below the
	// cold compile. Compilation for a full 8-GPU packing costs tens of
	// milliseconds (ILP minimization); replay costs well under one.
	e := newEng(t, []int{0, 1, 2, 3, 4, 5, 6, 7})
	start := time.Now()
	mustRun(t, e, Blink, AllReduce, 100<<20, Options{})
	cold := time.Since(start)
	warm := time.Duration(1 << 62)
	for i := 0; i < 3; i++ { // best-of-3 absorbs scheduler noise
		start = time.Now()
		mustRun(t, e, Blink, AllReduce, 100<<20, Options{})
		if d := time.Since(start); d < warm {
			warm = d
		}
	}
	if warm >= cold {
		t.Fatalf("warm dispatch %v not below cold %v", warm, cold)
	}
}

func TestConcurrentRunsOneEngine(t *testing.T) {
	// >= 8 concurrent collectives (mixed backends, ops and sizes) through
	// one engine; run under -race this is the concurrency-safety gate.
	e := newEng(t, []int{0, 1, 2, 3, 4, 5, 6, 7})
	type call struct {
		b     Backend
		op    Op
		bytes int64
	}
	calls := []call{
		{Blink, AllReduce, 100 << 20},
		{Blink, AllReduce, 100 << 20},
		{Blink, Broadcast, 64 << 20},
		{Blink, Gather, 32 << 20},
		{NCCL, AllReduce, 100 << 20},
		{NCCL, Broadcast, 64 << 20},
		{Blink, ReduceScatter, 16 << 20},
		{NCCL, AllReduce, 8 << 20},
		{Blink, AllReduce, 8 << 20},
		{Blink, Scatter, 64 << 20},
	}
	const rounds = 4
	errs := make(chan error, len(calls)*rounds)
	// Rounds are barriers: round 1's concurrent cold calls populate the
	// cache (identical concurrent misses may each compile — harmless),
	// every later round is all-warm replay.
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for _, c := range calls {
			wg.Add(1)
			go func(c call) {
				defer wg.Done()
				res, err := e.Run(c.b, c.op, 0, c.bytes, Options{})
				if err != nil {
					errs <- fmt.Errorf("%v %v: %w", c.b, c.op, err)
					return
				}
				if res.Seconds <= 0 {
					errs <- fmt.Errorf("%v %v: no time elapsed", c.b, c.op)
				}
			}(c)
		}
		wg.Wait()
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := e.CacheStats()
	if st.Hits+st.Misses != uint64(len(calls)*rounds) {
		t.Fatalf("dispatch count %d != %d", st.Hits+st.Misses, len(calls)*rounds)
	}
	if st.Hits < uint64(len(calls)*(rounds-1)) {
		t.Fatalf("rounds 2..%d must be all-warm: %+v", rounds, st)
	}
	if st.Misses > uint64(len(calls)) {
		t.Fatalf("more misses than round-1 calls: %+v", st)
	}
}

func TestConcurrentRunsDeterministic(t *testing.T) {
	// Concurrency must not perturb simulated timings: every concurrent
	// replay of one schedule reports the sequential result.
	e := newEng(t, []int{1, 4, 5, 6})
	want := mustRun(t, e, Blink, AllReduce, 50<<20, Options{})
	var wg sync.WaitGroup
	results := make([]Result, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := e.Run(Blink, AllReduce, 0, 50<<20, Options{})
			if err == nil {
				results[i] = r
			}
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r.Seconds != want.Seconds {
			t.Fatalf("replay %d: %.9f != %.9f", i, r.Seconds, want.Seconds)
		}
	}
}

// planKeyOf is the full PlanKey the engine's current state files rq under.
func planKeyOf(e *Engine, rq *request) PlanKey {
	st := e.st.Load()
	mk, shape := e.memKey(st, rq)
	return st.scope.full(mk, shape)
}

// TestPlanKeySemantics is the plan key's contract, one cell per rule. The
// memory tier files a plan under a compact key (memKey) that carries the
// fingerprint, timing model and shape as hashes; every cell holds an
// engine's lookup and the exported PlanKey to the same entries.
func TestPlanKeySemantics(t *testing.T) {
	devs := []int{0, 1, 2, 3}
	// engines builds one engine per config over one shared cache.
	engines := func(cfgs ...simgpu.Config) (*PlanCache, []*Engine) {
		c := NewPlanCache(DefaultPlanCacheCapacity)
		var es []*Engine
		for _, cfg := range cfgs {
			es = append(es, mustEngine(t, topology.DGX1V(), devs, cfg))
			es[len(es)-1].SetPlanCache(c)
		}
		return c, es
	}
	// stats fails the cell unless the cache counted hits and misses.
	stats := func(t *testing.T, c *PlanCache, hits, misses uint64) {
		t.Helper()
		if st := c.Stats(); st.Hits != hits || st.Misses != misses {
			t.Fatalf("%d hits / %d misses, want %d / %d", st.Hits, st.Misses, hits, misses)
		}
	}
	// runs dispatches a 1 MB AllReduce on each engine in turn.
	runs := func(t *testing.T, es ...*Engine) (out []Result) {
		for _, e := range es {
			out = append(out, mustRun(t, e, Blink, AllReduce, 1<<20, Options{}))
		}
		return out
	}
	t.Run("equal fingerprint and config share timing plans", func(t *testing.T) {
		// The zero config and the explicit defaults normalize identically.
		c, es := engines(simgpu.Config{}, simgpu.DefaultConfig())
		runs(t, es...)
		stats(t, c, 1, 1)
		other := mustEngine(t, topology.DGX1V(), []int{0, 1, 2, 3, 4, 5, 6, 7}, simgpu.Config{})
		other.SetPlanCache(c)
		runs(t, other)
		stats(t, c, 1, 2)
		// A memory-tier hit through the engine's lookup allocates nothing.
		st, rq := es[0].st.Load(), &request{b: Blink, op: AllReduce, bytes: 1 << 20}
		if n := testing.AllocsPerRun(100, func() { es[0].lookupOrCompile(st, rq) }); n != 0 {
			t.Fatalf("a memory-tier hit allocates %v times", n)
		}
	})
	t.Run("a different config never hits", func(t *testing.T) {
		c, es := engines(simgpu.Config{}, simgpu.Config{OpOverhead: 1.0})
		runs(t, es...)
		stats(t, c, 0, 2)
		// Each keeps its own plan: a second round hits both.
		if r := runs(t, es...); r[1].Seconds <= r[0].Seconds {
			t.Fatalf("1s-overhead engine reported %.6fs <= default %.6fs (cached plan leaked across configs)", r[1].Seconds, r[0].Seconds)
		}
		stats(t, c, 2, 2)
	})
	t.Run("data-mode plans stay pinned by EngineID", func(t *testing.T) {
		// Their Exec closures are bound to the compiling engine's fabric: a
		// second engine compiles its own and still sums right on its own.
		c, es := engines(simgpu.Config{DataMode: true}, simgpu.Config{DataMode: true})
		for round, hits := range []uint64{0, 2} {
			for i, e := range es {
				bufs := simgpu.NewBufferSet()
				for v := range devs {
					in := make([]float32, 256)
					for j := range in {
						in[j] = float32(v + 1)
					}
					bufs.SetBuffer(v, core.BufData, in)
				}
				mustRun(t, e, Blink, AllReduce, 1024, Options{DataMode: true, Buffers: bufs})
				if sum := bufs.Buffer(0, core.BufAcc, 256); slices.ContainsFunc(sum, func(x float32) bool { return x != 10 }) {
					t.Fatalf("round %d engine %d sums %v, want 10s (cross-engine data-mode plan leak)", round, i, sum)
				}
			}
			stats(t, c, hits, 2)
		}
	})
	t.Run("distinct SendRecv and NeighborExchange shapes never collide", func(t *testing.T) {
		c, es := engines(simgpu.Config{})
		shapes := []Options{{Chain: []int{0, 1, 2}}, {Chain: []int{0, 2, 1}}, {Chain: []int{2, 1, 0}},
			{Neighbors: [][]int{{1}, {2}, {3}, {0}}}, {Neighbors: [][]int{{3}, {0}, {1}, {2}}}}
		op := func(o Options) Op { return map[bool]Op{true: SendRecv, false: NeighborExchange}[o.Chain != nil] }
		for _, hits := range []uint64{0, 5} {
			for _, o := range shapes {
				mustRun(t, es[0], Blink, op(o), 1<<20, o)
			}
			stats(t, c, hits, 5)
		}
		for _, o := range shapes {
			cp, ok := c.Get(planKeyOf(es[0], &request{b: Blink, op: op(o), bytes: 1 << 20, opts: o}))
			if !ok || fmt.Sprint(cp.Plan.IR().Chain, cp.Plan.IR().Neighbors) != fmt.Sprint(o.Chain, o.Neighbors) {
				t.Fatalf("%v %v: cached plan %v", o.Chain, o.Neighbors, ok)
			}
		}
	})
	t.Run("a PlanKey of exported fields resolves the engine's entry", func(t *testing.T) {
		// As bench/ builds it: the resolved chunk is read off the plan's IR.
		c, es := engines(simgpu.Config{})
		for _, rq := range []request{{b: Blink, op: AllReduce, bytes: 1 << 20}, {b: Blink, op: Broadcast, root: 2, bytes: 3 << 20, opts: Options{ChunkBytes: 1000}}} {
			blob, _, err := es[0].PlanBlob(rq.b, rq.op, rq.root, rq.bytes, rq.opts)
			hdr, ir, err2 := core.DecodePlanIR(blob)
			cp, hit, err3 := es[0].lookupOrCompile(es[0].st.Load(), &rq)
			if err != nil || err2 != nil || err3 != nil || !hit {
				t.Fatal(err, err2, err3, hit)
			}
			k := PlanKey{Fingerprint: hdr.Fingerprint, Config: hdr.Config, Backend: rq.b, Op: rq.op, Root: rq.root, Bytes: rq.bytes, ChunkBytes: ir.Opts.ChunkBytes}
			if got, ok := c.Get(k); !ok || got != cp || k != planKeyOf(es[0], &rq) {
				t.Fatalf("%v: exported key %+v resolves %v, %v", rq.op, k, got, ok)
			}
		}
	})
	t.Run("Reconfigure drops the old fingerprint's entries", func(t *testing.T) {
		c, es := engines(simgpu.Config{})
		old := planKeyOf(es[0], &request{b: Blink, op: AllReduce, bytes: 1 << 20})
		runs(t, es...)
		degraded, err := topology.DGX1V().WithoutLink(0, 3)
		if err == nil {
			err = es[0].Reconfigure(degraded, nil)
		}
		if _, ok := c.Get(old); ok || c.Len() != 0 || err != nil {
			t.Fatalf("the old fingerprint's plan survived Reconfigure (%d entries, %v)", c.Len(), err)
		}
		runs(t, es[0], es[0])
		stats(t, c, 1, 3) // the Get above missed too
	})
}

func TestRunManyGroupedDispatch(t *testing.T) {
	e := newEng(t, []int{0, 1, 2, 3, 4, 5, 6, 7})
	sizes := []int64{25 << 20, 25 << 20, 25 << 20, 10 << 20}
	g1, err := e.RunMany(Blink, AllReduce, 0, sizes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(g1.Results) != len(sizes) {
		t.Fatalf("%d results for %d tensors", len(g1.Results), len(sizes))
	}
	// Two distinct sizes -> 2 misses; repeats within the group already hit.
	if g1.CacheMisses != 2 || g1.CacheHits != 2 {
		t.Fatalf("first group: hits=%d misses=%d, want 2/2", g1.CacheHits, g1.CacheMisses)
	}
	var sum float64
	var bytes int64
	for _, r := range g1.Results {
		sum += r.Seconds
		bytes += r.Bytes
	}
	if g1.Seconds != sum || g1.Bytes != bytes {
		t.Fatalf("group totals inconsistent: %+v", g1)
	}
	// Steady state: the whole group replays.
	g2, err := e.RunMany(Blink, AllReduce, 0, sizes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g2.CacheMisses != 0 || g2.CacheHits != uint64(len(sizes)) {
		t.Fatalf("warm group: hits=%d misses=%d", g2.CacheHits, g2.CacheMisses)
	}
	if g2.Seconds != g1.Seconds {
		t.Fatalf("warm group time %.9f != cold %.9f", g2.Seconds, g1.Seconds)
	}
	if _, err := e.RunMany(Blink, AllReduce, 0, nil, Options{}); err == nil {
		t.Fatal("empty group accepted")
	}
}

func TestDataModeCachedReplay(t *testing.T) {
	// Data-mode plans are cached too; replaying one with fresh inputs must
	// produce fresh correct results (closures read buffers at exec time).
	e := mustEngine(t, topology.DGX1V(), []int{0, 1, 2, 3}, simgpu.Config{DataMode: true})
	const n = 1024
	run := func(scale float32) []float32 {
		bufs := simgpu.NewBufferSet()
		for v := 0; v < 4; v++ {
			in := make([]float32, n)
			for i := range in {
				in[i] = scale * float32(v+1)
			}
			bufs.SetBuffer(v, 0 /* core.BufData */, in)
		}
		mustRun(t, e, Blink, AllReduce, n*4, Options{DataMode: true, Buffers: bufs})
		return append([]float32(nil), bufs.Buffer(0, 1 /* core.BufAcc */, n)...)
	}
	got1 := run(1) // cold compile
	got2 := run(2) // warm replay, doubled inputs
	st := e.CacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("data-mode cache stats = %+v", st)
	}
	for i := range got1 {
		if got1[i] != 10 { // 1+2+3+4
			t.Fatalf("cold sum[%d] = %v, want 10", i, got1[i])
		}
		if got2[i] != 20 {
			t.Fatalf("warm sum[%d] = %v, want 20", i, got2[i])
		}
	}
}

// TestSharedCacheFairShareCountsEveryEngine: a cache shared by two engines
// divides its memory tier among the tenants of both. Three tenants on one
// engine and a fourth on the other leave each a share of one plan in a
// four-plan cache, so a tenant of the first engine compiling two shapes
// evicts its own first plan.
func TestSharedCacheFairShareCountsEveryEngine(t *testing.T) {
	shared := NewPlanCache(4)
	var engines [2]*Engine
	for i := range engines {
		e := newEng(t, []int{0, 1, 2, 3})
		e.SetPlanCache(shared)
		engines[i] = e
	}
	tn := engines[0].NewTenant(TenantConfig{Name: "a0"})
	engines[0].NewTenant(TenantConfig{Name: "a1"})
	engines[0].NewTenant(TenantConfig{Name: "a2"})
	engines[1].NewTenant(TenantConfig{Name: "b0"})
	for _, bytes := range []int64{1 << 20, 2 << 20} {
		h, _ := engines[0].RunAsyncTenant(tn, Blink, AllReduce, 0, bytes, Options{})
		if _, err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got, fe := shared.OwnerLen(tn.id), shared.FairEvictions(); got != 1 || fe != 1 {
		t.Fatalf("tenant holds %d plans after %d fair evictions, want 1 and 1: the share must count all four tenants", got, fe)
	}
}

// TestCachedPlanOwnsItsShape: a frozen plan's IR is the engine's own. A
// caller that reuses its chain or neighbor slices after a synchronous call
// must not rewrite what the cache holds, or what PlanBlob encodes from it.
func TestCachedPlanOwnsItsShape(t *testing.T) {
	e := newEng(t, []int{0, 1, 2, 3, 4, 5, 6, 7})
	for _, tc := range []struct {
		op   Op
		opts func() Options
	}{
		{SendRecv, func() Options { return Options{Chain: []int{0, 3, 5}} }},
		{NeighborExchange, func() Options { return Options{Neighbors: [][]int{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {0}}} }},
	} {
		opts := tc.opts()
		if _, err := e.Run(Blink, tc.op, 0, 1<<20, opts); err != nil {
			t.Fatal(err)
		}
		for i := range opts.Chain {
			opts.Chain[i] = 7 - i
		}
		for _, row := range opts.Neighbors {
			row[0] = 6
		}
		blob, _, err := e.PlanBlob(Blink, tc.op, 0, 1<<20, tc.opts())
		if err != nil {
			t.Fatal(err)
		}
		_, ir, err := core.DecodePlanIR(blob)
		if err != nil {
			t.Fatal(err)
		}
		want := tc.opts()
		if got := fmt.Sprint(ir.Chain, ir.Neighbors); got != fmt.Sprint(want.Chain, want.Neighbors) {
			t.Fatalf("%v: cached IR holds %s after the caller reused its slices, want %v %v", tc.op, got, want.Chain, want.Neighbors)
		}
	}
}
