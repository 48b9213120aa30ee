package collective

import (
	"fmt"
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
	cold, err := e.Run(Blink, AllReduce, 0, 100<<20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := e.CacheStats()
	if st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("after cold run: %+v, want 1 miss / 0 hits", st)
	}
	warm, err := e.Run(Blink, AllReduce, 0, 100<<20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st = e.CacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("after warm run: %+v, want 1 hit / 1 miss", st)
	}
	// Replay is deterministic: identical simulated timing and strategy.
	if warm.Seconds != cold.Seconds || warm.Strategy != cold.Strategy {
		t.Fatalf("warm replay diverged: cold=%+v warm=%+v", cold, warm)
	}
	// A different size is a different schedule.
	if _, err := e.Run(Blink, AllReduce, 0, 64<<20, Options{}); err != nil {
		t.Fatal(err)
	}
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
	if _, err := e.Run(Blink, AllReduce, 0, 100<<20, Options{}); err != nil {
		t.Fatal(err)
	}
	cold := time.Since(start)
	warm := time.Duration(1 << 62)
	for i := 0; i < 3; i++ { // best-of-3 absorbs scheduler noise
		start = time.Now()
		if _, err := e.Run(Blink, AllReduce, 0, 100<<20, Options{}); err != nil {
			t.Fatal(err)
		}
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
	want, err := e.Run(Blink, AllReduce, 0, 50<<20, Options{})
	if err != nil {
		t.Fatal(err)
	}
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

func TestSharedPlanCacheAcrossEngines(t *testing.T) {
	shared := NewPlanCache(DefaultPlanCacheCapacity)
	e1 := newEng(t, []int{0, 1, 2, 3, 4, 5, 6, 7})
	e1.SetPlanCache(shared)
	e2 := newEng(t, []int{0, 1, 2, 3, 4, 5, 6, 7})
	e2.SetPlanCache(shared)
	if _, err := e1.Run(Blink, AllReduce, 0, 32<<20, Options{}); err != nil {
		t.Fatal(err)
	}
	// Same machine, same allocation -> same fingerprint -> e2 hits.
	if _, err := e2.Run(Blink, AllReduce, 0, 32<<20, Options{}); err != nil {
		t.Fatal(err)
	}
	st := shared.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("shared cache stats = %+v, want 1 hit / 1 miss", st)
	}
	// Different allocation -> different fingerprint -> no false hit.
	e3 := newEng(t, []int{0, 1, 2, 3})
	e3.SetPlanCache(shared)
	if _, err := e3.Run(Blink, AllReduce, 0, 32<<20, Options{}); err != nil {
		t.Fatal(err)
	}
	if st = shared.Stats(); st.Misses != 2 {
		t.Fatalf("different allocation must miss: %+v", st)
	}
}

func TestSharedCacheRespectsConfig(t *testing.T) {
	// Plans bake the timing model into every op, so two engines sharing a
	// cache but differing in simgpu.Config must never satisfy each other.
	shared := NewPlanCache(DefaultPlanCacheCapacity)
	fast := newEng(t, []int{0, 1, 2, 3})
	fast.SetPlanCache(shared)
	slow := mustEngine(t, topology.DGX1V(), []int{0, 1, 2, 3}, simgpu.Config{OpOverhead: 1.0})
	slow.SetPlanCache(shared)
	rf, err := fast.Run(Blink, AllReduce, 0, 1<<20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := slow.Run(Blink, AllReduce, 0, 1<<20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := shared.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("config change must miss: %+v", st)
	}
	if rs.Seconds <= rf.Seconds {
		t.Fatalf("1s-overhead engine reported %.6fs <= default %.6fs (cached plan leaked across configs)", rs.Seconds, rf.Seconds)
	}
	// Zero config and the explicit defaults normalize identically: share.
	def := mustEngine(t, topology.DGX1V(), []int{0, 1, 2, 3}, simgpu.DefaultConfig())
	def.SetPlanCache(shared)
	if _, err := def.Run(Blink, AllReduce, 0, 1<<20, Options{}); err != nil {
		t.Fatal(err)
	}
	if st := shared.Stats(); st.Hits != 1 {
		t.Fatalf("DefaultConfig should hit the zero-config plan: %+v", st)
	}
}

func TestSharedCacheDataModeIsolation(t *testing.T) {
	// Data-mode plans carry Exec closures bound to the compiling engine's
	// fabric; a second engine sharing the cache must compile its own and
	// still produce correct sums on its own fabric.
	shared := NewPlanCache(DefaultPlanCacheCapacity)
	mk := func() *Engine {
		e := mustEngine(t, topology.DGX1V(), []int{0, 1, 2, 3}, simgpu.Config{DataMode: true})
		e.SetPlanCache(shared)
		return e
	}
	const n = 256
	run := func(e *Engine) []float32 {
		bufs := simgpu.NewBufferSet()
		for v := 0; v < 4; v++ {
			in := make([]float32, n)
			for i := range in {
				in[i] = float32(v + 1)
			}
			bufs.SetBuffer(v, 0 /* core.BufData */, in)
		}
		if _, err := e.Run(Blink, AllReduce, 0, n*4, Options{DataMode: true, Buffers: bufs}); err != nil {
			t.Fatal(err)
		}
		return append([]float32(nil), bufs.Buffer(0, 1 /* core.BufAcc */, n)...)
	}
	for i, e := range []*Engine{mk(), mk()} {
		out := run(e)
		for j := range out {
			if out[j] != 10 {
				t.Fatalf("engine %d sum[%d] = %v, want 10 (cross-engine data-mode plan leak)", i, j, out[j])
			}
		}
	}
	if st := shared.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("data-mode plans must be engine-private: %+v", st)
	}
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
		if _, err := e.Run(Blink, AllReduce, 0, n*4, Options{DataMode: true, Buffers: bufs}); err != nil {
			t.Fatal(err)
		}
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
