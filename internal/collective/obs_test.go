package collective

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"blink/internal/simgpu"
	"blink/internal/topology"
	"blink/internal/trace"
)

// TestExchangeOpsObservability drives the three point-to-point collectives
// through RunAsync from concurrent callers and checks the observability
// layer end to end: every dispatch lands a completed span, the span set
// converts to a non-empty swimlane trace, and the plan-cache counters
// attribute every lookup exactly (hits + misses == lookups, with
// compiles/replays mirroring the split) even under contention.
func TestExchangeOpsObservability(t *testing.T) {
	eng := newTestEngine(t)
	tl := eng.EnableTimeline()
	chain := []int{0, 1, 2, 3, 4, 5, 6, 7}
	neighbors := make([][]int, 8)
	for v := range neighbors {
		neighbors[v] = []int{(v + 1) % 8, (v + 7) % 8}
	}
	cases := []struct {
		op   Op
		opts Options
	}{
		{AllToAll, Options{}},
		{SendRecv, Options{Chain: chain}},
		{NeighborExchange, Options{Neighbors: neighbors}},
	}

	const callers, rounds = 4, 2
	var wg sync.WaitGroup
	errs := make(chan error, callers*rounds*len(cases))
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, tc := range cases {
					h := eng.RunAsync(Blink, tc.op, 0, 8<<20, tc.opts, -1)
					if _, err := h.Wait(); err != nil {
						errs <- err
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	total := callers * rounds * len(cases)
	spans := tl.Spans()
	if len(spans) != total {
		t.Fatalf("timeline recorded %d spans, want %d", len(spans), total)
	}
	seen := map[string]int{}
	for _, s := range spans {
		seen[s.Name]++
		if s.Err != "" {
			t.Fatalf("span %s failed: %s", s.Name, s.Err)
		}
		if s.Stream < 0 {
			t.Fatalf("async span %s kept placeholder stream %d", s.Name, s.Stream)
		}
		if s.SimSeconds <= 0 || s.Chunks == 0 {
			t.Fatalf("span %s missing simulation outcome: %+v", s.Name, s)
		}
		if s.CompletedAt < s.DispatchedAt || s.DispatchedAt < s.QueuedAt {
			t.Fatalf("span %s milestones out of order: %+v", s.Name, s)
		}
	}
	for _, tc := range cases {
		if seen[tc.op.String()] != callers*rounds {
			t.Fatalf("op %v recorded %d spans, want %d", tc.op, seen[tc.op.String()], callers*rounds)
		}
	}

	// The span set must render as a non-empty swimlane trace: one complete
	// event per span (plus queue events where ops waited), every lane a
	// worker stream.
	f := trace.FromSpans(spans)
	if len(f.TraceEvents) < total {
		t.Fatalf("swimlane trace has %d events for %d spans", len(f.TraceEvents), total)
	}
	var sb strings.Builder
	if err := f.Write(&sb); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		if !strings.Contains(sb.String(), `"name": "`+tc.op.String()+`"`) {
			t.Fatalf("swimlane trace missing %v events", tc.op)
		}
	}

	// Exact attribution: every lookup is either a hit or a miss, every miss
	// compiled, every hit replayed — no dispatch lost or double-counted
	// under concurrent callers.
	snap := eng.Metrics().Snapshot()
	lookups := snap.Counters["blink_plan_cache_lookups_total"]
	hits := snap.Counters["blink_plan_cache_hits_total"]
	misses := snap.Counters["blink_plan_cache_misses_total"]
	if lookups != uint64(total) {
		t.Fatalf("lookups = %d, want %d (one per dispatch)", lookups, total)
	}
	if hits+misses != lookups {
		t.Fatalf("hits %d + misses %d != lookups %d", hits, misses, lookups)
	}
	if got := snap.Counters["blink_plan_compiles_total"]; got != misses {
		t.Fatalf("compiles %d != misses %d", got, misses)
	}
	if got := snap.Counters["blink_plan_replays_total"]; got != hits {
		t.Fatalf("replays %d != hits %d", got, hits)
	}
	// Three distinct plans serve all the traffic, so hits dominate.
	if misses < uint64(len(cases)) || hits == 0 {
		t.Fatalf("implausible split: hits %d misses %d", hits, misses)
	}
	// Per-op makespan histograms observed every dispatch.
	var observed uint64
	for _, tc := range cases {
		h := snap.Histograms[`blink_op_sim_seconds{op="`+tc.op.String()+`"}`]
		if h.Count != uint64(callers*rounds) {
			t.Fatalf("op histogram for %v has %d observations, want %d",
				tc.op, h.Count, callers*rounds)
		}
		observed += h.Count
	}
	if observed != uint64(total) {
		t.Fatalf("histograms observed %d dispatches, want %d", observed, total)
	}
}

// TestSyncDispatchSpans checks synchronous Run calls record spans too, with
// the sentinel stream -1 (they never enter the stream scheduler).
func TestSyncDispatchSpans(t *testing.T) {
	eng := newTestEngine(t)
	tl := eng.EnableTimeline()
	mustRun(t, eng, Blink, AllReduce, 4<<20, Options{})
	spans := tl.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	if spans[0].Stream != -1 {
		t.Fatalf("sync span stream = %d, want -1", spans[0].Stream)
	}
	if spans[0].CacheHit {
		t.Fatal("cold dispatch recorded as cache hit")
	}
	mustRun(t, eng, Blink, AllReduce, 4<<20, Options{})
	if spans = tl.Spans(); !spans[1].CacheHit {
		t.Fatal("warm dispatch not recorded as cache hit")
	}
}

// TestReplanMetrics checks a reconfiguration lands on the replan counter
// and latency histogram, and invalidation is attributed on the cache.
func TestReplanMetrics(t *testing.T) {
	eng := newTestEngine(t)
	mustRun(t, eng, Blink, AllReduce, 4<<20, Options{})
	if err := eng.ReconfigureExclude([]int{7}); err != nil {
		t.Fatal(err)
	}
	snap := eng.Metrics().Snapshot()
	if got := snap.Counters["blink_replans_total"]; got != 1 {
		t.Fatalf("replans = %d, want 1", got)
	}
	if h := snap.Histograms["blink_replan_seconds"]; h.Count != 1 {
		t.Fatalf("replan latency observations = %d, want 1", h.Count)
	}
	if got := snap.Counters["blink_plan_cache_invalidated_total"]; got == 0 {
		t.Fatal("reconfigure invalidated no cached plans")
	}
}

// TestAsyncTimelineHashPinned pins the timeline hash of a fixed sequential
// script of async and tenant timing dispatches on a DGX-1V and on a 3+5
// cluster: cold and warm calls, both backends, pinned and round-robin
// streams, two lanes and a refused request. The hash covers every
// simulation-determined span field (stream, cache hit, makespan, chunk
// count, error), none of which may move when only the host side of a
// dispatch changes, so the literals are never regenerated for such a change.
func TestAsyncTimelineHashPinned(t *testing.T) {
	const (
		wantMachine = "d3259d756e12175dd2400aaa0dec1585896862fdc4b25ba0d473d88e8cceb316"
		wantCluster = "16b7659c21975ea2aa5d3dd98e662cc6da65c0a2633d37c3ffff938948c84fb8"
	)
	ceng, err := NewClusterEngine(testCluster(t, []int{3, 5}, 100), simgpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		eng  *Engine
		want string
	}{{"machine", newTestEngine(t), wantMachine}, {"cluster", ceng, wantCluster}} {
		tl := c.eng.EnableTimeline()
		lc := c.eng.NewTenant(TenantConfig{Name: "lc", Class: LatencyCritical})
		tel := c.eng.NewTenant(TenantConfig{Name: "tel", Class: Telemetry})
		wait := func(h *Handle) { h.Wait() }
		tenant := func(h *Handle, _ Verdict) { h.Wait() }
		for round := 0; round < 2; round++ {
			for i, bytes := range []int64{1 << 20, 4 << 20, 32 << 20} {
				wait(c.eng.RunAsync(Blink, AllReduce, 0, bytes, Options{}, i-1))
				wait(c.eng.RunAsync(NCCL, AllReduce, 0, bytes, Options{}, i))
				tenant(c.eng.RunAsyncTenant(lc, Blink, AllReduce, 0, bytes, Options{}))
				tenant(c.eng.RunAsyncTenant(tel, Blink, Broadcast, 2, bytes, Options{}))
			}
			wait(c.eng.RunAsync(Blink, AllReduce, 0, 2, Options{}, 0))
		}
		if got := tl.Hash(); got != c.want {
			t.Errorf("%s: timeline hash %s over %d spans, want %s", c.name, got, tl.Len(), c.want)
		}
	}
}

// TestTimingProgressReportedOnce: an async timing replay reports its
// progress once, complete — the handle's final progress and the span's
// chunk count are the schedule's op count, and the span carries the single
// "chunks 4/4" event — while a data replay still reports chunk by chunk and
// marks every quarter.
func TestTimingProgressReportedOnce(t *testing.T) {
	for _, data := range []bool{false, true} {
		eng := mustEngine(t, topology.DGX1V(), []int{0, 1, 2, 3, 4, 5, 6, 7}, simgpu.Config{DataMode: data})
		tl := eng.EnableTimeline()
		h := eng.RunAsync(Blink, AllReduce, 0, 1<<20, Options{DataMode: data}, -1)
		if _, err := h.Wait(); err != nil {
			t.Fatal(err)
		}
		done, total := h.Progress()
		sp := tl.Spans()[0]
		wantEvents := []string{"chunks 4/4"}
		if data {
			wantEvents = []string{"chunks 1/4", "chunks 2/4", "chunks 3/4", "chunks 4/4"}
		}
		var events []string
		for _, ev := range sp.Events {
			events = append(events, ev.Name)
		}
		last := sp.Events[len(sp.Events)-1]
		if done != total || int(total) != sp.Chunks || sp.Chunks == 0 || last.Done != sp.Chunks || last.Total != sp.Chunks ||
			!reflect.DeepEqual(events, wantEvents) {
			t.Fatalf("data %v: progress %d/%d, span of %d chunks with events %v (last %+v), want %v",
				data, done, total, sp.Chunks, events, last, wantEvents)
		}
	}
}
