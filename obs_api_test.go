package blink_test

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"blink"
)

// TestCommObservability exercises the public observability surface: the
// metrics registry records dispatches, the timeline records spans for sync
// and async calls, and WriteSpanTrace renders the spans as a swimlane
// trace.
func TestCommObservability(t *testing.T) {
	comm, err := blink.NewComm(blink.DGX1V(), []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	tl := comm.EnableTimeline()
	if comm.Timeline() != tl {
		t.Fatal("Timeline() does not return the enabled timeline")
	}
	if _, err := comm.AllReduce(16 << 20); err != nil {
		t.Fatal(err)
	}
	if _, err := comm.AllReduceAsync(16<<20, blink.OnStream(1)).Wait(); err != nil {
		t.Fatal(err)
	}

	spans := tl.Spans()
	if len(spans) != 2 {
		t.Fatalf("timeline recorded %d spans, want 2", len(spans))
	}
	if spans[0].Stream != -1 {
		t.Fatalf("sync span stream = %d, want -1", spans[0].Stream)
	}
	if spans[1].Stream != 1 {
		t.Fatalf("async span stream = %d, want 1", spans[1].Stream)
	}
	if !spans[1].CacheHit {
		t.Fatal("warm async dispatch not attributed as a cache hit")
	}
	if tl.Hash() == "" {
		t.Fatal("timeline hash empty")
	}

	snap := comm.MetricsSnapshot()
	lookups := snap.Counters["blink_plan_cache_lookups_total"]
	hits := snap.Counters["blink_plan_cache_hits_total"]
	misses := snap.Counters["blink_plan_cache_misses_total"]
	if lookups != 2 || hits+misses != lookups {
		t.Fatalf("attribution wrong: lookups %d hits %d misses %d", lookups, hits, misses)
	}
	var prom strings.Builder
	if err := comm.Metrics().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "# TYPE blink_plan_cache_lookups_total counter") {
		t.Fatalf("Prometheus exposition missing cache counters:\n%s", prom.String())
	}

	var tr strings.Builder
	if err := blink.WriteSpanTrace(&tr, spans); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr.String(), `"name": "AllReduce"`) {
		t.Fatalf("span trace missing op events:\n%s", tr.String())
	}
}

// TestMetricSeriesPinned pins the series a communicator exports once it has
// run one sync, one async and one tenant op, and the series of a
// communicator that has run only a tenant op: that one never starts its
// stream scheduler, so no blink_async_* series appears. The lists were
// generated before the stream and lane schedulers became two configurations
// of one scheduler.
func TestMetricSeriesPinned(t *testing.T) {
	common := strings.Fields(`
		counter:blink_admission_total{lane="BulkGradient",verdict="admit"}
		counter:blink_admission_total{lane="BulkGradient",verdict="defer"}
		counter:blink_admission_total{lane="BulkGradient",verdict="reject"}
		counter:blink_admission_total{lane="LatencyCritical",verdict="admit"}
		counter:blink_admission_total{lane="LatencyCritical",verdict="defer"}
		counter:blink_admission_total{lane="LatencyCritical",verdict="reject"}
		counter:blink_admission_total{lane="Telemetry",verdict="admit"}
		counter:blink_admission_total{lane="Telemetry",verdict="defer"}
		counter:blink_admission_total{lane="Telemetry",verdict="reject"}
		counter:blink_lane_aged_dispatch_total
		counter:blink_plan_cache_disk_hits_total
		counter:blink_plan_cache_disk_puts_total
		counter:blink_plan_cache_evictions_total
		counter:blink_plan_cache_fair_evictions_total
		counter:blink_plan_cache_hits_total
		counter:blink_plan_cache_invalidated_total
		counter:blink_plan_cache_lookups_total
		counter:blink_plan_cache_misses_total
		counter:blink_plan_cache_promotions_total
		counter:blink_plan_cache_store_errors_total
		counter:blink_plan_compiles_total
		counter:blink_plan_replays_total
		counter:blink_plan_service_errors_total
		counter:blink_plan_service_hits_total
		counter:blink_repair_fallback_total
		counter:blink_repair_incremental_total
		counter:blink_replans_total
		gauge:blink_lane_queue_depth{lane="BulkGradient"}
		gauge:blink_lane_queue_depth{lane="LatencyCritical"}
		gauge:blink_lane_queue_depth{lane="Telemetry"}
		gauge:blink_plan_cache_entries
		histogram:blink_compile_stage_seconds{stage="codegen"}
		histogram:blink_compile_stage_seconds{stage="enumerate"}
		histogram:blink_compile_stage_seconds{stage="minimize"}
		histogram:blink_op_sim_seconds{op="AllReduce"}
		histogram:blink_op_wait_seconds{class="BulkGradient"}
		histogram:blink_op_wait_seconds{class="LatencyCritical"}
		histogram:blink_op_wait_seconds{class="Telemetry"}
		histogram:blink_replan_seconds`)
	async := strings.Fields(`
		counter:blink_async_admission_waits_total
		counter:blink_async_submissions_total
		gauge:blink_async_inflight_bytes
		gauge:blink_async_queue_depth{stream="0"}
		gauge:blink_async_queue_depth{stream="1"}
		histogram:blink_async_admission_wait_seconds`)
	series := func(s blink.MetricsSnapshot) []string {
		var out []string
		for name := range s.Counters {
			out = append(out, "counter:"+name)
		}
		for name := range s.Gauges {
			out = append(out, "gauge:"+name)
		}
		for name := range s.Histograms {
			out = append(out, "histogram:"+name)
		}
		sort.Strings(out)
		return out
	}
	check := func(name string, comm *blink.Comm, want []string) {
		t.Helper()
		sort.Strings(want)
		if got := series(comm.MetricsSnapshot()); !slices.Equal(got, want) {
			t.Errorf("%s exports\n%s\nwant\n%s", name, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
	tenantOp := func(comm *blink.Comm) {
		t.Helper()
		tn, err := blink.NewTenant(comm, blink.TenantOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tn.AllReduce(1 << 20); err != nil {
			t.Fatal(err)
		}
	}

	comm, err := blink.NewComm(blink.DGX1V(), []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := comm.AllReduce(1 << 20); err != nil {
		t.Fatal(err)
	}
	if _, err := comm.AllReduceAsync(1 << 20).Wait(); err != nil {
		t.Fatal(err)
	}
	tenantOp(comm)
	check("a comm after sync, async and tenant ops", comm, append(slices.Clone(common), async...))

	only, err := blink.NewComm(blink.DGX1V(), []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	tenantOp(only)
	check("a tenant-only comm", only, common)
}

// TestReplacedPlanCacheIsInstrumented is the regression test for dark cache
// metrics: a communicator built WithPlanCacheCapacity (which replaces the
// engine's private cache) must mirror cache activity into its registry, for
// both engine kinds; a shared cache reports into the first communicator
// that adopted it and is not re-pointed by later ones.
func TestReplacedPlanCacheIsInstrumented(t *testing.T) {
	check := func(name string, snap blink.MetricsSnapshot, stats blink.CacheStats) {
		t.Helper()
		lookups := snap.Counters["blink_plan_cache_lookups_total"]
		hits := snap.Counters["blink_plan_cache_hits_total"]
		if stats.Hits != 1 || stats.Misses != 1 {
			t.Fatalf("%s: CacheStats %d hits / %d misses, want 1 / 1", name, stats.Hits, stats.Misses)
		}
		if lookups != 2 || hits != 1 {
			t.Fatalf("%s: registry shows %d lookups / %d hits while CacheStats shows %d / %d",
				name, lookups, hits, stats.Hits+stats.Misses, stats.Hits)
		}
	}

	comm, err := blink.NewComm(blink.DGX1V(), []int{0, 1, 2, 3}, blink.WithPlanCacheCapacity(8))
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := blink.NewCluster([]blink.ServerSpec{
		{Machine: blink.DGX1V(), Devs: []int{0, 1, 2}},
		{Machine: blink.DGX1V(), Devs: []int{0, 1, 2, 3, 4}},
	}, 100)
	if err != nil {
		t.Fatal(err)
	}
	ccomm, err := blink.NewClusterComm(cluster, blink.WithPlanCacheCapacity(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := comm.AllReduce(1 << 20); err != nil {
			t.Fatal(err)
		}
		if _, err := ccomm.AllReduce(1 << 20); err != nil {
			t.Fatal(err)
		}
	}
	check("Comm", comm.MetricsSnapshot(), comm.CacheStats())
	check("ClusterComm", ccomm.MetricsSnapshot(), ccomm.CacheStats())

	shared := blink.NewPlanCache(8)
	first, err := blink.NewComm(blink.DGX1V(), []int{0, 1, 2, 3}, blink.WithPlanCache(shared))
	if err != nil {
		t.Fatal(err)
	}
	second, err := blink.NewComm(blink.DGX1V(), []int{0, 1, 2, 3}, blink.WithPlanCache(shared))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.AllReduce(1 << 20); err != nil {
		t.Fatal(err)
	}
	if _, err := second.AllReduce(1 << 20); err != nil {
		t.Fatal(err)
	}
	check("shared cache, first adopter", first.MetricsSnapshot(), first.CacheStats())
	if n := second.MetricsSnapshot().Counters["blink_plan_cache_lookups_total"]; n != 0 {
		t.Fatalf("shared cache re-instrumented into the second communicator (%d lookups)", n)
	}
}
