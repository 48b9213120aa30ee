package collective

import (
	"testing"

	"blink/internal/obs"
	"blink/internal/simgpu"
)

// spineOutcome is what one dispatch through any entry style reports back to
// the spine table: the simulated time, cache attribution, and — for styles
// that return a handle — the final chunk progress (-1 when the style has
// no handle).
type spineOutcome struct {
	seconds     float64
	hit         bool
	done, total int64
}

// fromHandle waits a handle of either engine out and reads its accessors.
func fromHandle(t *testing.T, h *Handle) spineOutcome {
	t.Helper()
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-h.Done():
	default:
		t.Fatal("Done() still open after Wait returned")
	}
	if h.Err() != nil || h.Deferred() {
		t.Fatalf("resolved handle: Err %v, Deferred %v", h.Err(), h.Deferred())
	}
	out := spineOutcome{seconds: res.Seconds, hit: h.CacheHit()}
	out.done, out.total = h.Progress()
	return out
}

// TestSpineEveryEntryStyle runs the same warm op through every entry style
// of both engines and checks they are one path: bit-identical simulated
// time, exactly one replay counted and one makespan observed per dispatch,
// the right stream / lane on the span, and working handle accessors on both
// engines' handles.
func TestSpineEveryEntryStyle(t *testing.T) {
	const bytes = 8 << 20
	eng := newTestEngine(t)
	tn := eng.NewTenant(TenantConfig{Name: "spine", Class: LatencyCritical})
	ceng, err := NewClusterEngine(testCluster(t, []int{3, 5}, 100), simgpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// plain adapts the styles that return a bare Result: they expose no hit
	// flag of their own, so the replay-counter delta below vouches for it.
	plain := func(r Result, err error) spineOutcome {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return spineOutcome{seconds: r.Seconds, hit: true, done: -1}
	}
	group := func(g GroupResult, err error) spineOutcome {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return spineOutcome{seconds: g.Seconds, hit: g.CacheHits == 1 && g.CacheMisses == 0, done: -1}
	}

	type style struct {
		name string
		// stream is the span's expected stream field; anyStream accepts any
		// worker stream (round-robin).
		stream int
		run    func() spineOutcome
	}
	const anyStream = -2
	engines := []struct {
		name    string
		metrics *obs.Registry
		tl      *obs.Timeline
		styles  []style
	}{
		{"Engine", eng.Metrics(), eng.EnableTimeline(), []style{
			{"Run", -1, func() spineOutcome { return plain(eng.Run(Blink, AllReduce, 0, bytes, Options{})) }},
			{"Snapshot.Run", -1, func() spineOutcome { return plain(eng.Snapshot().Run(Blink, AllReduce, 0, bytes, Options{})) }},
			{"RunMany", -1, func() spineOutcome { return group(eng.RunMany(Blink, AllReduce, 0, []int64{bytes}, Options{})) }},
			{"RunAsync pinned", 1, func() spineOutcome {
				return fromHandle(t, eng.RunAsync(Blink, AllReduce, 0, bytes, Options{}, 1))
			}},
			{"RunAsync round-robin", anyStream, func() spineOutcome {
				return fromHandle(t, eng.RunAsync(Blink, AllReduce, 0, bytes, Options{}, -1))
			}},
			{"RunAsyncTenant", int(LatencyCritical), func() spineOutcome {
				h, v := eng.RunAsyncTenant(tn, Blink, AllReduce, 0, bytes, Options{})
				if v != VerdictAdmit {
					t.Fatalf("verdict %v", v)
				}
				return fromHandle(t, h)
			}},
			{"Snapshot.RunTenant", int(LatencyCritical), func() spineOutcome {
				return plain(eng.Snapshot().RunTenant(tn, Blink, AllReduce, 0, bytes, Options{}))
			}},
		}},
		{"ClusterEngine", ceng.Metrics(), ceng.EnableTimeline(), []style{
			{"Run", -1, func() spineOutcome { return plain(ceng.Run(Blink, AllReduce, 0, bytes, Options{})) }},
			{"RunMany", -1, func() spineOutcome { return group(ceng.RunMany(Blink, AllReduce, 0, []int64{bytes}, Options{})) }},
			{"RunAsync pinned", 1, func() spineOutcome {
				return fromHandle(t, ceng.RunAsync(Blink, AllReduce, 0, bytes, Options{}, 1))
			}},
			{"RunAsync round-robin", anyStream, func() spineOutcome {
				return fromHandle(t, ceng.RunAsync(Blink, AllReduce, 0, bytes, Options{}, -1))
			}},
		}},
	}
	for _, e := range engines {
		want := e.styles[0].run().seconds // cold: compiles the plan every style then replays
		replays := e.metrics.Counter("blink_plan_replays_total")
		observed := func() uint64 {
			return e.metrics.Snapshot().Histograms[`blink_op_sim_seconds{op="AllReduce"}`].Count
		}
		for _, s := range e.styles {
			r0, o0, n0 := replays.Value(), observed(), e.tl.Len()
			got := s.run()
			if got.seconds != want || !got.hit {
				t.Errorf("%s %s: %v s (hit %v), want a warm replay of exactly %v s", e.name, s.name, got.seconds, got.hit, want)
			}
			if got.done >= 0 && (got.total == 0 || got.done != got.total) {
				t.Errorf("%s %s: final progress %d/%d", e.name, s.name, got.done, got.total)
			}
			if dr, do := replays.Value()-r0, observed()-o0; dr != 1 || do != 1 {
				t.Errorf("%s %s: %d replays counted, %d makespans observed, want 1 and 1", e.name, s.name, dr, do)
			}
			spans := e.tl.Spans()
			if len(spans) != n0+1 {
				t.Fatalf("%s %s: %d spans recorded, want 1", e.name, s.name, len(spans)-n0)
			}
			sp := spans[len(spans)-1]
			if sp.Stream != s.stream && !(s.stream == anyStream && sp.Stream >= 0 && sp.Stream < DefaultAsyncStreams) {
				t.Errorf("%s %s: span stream %d, want %d", e.name, s.name, sp.Stream, s.stream)
			}
			if !sp.CacheHit || sp.SimSeconds != want || sp.Err != "" {
				t.Errorf("%s %s: span %+v", e.name, s.name, sp)
			}
		}
	}
}

// TestSpineCompileErrorResolvesAlike checks a plan that cannot compile
// fails the same way through the synchronous return and through a handle,
// on both engines, without counting a compile or a replay.
func TestSpineCompileErrorResolvesAlike(t *testing.T) {
	eng := newTestEngine(t)
	ceng, err := NewClusterEngine(testCluster(t, []int{3, 5}, 100), simgpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	failed := func(name string, h interface {
		Err() error
		CacheHit() bool
	}, waitErr, syncErr error) {
		t.Helper()
		if syncErr == nil || waitErr == nil || waitErr.Error() != syncErr.Error() {
			t.Fatalf("%s: sync error %v, handle error %v", name, syncErr, waitErr)
		}
		if h.Err() == nil || h.CacheHit() {
			t.Fatalf("%s: failed handle reports Err %v, CacheHit %v", name, h.Err(), h.CacheHit())
		}
	}
	_, syncErr := eng.Run(Blink, AllReduce, 0, 2, Options{})
	h := eng.RunAsync(Blink, AllReduce, 0, 2, Options{}, -1)
	_, waitErr := h.Wait()
	failed("Engine", h, waitErr, syncErr)

	_, syncErr = ceng.Run(Blink, Gather, 0, 1<<20, Options{})
	ch := ceng.RunAsync(Blink, Gather, 0, 1<<20, Options{}, -1)
	_, waitErr = ch.Wait()
	failed("ClusterEngine", ch, waitErr, syncErr)

	for name, reg := range map[string]*obs.Registry{"Engine": eng.Metrics(), "ClusterEngine": ceng.Metrics()} {
		if c, r := reg.Counter("blink_plan_compiles_total").Value(), reg.Counter("blink_plan_replays_total").Value(); c != 0 || r != 0 {
			t.Fatalf("%s: failed dispatches counted %d compiles / %d replays", name, c, r)
		}
	}
}
