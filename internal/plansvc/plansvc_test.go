package plansvc

import (
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"blink/internal/collective"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

// startServer spins up a blinkd over httptest and returns a client for it.
func startServer(t *testing.T, store *collective.PlanStore) (*Server, *Client) {
	t.Helper()
	srv := NewServer(store, 0)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, NewClient(ts.URL)
}

func newEngine(t *testing.T, cfg simgpu.Config) *collective.Engine {
	t.Helper()
	e, err := collective.NewEngine(topology.DGX1V(), []int{0, 1, 2, 3, 4, 5, 6, 7}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func counter(e *collective.Engine, name string) uint64 {
	return e.Metrics().Counter(name).Value()
}

func TestServiceServesFirstDispatch(t *testing.T) {
	// A dispatch on a cold engine with a planning service attached must be
	// served remotely: no local packing, the compile counter stays zero, and
	// the simulated timing matches a locally compiled plan exactly.
	_, client := startServer(t, nil)
	remote := newEngine(t, simgpu.Config{})
	remote.SetPlanService(client)

	const bytes = 64 << 20
	got, err := remote.Run(collective.Blink, collective.AllReduce, 0, bytes, collective.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := counter(remote, "blink_plan_compiles_total"); n != 0 {
		t.Fatalf("service-served dispatch compiled locally %d times", n)
	}
	if n := counter(remote, "blink_plan_service_hits_total"); n != 1 {
		t.Fatalf("service hits = %d, want 1", n)
	}
	if n := counter(remote, "blink_plan_replays_total"); n != 1 {
		t.Fatalf("service hit must count as replay, replays = %d", n)
	}

	local := newEngine(t, simgpu.Config{})
	want, err := local.Run(collective.Blink, collective.AllReduce, 0, bytes, collective.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Seconds != want.Seconds || got.Strategy != want.Strategy {
		t.Fatalf("remote plan (%.9f, %s) != local plan (%.9f, %s)",
			got.Seconds, got.Strategy, want.Seconds, want.Strategy)
	}

	// Second dispatch replays from the engine's own memory tier.
	if _, err := remote.Run(collective.Blink, collective.AllReduce, 0, bytes, collective.Options{}); err != nil {
		t.Fatal(err)
	}
	if n := counter(remote, "blink_plan_service_hits_total"); n != 1 {
		t.Fatalf("warm dispatch hit the service again (hits = %d)", n)
	}
}

func TestServiceDataModeExactness(t *testing.T) {
	// A data-mode plan fetched from the service regenerates its Exec
	// closures against the client's fabric on decode; the sums must be exact.
	_, client := startServer(t, nil)
	e, err := collective.NewEngine(topology.DGX1V(), []int{0, 1, 2, 3}, simgpu.Config{DataMode: true})
	if err != nil {
		t.Fatal(err)
	}
	e.SetPlanService(client)

	const n = 512
	bufs := simgpu.NewBufferSet()
	for v := 0; v < 4; v++ {
		in := make([]float32, n)
		for i := range in {
			in[i] = float32(v + 1)
		}
		bufs.SetBuffer(v, 0 /* core.BufData */, in)
	}
	if _, err := e.Run(collective.Blink, collective.AllReduce, 0, n*4,
		collective.Options{DataMode: true, Buffers: bufs}); err != nil {
		t.Fatal(err)
	}
	if got := counter(e, "blink_plan_compiles_total"); got != 0 {
		t.Fatalf("data-mode dispatch compiled locally %d times", got)
	}
	if got := counter(e, "blink_plan_service_hits_total"); got != 1 {
		t.Fatalf("service hits = %d, want 1", got)
	}
	out := bufs.Buffer(0, 1 /* core.BufAcc */, n)
	for i, v := range out {
		if v != 10 { // 1+2+3+4
			t.Fatalf("sum[%d] = %v, want 10", i, v)
		}
	}
}

func TestServiceFingerprintMismatchFallsBack(t *testing.T) {
	// A degraded machine's spec does not re-parse onto the client's
	// fingerprint; the server must refuse and the engine must fall back to
	// a local compile — availability is never gated on the service.
	_, client := startServer(t, nil)
	deg, err := topology.DGX1V().WithoutLink(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	e, err := collective.NewEngine(deg, []int{0, 1, 2, 3, 4, 5, 6, 7}, simgpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e.SetPlanService(client)
	if _, err := e.Run(collective.Blink, collective.AllReduce, 0, 16<<20, collective.Options{}); err != nil {
		t.Fatal(err)
	}
	if n := counter(e, "blink_plan_service_errors_total"); n != 1 {
		t.Fatalf("service errors = %d, want 1 (handshake refusal)", n)
	}
	if n := counter(e, "blink_plan_compiles_total"); n != 1 {
		t.Fatalf("local fallback compiles = %d, want 1", n)
	}
}

func TestServerSharedStoreWarmStart(t *testing.T) {
	// Two servers sharing one PlanStore: the second serves the first's plan
	// from disk, byte-identically, without recompiling.
	dir := t.TempDir()
	store1, err := collective.NewPlanStore(filepath.Join(dir, "plans"))
	if err != nil {
		t.Fatal(err)
	}
	srv1, _ := startServer(t, store1)

	req := collective.PlanRequest{
		Machine:    "dgx1v",
		Devs:       []int{0, 1, 2, 3, 4, 5, 6, 7},
		Config:     simgpu.Config{}.Normalized(),
		Backend:    collective.Blink,
		Op:         collective.Broadcast,
		Root:       2,
		Bytes:      32 << 20,
		ChunkBytes: 2 << 20,
	}
	blob1, strat1, err := srv1.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if store1.Len() == 0 {
		t.Fatal("server did not persist the compiled plan")
	}

	store2, err := collective.NewPlanStore(filepath.Join(dir, "plans"))
	if err != nil {
		t.Fatal(err)
	}
	srv2, _ := startServer(t, store2)
	blob2, strat2, err := srv2.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob1) != string(blob2) || strat1 != strat2 {
		t.Fatal("warm-store server served a different plan than the compiling server")
	}
	st := srv2.cache.Stats()
	if st.DiskHits != 1 || st.MemoryHits != 0 {
		t.Fatalf("second server tier stats = %+v, want exactly one disk hit", st)
	}
}

func TestClientErrorsSurface(t *testing.T) {
	_, client := startServer(t, nil)
	if _, err := client.FetchPlan(collective.PlanRequest{Machine: "nosuch"}); err == nil {
		t.Fatal("unknown machine accepted")
	}
	dead := NewClient("127.0.0.1:1") // nothing listens there
	if _, err := dead.FetchPlan(collective.PlanRequest{Machine: "dgx1v"}); err == nil {
		t.Fatal("dead server produced a plan")
	}
}

// TestServerRejectsUnplannableRequests: blinkd takes bytes, chunkBytes,
// backend and op straight off the network, so a request no schedule can be
// generated for must be refused with a 422 naming the reason — not planned
// until memory runs out, nor served some other backend's plan — and the
// engines clients make the daemon build must stay bounded.
func TestServerRejectsUnplannableRequests(t *testing.T) {
	srv, client := startServer(t, nil)
	devs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	good := collective.PlanRequest{Machine: "dgx1v", Devs: devs, Op: collective.AllReduce, Bytes: 1 << 20}
	for _, c := range []struct {
		name   string
		mutate func(*collective.PlanRequest)
		want   string
	}{
		{"chunk flood", func(r *collective.PlanRequest) { r.Bytes, r.ChunkBytes = 1<<40, 4 }, "274877906944 chunks"},
		{"backend", func(r *collective.PlanRequest) { r.Backend = 7 }, "unknown backend 7"},
		{"op", func(r *collective.PlanRequest) { r.Op = 99 }, "unknown op Op(99)"},
	} {
		req := good
		c.mutate(&req)
		_, err := client.FetchPlan(req)
		if err == nil || !strings.Contains(err.Error(), "422") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want a 422 naming %q", c.name, err, c.want)
		}
	}
	if st := srv.cache.Stats(); st.Entries != 0 {
		t.Fatalf("refused requests left %d plans in the daemon's cache", st.Entries)
	}
	for i := 0; i < 100; i++ {
		req := good
		req.Devs = []int{0, 1} // the cheapest allocation to plan for
		req.Config.OpOverhead = float64(i+1) * 1e-6
		if _, err := client.FetchPlan(req); err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		srv.mu.Lock()
		n, m := len(srv.engines), len(srv.order)
		srv.mu.Unlock()
		if n > maxEngines || n != m {
			t.Fatalf("after %d configs the daemon holds %d engines under %d keys, bound %d", i+1, n, m, maxEngines)
		}
	}
	// A well-formed request still round-trips into a plan an engine decodes.
	e := newEngine(t, simgpu.Config{})
	e.SetPlanService(client)
	if _, err := e.Run(collective.Blink, collective.AllReduce, 0, 1<<20, collective.Options{}); err != nil {
		t.Fatal(err)
	}
	if n := counter(e, "blink_plan_service_hits_total"); n != 1 {
		t.Fatalf("service hits = %d, want 1", n)
	}
}
