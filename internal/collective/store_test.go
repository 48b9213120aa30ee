package collective

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"blink/internal/simgpu"
	"blink/internal/topology"
)

func storeKey(i int) PlanKey {
	return PlanKey{Fingerprint: "store-fp", Op: AllReduce, Bytes: int64(4 * (i + 1)), ChunkBytes: 4}
}

func TestPlanStorePutGetRoundTrip(t *testing.T) {
	s, err := NewPlanStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := storeKey(0)
	blob := []byte("not-a-real-plan-but-the-store-does-not-care")
	if got, err := s.Get(k); err != nil || got != nil {
		t.Fatalf("empty store Get = (%v, %v), want (nil, nil)", got, err)
	}
	if err := s.Put(k, blob); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(k)
	if err != nil || string(got) != string(blob) {
		t.Fatalf("Get = (%q, %v)", got, err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	// A different key under the same fingerprint is absent.
	if got, err := s.Get(storeKey(1)); err != nil || got != nil {
		t.Fatalf("foreign-key Get = (%v, %v), want (nil, nil)", got, err)
	}
	if n := s.InvalidateFingerprint("store-fp"); n != 1 {
		t.Fatalf("InvalidateFingerprint = %d, want 1", n)
	}
	if got, _ := s.Get(k); got != nil {
		t.Fatal("plan survived fingerprint invalidation")
	}
}

func TestPlanStoreCrashSafety(t *testing.T) {
	// A writer killed mid-put leaves a torn temp file: readers see clean
	// absence, never a torn plan, and reopening the directory sweeps it. A
	// final file truncated behind the rename fails its checksum: it is
	// removed, not served.
	dir := t.TempDir()
	s, err := NewPlanStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := storeKey(0)
	blob := []byte(strings.Repeat("x", 4096))
	if err := s.Put(k, blob); err != nil {
		t.Fatal(err)
	}
	final := s.fileFor(k)
	whole, err := os.ReadFile(final)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(final); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(final+".1.1.tmp", whole[:len(whole)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(k); err != nil || got != nil {
		t.Fatalf("reader after torn write sees (%v, %v), want (nil, nil)", got, err)
	}
	// A process restart (reopen) self-heals the stale temp.
	if _, err := NewPlanStore(dir); err != nil {
		t.Fatal(err)
	}
	if temps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(temps) != 0 {
		t.Fatalf("reopen left %d stale temp files", len(temps))
	}

	if err := os.WriteFile(final, whole[:len(whole)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(k); err == nil || got != nil {
		t.Fatalf("truncated plan file served as (%d bytes, %v)", len(got), err)
	}
	if got, err := s.Get(k); err != nil || got != nil {
		t.Fatalf("truncated file not removed: Get = (%v, %v)", got, err)
	}

	// The healed store accepts the write again.
	if err := s.Put(k, blob); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(k); err != nil || string(got) != string(blob) {
		t.Fatalf("post-heal Get = (%q, %v)", got, err)
	}
}

func TestPlanStoreHealsCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := NewPlanStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := storeKey(0)
	if err := s.Put(k, []byte("plan-bytes")); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.plan"))
	if len(files) != 1 {
		t.Fatalf("store holds %d files, want 1", len(files))
	}
	// Flip a byte on disk (bit rot / torn sector that beat the rename).
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(files[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(k); err == nil {
		t.Fatal("corrupt plan file served")
	}
	// Self-heal: the poisoned file is gone, the next Get is a clean miss.
	if rest, _ := filepath.Glob(filepath.Join(dir, "*.plan")); len(rest) != 0 {
		t.Fatalf("corrupt file not removed (%d left)", len(rest))
	}
	if got, err := s.Get(k); err != nil || got != nil {
		t.Fatalf("post-heal Get = (%v, %v), want clean miss", got, err)
	}
}

// TestTieredCacheStatsProperty hammers a store-backed cache with concurrent
// tiered traffic and checks per-tier attribution stays consistent under any
// interleaving: every lookup resolves to exactly one of {memory hit, disk
// hit, miss}, so MemoryHits+DiskHits == Hits and Hits+Misses == lookups,
// and promotions never exceed disk hits.
func TestTieredCacheStatsProperty(t *testing.T) {
	const (
		goroutines = 8
		iters      = 1200
		keys       = 48
		capacity   = 16 // smaller than the key space, so memory evicts
	)
	store, err := NewPlanStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cache := NewPlanCache(capacity)
	cache.SetStore(store)

	decode := func(b []byte) (*CachedPlan, error) {
		return &CachedPlan{Strategy: string(b)}, nil
	}
	var gets atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 7))
			for i := 0; i < iters; i++ {
				k := storeKey(rng.Intn(keys))
				if rng.Intn(3) == 0 {
					cache.PutTiered(k, &CachedPlan{Strategy: "tiered"}, []byte("tiered"))
				} else {
					if _, _, err := cache.GetTiered(k, decode); err != nil {
						t.Errorf("GetTiered: %v", err)
					}
					gets.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()

	st := cache.Stats()
	if st.Hits+st.Misses != gets.Load() {
		t.Fatalf("hits(%d)+misses(%d) != lookups(%d): %+v", st.Hits, st.Misses, gets.Load(), st)
	}
	if st.MemoryHits+st.DiskHits != st.Hits {
		t.Fatalf("memory(%d)+disk(%d) != hits(%d): %+v", st.MemoryHits, st.DiskHits, st.Hits, st)
	}
	if st.Promotions > st.DiskHits {
		t.Fatalf("promotions(%d) exceed disk hits(%d)", st.Promotions, st.DiskHits)
	}
	if st.StoreErrors != 0 {
		t.Fatalf("store errors under healthy disk: %+v", st)
	}
	if st.DiskHits == 0 {
		t.Fatal("property run never exercised the disk tier (capacity too large?)")
	}
}

func TestTieredCacheDecodeFailureIsMissAndHeals(t *testing.T) {
	store, err := NewPlanStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cache := NewPlanCache(8)
	cache.SetStore(store)
	k := storeKey(0)
	cache.PutTiered(k, &CachedPlan{Strategy: "x"}, []byte("blob"))
	// Evict the memory copy so the next lookup falls through to disk.
	cache.InvalidateFingerprint(k.Fingerprint)
	if err := store.Put(k, []byte("blob")); err != nil {
		t.Fatal(err)
	}
	bad := func([]byte) (*CachedPlan, error) { return nil, fmt.Errorf("stale schema") }
	if cp, _, err := cache.GetTiered(k, bad); cp != nil || err == nil {
		t.Fatalf("undecodable disk plan returned (%v, %v)", cp, err)
	}
	st := cache.Stats()
	if st.StoreErrors != 1 || st.Misses != 1 || st.DiskHits != 0 {
		t.Fatalf("decode failure attribution wrong: %+v", st)
	}
	// The poisoned entry was deleted: a later lookup is a plain miss.
	if cp, _, err := cache.GetTiered(k, bad); cp != nil || err != nil {
		t.Fatalf("post-heal lookup = (%v, %v), want clean miss", cp, err)
	}
	if store.Len() != 0 {
		t.Fatal("undecodable entry left in store")
	}
}

// TestEngineWarmStartFromStore is the tentpole acceptance criterion: a
// process starting against a warm store serves its first dispatch without
// packing a single tree — the compile counter stays zero and the disk tier
// records the hit.
func TestEngineWarmStartFromStore(t *testing.T) {
	dir := t.TempDir()
	mk := func() (*Engine, *PlanStore) {
		e := newEng(t, []int{0, 1, 2, 3, 4, 5, 6, 7})
		s, err := NewPlanStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		e.SetPlanStore(s)
		return e, s
	}
	e1, _ := mk()
	const bytes = 48 << 20
	r1 := mustRun(t, e1, Blink, AllReduce, bytes, Options{})
	if n := e1.Metrics().Counter("blink_plan_compiles_total").Value(); n != 1 {
		t.Fatalf("cold engine compiles = %d, want 1", n)
	}
	if st := e1.CacheStats(); st.DiskPuts != 1 {
		t.Fatalf("cold engine did not persist its plan: %+v", st)
	}

	// Fresh process (fresh engine, fresh store handle, same directory).
	e2, _ := mk()
	r2 := mustRun(t, e2, Blink, AllReduce, bytes, Options{})
	if n := e2.Metrics().Counter("blink_plan_compiles_total").Value(); n != 0 {
		t.Fatalf("warm-store engine compiled %d plans, want 0", n)
	}
	if n := e2.Metrics().Counter("blink_plan_replays_total").Value(); n != 1 {
		t.Fatalf("warm-store dispatch replays = %d, want 1", n)
	}
	st := e2.CacheStats()
	if st.DiskHits != 1 || st.MemoryHits != 0 || st.Misses != 0 || st.Promotions != 1 {
		t.Fatalf("warm-store tier stats = %+v, want one promoted disk hit", st)
	}
	if r1.Seconds != r2.Seconds || r1.Strategy != r2.Strategy {
		t.Fatalf("warm-store replay (%.12f, %s) != cold compile (%.12f, %s)",
			r2.Seconds, r2.Strategy, r1.Seconds, r1.Strategy)
	}

	// Third dispatch on the warm engine hits memory, not disk.
	mustRun(t, e2, Blink, AllReduce, bytes, Options{})
	if st := e2.CacheStats(); st.MemoryHits != 1 || st.DiskHits != 1 {
		t.Fatalf("promoted plan not served from memory: %+v", st)
	}
}

// TestEngineWarmStartDegradedTopology exercises the store across a derived
// (post-fault) fingerprint: plans persisted for the degraded fabric warm-
// start a second process on the same degraded fabric, and never leak into a
// pristine one.
func TestEngineWarmStartDegradedTopology(t *testing.T) {
	deg, err := topology.DGX1V().WithoutLink(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mk := func(m *topology.Topology) *Engine {
		e := mustEngine(t, m, []int{0, 1, 2, 3, 4, 5, 6, 7}, simgpu.Config{})
		s, err := NewPlanStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		e.SetPlanStore(s)
		return e
	}
	e1 := mk(deg)
	if _, err := e1.Run(Blink, Broadcast, 1, 8<<20, Options{}); err != nil {
		t.Fatal(err)
	}
	e2 := mk(deg)
	if _, err := e2.Run(Blink, Broadcast, 1, 8<<20, Options{}); err != nil {
		t.Fatal(err)
	}
	if n := e2.Metrics().Counter("blink_plan_compiles_total").Value(); n != 0 {
		t.Fatalf("degraded warm start compiled %d plans, want 0", n)
	}
	// A pristine engine over the same store must not see the degraded plan.
	e3 := mk(topology.DGX1V())
	if _, err := e3.Run(Blink, Broadcast, 1, 8<<20, Options{}); err != nil {
		t.Fatal(err)
	}
	if n := e3.Metrics().Counter("blink_plan_compiles_total").Value(); n != 1 {
		t.Fatalf("pristine engine reused a degraded-fabric plan (compiles = %d)", n)
	}
}
