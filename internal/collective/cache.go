package collective

import (
	"container/list"
	"sync"
	"sync/atomic"

	"blink/internal/core"
	"blink/internal/obs"
	"blink/internal/simgpu"
)

// PlanKey identifies one compiled schedule. Two Run calls with equal keys
// replay the same FrozenPlan, so the key must cover everything that changes
// generated code: the topology fingerprint (which folds in the fabric
// structure and the allocated device set), the normalized hardware timing
// model (which is baked into every op's overheads and link bandwidths),
// the backend, the collective op, the root, the payload size, the resolved
// chunk size, and whether the plan carries data-movement closures.
type PlanKey struct {
	// Fingerprint is topology.Topology.Fingerprint() of the induced
	// allocation; it makes the key valid across engines, so one PlanCache
	// may be shared by many communicators.
	Fingerprint string
	// Config is the engine's simgpu.Config.Normalized(): plans compiled
	// under different timing models must never satisfy each other.
	Config  simgpu.Config
	Backend Backend
	Op      Op
	Root    int
	Bytes   int64
	// ChunkBytes is the override rounded to whole float32s, or 0 for auto,
	// which CodeGen resolves for the plan's kind (core.PlanOptions).
	ChunkBytes int64
	DataMode   bool
	// Shape canonicalizes the rank structure of point-to-point ops — the
	// SendRecv chain or the NeighborExchange send lists — so two calls with
	// different shapes never share a frozen schedule ("" for shapeless ops).
	Shape string
	// EngineID pins data-mode plans to the engine that compiled them.
	// Their Exec closures encode that engine's fabric geometry (relay
	// vertices, shard layouts), so replaying them from another engine
	// would move the wrong regions; timing-only plans (EngineID 0) are
	// freely shareable.
	EngineID uint64
}

// CachedPlan is a cache value: the frozen schedule — trees, rings, the
// hybrid two-plane broadcast, a cluster's three-phase protocol or flat ring,
// all one FrozenPlan — plus the strategy label the engine reported when it
// compiled it. Cluster keys never collide with single-machine keys because
// their Fingerprint is a topology.Cluster.Fingerprint, which is disjoint
// from any topology.Topology.Fingerprint.
type CachedPlan struct {
	Plan     *core.FrozenPlan
	Strategy string
}

// CacheStats is a point-in-time snapshot of cache activity with per-tier
// attribution. The invariant Hits + Misses == lookups holds across tiers:
// every lookup resolves to exactly one of a memory hit, a disk hit, or a
// miss (Hits == MemoryHits + DiskHits).
type CacheStats struct {
	// Hits counts Run dispatches that replayed a cached plan — from either
	// tier — skipping TreeGen, minimization and (for memory hits) CodeGen.
	Hits uint64
	// MemoryHits counts lookups satisfied by the in-memory LRU.
	MemoryHits uint64
	// DiskHits counts lookups that missed memory but loaded, validated and
	// regenerated a plan from the on-disk PlanStore.
	DiskHits uint64
	// Misses counts dispatches that had to compile.
	Misses uint64
	// Promotions counts disk hits promoted into the memory tier.
	Promotions uint64
	// DiskPuts counts plans persisted to the disk tier.
	DiskPuts uint64
	// StoreErrors counts disk-tier failures (corrupt files, undecodable
	// blobs, write errors); each also counts toward Misses when it happened
	// on the lookup path.
	StoreErrors uint64
	// Entries is the number of plans resident in memory.
	Entries int
	// DiskEntries is the number of plans on disk (0 when no store attached).
	DiskEntries int
	// Evictions counts plans dropped by the LRU policy (memory tier only;
	// the disk tier is unbounded and pruned by InvalidateFingerprint).
	Evictions uint64
}

// DefaultPlanCacheCapacity bounds a communicator's resident compiled plans.
// A training job touches a handful of bucket sizes per model, so a small
// cache captures the entire steady state; the LRU bound exists to keep
// long-lived processes that sweep many payload sizes (benchmarks) from
// growing without limit.
const DefaultPlanCacheCapacity = 128

// PlanCache is a concurrency-safe tiered cache of frozen schedules: an
// in-memory LRU in front of an optional on-disk PlanStore (SetStore), in
// front of compilation. It may be shared across engines/communicators (keys
// carry the topology fingerprint); a zero-capacity cache stores nothing in
// memory but still counts misses and still serves the disk tier.
type PlanCache struct {
	mu        sync.Mutex
	capacity  int
	order     *list.List // front = most recently used; values are *cacheEntry
	entries   map[PlanKey]*list.Element
	hits      atomic.Uint64 // memory-tier hits
	misses    atomic.Uint64
	evictions atomic.Uint64

	// Partition-fairness state (multi-tenant engines): tenants is the
	// number of tenants registered against the cache, ownerCount the
	// resident entries per owner tag. When an owner at or over its fair
	// share (capacity/tenants) inserts a new plan, its own LRU entry is
	// evicted first, so one tenant churning through shapes can never flush
	// everyone else's frozen plans. Owner 0 (untenanted inserts,
	// promotions) is exempt and only subject to the global LRU bound.
	tenants       int
	ownerCount    map[uint64]int
	fairEvictions atomic.Uint64

	// Disk-tier state: the store itself plus its attribution counters.
	store       atomic.Pointer[PlanStore]
	diskHits    atomic.Uint64
	promotions  atomic.Uint64
	diskPuts    atomic.Uint64
	storeErrors atomic.Uint64

	// obs mirrors the counters into a metrics registry (Instrument). The
	// handles are resolved once and atomic thereafter; never nil — an
	// uninstrumented cache holds standalone metrics.
	obs atomic.Pointer[cacheMetrics]
}

// cacheMetrics is the registry-resolved handle bundle of one PlanCache.
type cacheMetrics struct {
	lookups, hits, misses, evictions, invalidated *obs.Counter
	diskHits, diskPuts, promotions, storeErrors   *obs.Counter
	fairEvictions                                 *obs.Counter
	entries                                       *obs.Gauge
	// registered marks handles resolved from a registry, as opposed to the
	// standalone no-op bundle of an uninstrumented cache.
	registered bool
}

// Instrument mirrors the cache's activity into reg under the
// blink_plan_cache_* metric family. Instrumenting an already-active cache
// is safe (counters continue from zero in the registry); re-instrumenting
// swaps the target registry atomically. A nil registry detaches: the cache
// updates standalone metrics nobody reads, so the hot path never branches
// on observability.
func (c *PlanCache) Instrument(reg *obs.Registry) {
	c.obs.Store(&cacheMetrics{
		lookups:     reg.Counter("blink_plan_cache_lookups_total"),
		hits:        reg.Counter("blink_plan_cache_hits_total"),
		misses:      reg.Counter("blink_plan_cache_misses_total"),
		evictions:   reg.Counter("blink_plan_cache_evictions_total"),
		invalidated: reg.Counter("blink_plan_cache_invalidated_total"),
		diskHits:    reg.Counter("blink_plan_cache_disk_hits_total"),
		diskPuts:    reg.Counter("blink_plan_cache_disk_puts_total"),
		promotions:  reg.Counter("blink_plan_cache_promotions_total"),
		storeErrors: reg.Counter("blink_plan_cache_store_errors_total"),
		fairEvictions: reg.Counter(
			"blink_plan_cache_fair_evictions_total"),
		entries:    reg.Gauge("blink_plan_cache_entries"),
		registered: reg != nil,
	})
}

// instrumented reports whether the cache already mirrors into a registry.
func (c *PlanCache) instrumented() bool { return c.obs.Load().registered }

type cacheEntry struct {
	key   PlanKey
	value *CachedPlan
	// owner is the tenant the entry is charged to for partition fairness
	// (0 = unowned: untenanted inserts and disk promotions).
	owner uint64
}

// NewPlanCache returns an LRU plan cache holding at most capacity plans.
// capacity <= 0 disables storage (every lookup misses).
func NewPlanCache(capacity int) *PlanCache {
	c := &PlanCache{
		capacity:   capacity,
		order:      list.New(),
		entries:    map[PlanKey]*list.Element{},
		ownerCount: map[uint64]int{},
	}
	c.Instrument(nil)
	return c
}

// addTenant registers one more tenant against the cache: each owner's fair
// share of the memory tier becomes max(1, capacity/tenants), counting the
// tenants of every engine that shares the cache.
func (c *PlanCache) addTenant() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tenants++
}

// FairEvictions returns how many inserts evicted the inserting owner's
// own LRU entry because the owner was at its partition share.
func (c *PlanCache) FairEvictions() uint64 { return c.fairEvictions.Load() }

// OwnerLen returns how many resident plans are charged to the owner.
func (c *PlanCache) OwnerLen(owner uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ownerCount[owner]
}

// Tier identifies which cache tier satisfied a lookup.
type Tier int

const (
	// TierNone marks a full miss (the caller must compile).
	TierNone Tier = iota
	// TierMemory marks an in-memory LRU hit.
	TierMemory
	// TierDisk marks a plan loaded from the on-disk PlanStore (and promoted
	// into memory).
	TierDisk
)

// String names the tier.
func (t Tier) String() string {
	if t != TierMemory && t != TierDisk {
		return "miss"
	}
	return [...]string{TierMemory: "memory", TierDisk: "disk"}[t]
}

// PlanDecoder rehydrates a cached plan from an encoded blob loaded off the
// disk tier. The engine supplies it per lookup because decoding needs the
// live engine state: the blob's header is validated against the engine's
// topology and its schedule regenerated over the engine's fabric.
type PlanDecoder func(encoded []byte) (*CachedPlan, error)

// SetStore attaches (or, with nil, detaches) the on-disk tier. Keys carry
// the topology fingerprint, so one store may back many caches and many
// processes concurrently.
func (c *PlanCache) SetStore(s *PlanStore) { c.store.Store(s) }

// Store returns the attached on-disk tier (nil when memory-only).
func (c *PlanCache) Store() *PlanStore { return c.store.Load() }

// Get returns the cached plan for the key, marking it most recently used.
// Only the memory tier is consulted — callers able to rehydrate encoded
// plans use GetTiered.
func (c *PlanCache) Get(k PlanKey) (*CachedPlan, bool) {
	cp, tier, _ := c.GetTiered(k, nil)
	return cp, tier != TierNone
}

// GetTiered resolves a key through the tiers in order: memory LRU first,
// then (when a store is attached and decode is non-nil) the on-disk
// PlanStore, whose blobs are decoded, validated and promoted into memory.
// Exactly one of {memory hit, disk hit, miss} is recorded per call, so
// hits + misses always equals lookups. A disk-tier failure (corrupt file,
// stale or undecodable blob) removes the offending file, counts as a miss
// and returns the error alongside the miss for observability.
func (c *PlanCache) GetTiered(k PlanKey, decode PlanDecoder) (*CachedPlan, Tier, error) {
	c.mu.Lock()
	el, ok := c.entries[k]
	var v *CachedPlan
	if ok {
		c.order.MoveToFront(el)
		// Read the value inside the critical section: a concurrent Put on
		// the same key replaces the entry's value field in place.
		v = el.Value.(*cacheEntry).value
	}
	c.mu.Unlock()
	m := c.obs.Load()
	m.lookups.Inc()
	if ok {
		c.hits.Add(1)
		m.hits.Inc()
		return v, TierMemory, nil
	}
	miss := func() {
		c.misses.Add(1)
		m.misses.Inc()
	}
	s := c.store.Load()
	if s == nil || decode == nil {
		miss()
		return nil, TierNone, nil
	}
	blob, err := s.Get(k)
	if err != nil {
		c.storeErrors.Add(1)
		m.storeErrors.Inc()
		miss()
		return nil, TierNone, err
	}
	if blob == nil {
		miss()
		return nil, TierNone, nil
	}
	cp, err := decode(blob)
	if err != nil {
		// The file was intact but unusable here (format skew, foreign
		// builder set): drop it so the slot recompiles and re-persists.
		s.Delete(k)
		c.storeErrors.Add(1)
		m.storeErrors.Inc()
		miss()
		return nil, TierNone, err
	}
	c.diskHits.Add(1)
	m.diskHits.Inc()
	// Promote so later dispatches replay from memory without re-decoding.
	if c.putMemory(k, cp) {
		c.promotions.Add(1)
		m.promotions.Inc()
	}
	return cp, TierDisk, nil
}

// Put inserts (or replaces) the plan under the key in the memory tier,
// evicting the least recently used entry if the cache is full.
func (c *PlanCache) Put(k PlanKey, v *CachedPlan) { c.putMemory(k, v) }

// PutTiered publishes a plan to the memory tier and, when a store is
// attached and an encoded form is supplied, persists it to the disk tier
// (atomic temp-file + rename). A nil encoded blob (cluster plans, plans
// without an IR) publishes to memory only.
func (c *PlanCache) PutTiered(k PlanKey, v *CachedPlan, encoded []byte) {
	c.PutTieredOwned(k, v, encoded, 0)
}

// PutTieredOwned is PutTiered with the memory-tier entry charged to a
// tenant owner for partition fairness (owner 0 = unowned).
func (c *PlanCache) PutTieredOwned(k PlanKey, v *CachedPlan, encoded []byte, owner uint64) {
	c.putMemoryOwned(k, v, owner)
	if len(encoded) == 0 {
		return
	}
	s := c.store.Load()
	if s == nil {
		return
	}
	m := c.obs.Load()
	if err := s.Put(k, encoded); err != nil {
		c.storeErrors.Add(1)
		m.storeErrors.Inc()
		return
	}
	c.diskPuts.Add(1)
	m.diskPuts.Inc()
}

// putMemory is the memory-tier insert shared by Put, PutTiered and the
// disk-hit promotion path; it reports whether the plan was stored.
func (c *PlanCache) putMemory(k PlanKey, v *CachedPlan) bool {
	return c.putMemoryOwned(k, v, 0)
}

// putMemoryOwned inserts into the memory tier charging the entry to
// owner. An owner at or over its partition share pays for the insert by
// evicting its own least-recently-used entry, so tenants churn within
// their share instead of flushing each other's plans.
func (c *PlanCache) putMemoryOwned(k PlanKey, v *CachedPlan, owner uint64) bool {
	if c.capacity <= 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		// Replace in place; ownership stays with the first inserter (two
		// tenants compiling the same shareable key race benignly).
		el.Value.(*cacheEntry).value = v
		c.order.MoveToFront(el)
		return true
	}
	m := c.obs.Load()
	if owner != 0 && c.tenants > 1 {
		share := max(c.capacity/c.tenants, 1)
		if c.ownerCount[owner] >= share {
			c.evictOwnerLRULocked(owner)
			c.fairEvictions.Add(1)
			m.fairEvictions.Inc()
		}
	}
	c.entries[k] = c.order.PushFront(&cacheEntry{key: k, value: v, owner: owner})
	if owner != 0 {
		c.ownerCount[owner]++
	}
	for len(c.entries) > c.capacity {
		back := c.order.Back()
		if back == nil {
			break
		}
		c.removeLocked(back)
		c.evictions.Add(1)
		m.evictions.Inc()
	}
	m.entries.Set(int64(len(c.entries)))
	return true
}

// evictOwnerLRULocked drops the owner's least-recently-used entry (the
// one nearest the LRU back). Caller holds mu and has verified the owner
// has at least one resident entry.
func (c *PlanCache) evictOwnerLRULocked(owner uint64) {
	for el := c.order.Back(); el != nil; el = el.Prev() {
		if el.Value.(*cacheEntry).owner == owner {
			c.removeLocked(el)
			c.evictions.Add(1)
			c.obs.Load().evictions.Inc()
			return
		}
	}
}

// removeLocked unlinks one element, maintaining the owner ledger. Caller
// holds mu.
func (c *PlanCache) removeLocked(el *list.Element) {
	ent := el.Value.(*cacheEntry)
	c.order.Remove(el)
	delete(c.entries, ent.key)
	if ent.owner != 0 {
		if c.ownerCount[ent.owner]--; c.ownerCount[ent.owner] <= 0 {
			delete(c.ownerCount, ent.owner)
		}
	}
}

// InvalidateFingerprint drops every plan compiled for the given topology
// fingerprint — from both the memory and the disk tier — and returns how
// many entries were removed in total. Reconfiguration calls it for the
// pre-fault fingerprint so schedules for a dead topology stop pinning LRU
// slots or disk space; in a cache or store shared across engines this also
// evicts the entries of other engines still on that topology, which costs
// them a recompile but never correctness.
func (c *PlanCache) InvalidateFingerprint(fp string) int {
	c.mu.Lock()
	removed := 0
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*cacheEntry).key.Fingerprint == fp {
			c.removeLocked(el)
			removed++
		}
		el = next
	}
	m := c.obs.Load()
	m.invalidated.Add(uint64(removed))
	m.entries.Set(int64(len(c.entries)))
	c.mu.Unlock()
	if s := c.store.Load(); s != nil {
		n := s.InvalidateFingerprint(fp)
		m.invalidated.Add(uint64(n))
		removed += n
	}
	return removed
}

// Len returns the number of resident plans.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats snapshots cache counters across both tiers.
func (c *PlanCache) Stats() CacheStats {
	mem, disk := c.hits.Load(), c.diskHits.Load()
	st := CacheStats{
		Hits:        mem + disk,
		MemoryHits:  mem,
		DiskHits:    disk,
		Misses:      c.misses.Load(),
		Promotions:  c.promotions.Load(),
		DiskPuts:    c.diskPuts.Load(),
		StoreErrors: c.storeErrors.Load(),
		Entries:     c.Len(),
		Evictions:   c.evictions.Load(),
	}
	if s := c.store.Load(); s != nil {
		st.DiskEntries = s.Len()
	}
	return st
}
