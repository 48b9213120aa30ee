// Package plansvc implements the blinkd planning service: a stateless HTTP
// daemon that compiles Blink/NCCL collective schedules on behalf of remote
// engines. A client posts a PlanRequest (base machine, device allocation,
// timing model, plan-key coordinates); the server resolves it through its
// own tiered plan cache — memory, then the shared on-disk PlanStore, then a
// fresh compile — and returns the versioned binary blob core.EncodePlan
// produces. Because plans are regenerated from their IR on decode, one
// blinkd can serve many training processes: the expensive spanning-tree
// packing happens once per (topology, op, size) anywhere in the fleet.
package plansvc

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"

	"blink/internal/collective"
	"blink/internal/obs"
	"blink/internal/topology"
)

// PlanPath is the planning endpoint.
const PlanPath = "/v1/plan"

// maxRequestBytes bounds a request body; plan requests are small JSON.
const maxRequestBytes = 1 << 20

// maxEngines bounds how many allocations' engines the server keeps: clients
// choose (machine, devs, config) freely, so without a bound the map grows by
// one engine per distinct triple, forever.
const maxEngines = 64

// Server compiles plans for PlanRequests. Engines are cached per
// (machine, devs, config), the newest maxEngines of them, so repeated
// requests for the same allocation reuse warm packings; all engines share
// one PlanCache (keys embed the topology fingerprint, so allocations never
// collide, and a dropped engine's plans keep being served from it) backed by
// an optional PlanStore. A request no schedule can be generated for — an
// unknown machine, backend or op, a payload below one float32 or of more
// chunks than a schedule may have — is refused with a 422 naming the reason
// before any planner runs (Engine.PlanBlob validates).
type Server struct {
	mu      sync.Mutex
	engines map[string]*collective.Engine
	// order lists the keys of engines, oldest first.
	order []string
	cache *collective.PlanCache
	reg   *obs.Registry

	mRequests *obs.Counter
	mServed   *obs.Counter
	mErrors   *obs.Counter
}

// NewServer builds a planning server. store is the shared on-disk tier
// (nil = memory-only); cacheCap is the in-memory plan capacity (0 = the
// collective default).
func NewServer(store *collective.PlanStore, cacheCap int) *Server {
	if cacheCap <= 0 {
		cacheCap = collective.DefaultPlanCacheCapacity
	}
	cache := collective.NewPlanCache(cacheCap)
	cache.SetStore(store)
	reg := obs.NewRegistry()
	cache.Instrument(reg)
	return &Server{
		engines:   map[string]*collective.Engine{},
		cache:     cache,
		reg:       reg,
		mRequests: reg.Counter("blinkd_requests_total"),
		mServed:   reg.Counter("blinkd_plans_served_total"),
		mErrors:   reg.Counter("blinkd_errors_total"),
	}
}

// Metrics returns the server's metrics registry (cache tiers + request
// counters), exported at /metrics.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Handler returns the HTTP mux: POST /v1/plan, GET /healthz, GET /metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PlanPath, s.handlePlan)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		s.reg.WritePrometheus(w)
	})
	return mux
}

// resolveMachine maps a request's machine coordinates to a base topology.
func resolveMachine(req collective.PlanRequest) (*topology.Topology, error) {
	switch strings.ToLower(req.Machine) {
	case "":
		if req.MachineSpec == "" {
			return nil, fmt.Errorf("plansvc: request names no machine")
		}
		return topology.Parse(req.MachineSpec)
	case "dgx1p", "dgx-1p":
		return topology.DGX1P(), nil
	case "dgx1v", "dgx-1v":
		return topology.DGX1V(), nil
	case "dgx2", "dgx-2":
		return topology.DGX2(), nil
	default:
		return nil, fmt.Errorf("plansvc: unknown machine %q", req.Machine)
	}
}

// engineFor returns (creating and caching) the engine for one allocation.
func (s *Server) engineFor(req collective.PlanRequest) (*collective.Engine, error) {
	machine, err := resolveMachine(req)
	if err != nil {
		return nil, err
	}
	devs := append([]int(nil), req.Devs...)
	sort.Ints(devs)
	cfg := req.Config.Normalized()
	key := fmt.Sprintf("%s|%s|%v|%+v", req.Machine, req.MachineSpec, devs, cfg)

	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.engines[key]; ok {
		return e, nil
	}
	e, err := collective.NewEngine(machine, req.Devs, cfg)
	if err != nil {
		return nil, err
	}
	e.SetPlanCache(s.cache)
	if len(s.order) == maxEngines {
		delete(s.engines, s.order[0])
		s.order = append(s.order[:0], s.order[1:]...)
	}
	s.engines[key] = e
	s.order = append(s.order, key)
	return e, nil
}

// Plan resolves one request to an encoded plan blob and its strategy label.
// The fingerprint handshake is the safety rail: the server re-induces the
// topology from the request's machine+devs and refuses to serve when its
// fingerprint differs from the client's — a spec that fails to round-trip
// yields a clean error, never a schedule for the wrong fabric.
func (s *Server) Plan(req collective.PlanRequest) ([]byte, string, error) {
	e, err := s.engineFor(req)
	if err != nil {
		return nil, "", err
	}
	if req.Fingerprint != "" && e.Fingerprint() != req.Fingerprint {
		return nil, "", fmt.Errorf("plansvc: topology fingerprint mismatch: client %s, server %s",
			req.Fingerprint, e.Fingerprint())
	}
	opts := collective.Options{
		ChunkBytes: req.ChunkBytes,
		DataMode:   req.DataMode,
		Chain:      req.Chain,
		Neighbors:  req.Neighbors,
	}
	return e.PlanBlob(req.Backend, req.Op, req.Root, req.Bytes, opts)
}

// handlePlan is the HTTP front of Plan: JSON request in, binary blob out.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	s.mRequests.Inc()
	if r.Method != http.MethodPost {
		s.mErrors.Inc()
		http.Error(w, "plansvc: POST required", http.StatusMethodNotAllowed)
		return
	}
	var req collective.PlanRequest
	body := http.MaxBytesReader(w, r.Body, maxRequestBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.mErrors.Inc()
		http.Error(w, "plansvc: bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	blob, strategy, err := s.Plan(req)
	if err != nil {
		s.mErrors.Inc()
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	s.mServed.Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Blink-Strategy", strategy)
	w.Write(blob)
}
