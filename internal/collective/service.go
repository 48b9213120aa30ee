package collective

import (
	"fmt"

	"blink/internal/core"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

// This file is the engine side of the remote-planning path: the PlanService
// abstraction a blinkd client implements, the per-state plan decoder both
// the disk tier and the service path share, and the encode hooks that let
// the tiered cache persist what the engine compiles.

// PlanRequest is everything a stateless planner needs to compile (or serve
// from its own warm tiers) one plan: the base machine, the allocated
// devices, the timing model, and the full plan-key coordinates. Chain and
// Neighbors carry the point-to-point shapes that the key only fingerprints.
type PlanRequest struct {
	// Machine names a well-known machine ("dgx2"); empty when MachineSpec
	// carries a parseable point-to-point topology spec instead.
	Machine string `json:"machine,omitempty"`
	// MachineSpec is topology.Topology.Spec() of the base machine.
	MachineSpec string `json:"machineSpec,omitempty"`
	// Devs is the allocated physical device set.
	Devs []int `json:"devs"`
	// Config is the client's normalized timing model.
	Config simgpu.Config `json:"config"`
	// Fingerprint is the client's induced-topology fingerprint; the server
	// verifies its own induction matches before compiling, so a spec that
	// fails to round-trip yields a clean error instead of a foreign plan.
	Fingerprint string  `json:"fingerprint"`
	Backend     Backend `json:"backend"`
	Op          Op      `json:"op"`
	Root        int     `json:"root"`
	Bytes       int64   `json:"bytes"`
	// ChunkBytes is the client's resolved chunk size, so the server compiles
	// the identical schedule the client would have.
	ChunkBytes int64   `json:"chunkBytes"`
	DataMode   bool    `json:"dataMode"`
	Chain      []int   `json:"chain,omitempty"`
	Neighbors  [][]int `json:"neighbors,omitempty"`
}

// PlanService fetches encoded plans from a remote planner (cmd/blinkd). A
// fetch returns the versioned blob EncodePlan produced on the server; the
// engine validates and decodes it exactly like a disk-tier hit.
type PlanService interface {
	FetchPlan(req PlanRequest) ([]byte, error)
}

// SetPlanService attaches a remote planning service consulted after both
// cache tiers miss and before compiling locally (nil detaches). Any service
// failure silently falls back to the local compile.
func (e *Engine) SetPlanService(svc PlanService) { e.svc = svc }

// SetPlanStore attaches an on-disk plan store as the cache's second tier
// (nil detaches). Convenience for e.PlanCacheHandle().SetStore(s).
func (e *Engine) SetPlanStore(s *PlanStore) { e.cache.SetStore(s) }

// fabricFor resolves an IR fabric selector against this state's planes
// (nil for a plane the state does not have, or an unknown selector).
func (st *engineState) fabricFor(sel core.FabricSel) *simgpu.Fabric {
	if int(sel) >= len(st.fabrics) {
		return nil
	}
	return st.fabrics[sel]
}

// planDecoder returns the rehydration callback for one engine state: it
// validates a blob's header against the state's topology and timing model,
// regenerates the schedule over the state's fabric (data-mode Exec closures
// included), and wraps it as a cache value.
func (e *Engine) planDecoder(st *engineState) PlanDecoder {
	return func(encoded []byte) (*CachedPlan, error) {
		fp, err := core.DecodePlan(encoded, st.fabricFor)
		if err != nil {
			return nil, err
		}
		return &CachedPlan{Plan: fp, Strategy: fp.IR().Strategy}, nil
	}
}

// encodeCachedPlan serializes a cache value for the disk tier, or nil when
// the plan is not serializable (cluster plans, plans without an IR) or the
// encoding fails — in which case the plan simply stays memory-only.
func encodeCachedPlan(cp *CachedPlan) []byte {
	if cp == nil || cp.Plan == nil || cp.Plan.IR() == nil {
		return nil
	}
	blob, err := core.EncodePlan(cp.Plan)
	if err != nil {
		return nil
	}
	return blob
}

// fetchFromService asks the configured remote planner for the plan and, on
// success, publishes it to both local tiers. Every failure — transport,
// validation, decode — returns nil so the dispatch falls back to the local
// compile: the service can remove cold-start latency but never availability.
func (e *Engine) fetchFromService(st *engineState, key PlanKey, opts Options) *CachedPlan {
	svc := e.svc
	if svc == nil || st.machine == nil {
		return nil
	}
	req := PlanRequest{
		Devs:        append([]int(nil), st.devs...),
		Config:      e.cfgKey,
		Fingerprint: st.fingerprint,
		Backend:     key.Backend,
		Op:          key.Op,
		Root:        key.Root,
		Bytes:       key.Bytes,
		ChunkBytes:  key.ChunkBytes,
		DataMode:    key.DataMode,
		Chain:       opts.Chain,
		Neighbors:   opts.Neighbors,
	}
	// Builtin machines go by name: their builder-order edge lists don't
	// round-trip through Spec()→Parse onto the same fingerprint, so a spec
	// would always fail the server's handshake. Custom machines built by
	// topology.Parse round-trip fingerprint-stable by construction. Derived
	// (degraded) machines ship their spec and rely on the handshake: when
	// the server's re-parse fingerprints differently it refuses cleanly and
	// this dispatch falls back to the local compile.
	switch {
	case st.machine.Kind == topology.KindDGX2:
		req.Machine = "dgx2"
	case st.machine.Name == "DGX-1P":
		req.Machine = "dgx1p"
	case st.machine.Name == "DGX-1V":
		req.Machine = "dgx1v"
	default:
		req.MachineSpec = st.machine.Spec()
	}
	blob, err := svc.FetchPlan(req)
	if err != nil {
		e.mServiceErrors.Inc()
		return nil
	}
	cp, err := e.planDecoder(st)(blob)
	if err != nil {
		e.mServiceErrors.Inc()
		return nil
	}
	e.mServiceHits.Inc()
	e.cache.PutTiered(key, cp, blob)
	return cp
}

// PlanBlob resolves a plan through the engine's tiers (compiling on a full
// miss) and returns its encoded form — the server half of the planning
// service. Plans without an IR (hybrid) are not servable, and a cluster
// engine serves none.
func (e *Engine) PlanBlob(b Backend, op Op, root int, bytes int64, opts Options) ([]byte, string, error) {
	st := e.st.Load()
	if err := st.machineOnly("PlanBlob"); err != nil {
		return nil, "", err
	}
	cp, _, err := e.lookupOrCompile(st, request{b: b, op: op, root: root, bytes: bytes, opts: opts})
	if err != nil {
		return nil, "", err
	}
	blob := encodeCachedPlan(cp)
	if blob == nil {
		return nil, "", fmt.Errorf("collective: plan is not serializable")
	}
	return blob, cp.Strategy, nil
}
