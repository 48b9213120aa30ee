package core

import (
	"fmt"
	"sync"

	"blink/internal/simgpu"
)

// PlanIR is the serializable intermediate representation that sits between
// packing and codegen: everything CodeGen needs to regenerate a schedule —
// packed trees (or one-hop tree sets), chunking, op kind/root/shape and the
// fabric plane it targets — with no closures and no pointers into a live
// engine. An IR plus a fabric deterministically reproduces the plan it was
// recorded from, including data-mode Exec closures, which is what lets a
// frozen plan round-trip through the on-disk encoding (encode.go) and be
// rehydrated in a different process.
type PlanIR struct {
	Kind   IRKind
	Fabric FabricSel
	// Strategy is the engine-reported strategy label ("trees", "rings",
	// "one-hop+alltoall", ...); carried so a decoded plan reports the same
	// strategy the compiling process saw.
	Strategy string
	Root     int
	Bytes    int64
	Opts     PlanOptions
	// Packings carries the packed spanning trees for tree-scheduled kinds:
	// exactly one for rooted ops, one per source rank for AllToAll, and the
	// full per-root one-hop set for the DGX-2 AllReduce.
	Packings []*Packing
	// Chain is the SendRecv rank chain; Neighbors the halo-exchange send
	// lists (their kinds only).
	Chain     []int
	Neighbors [][]int
	// Pairs is the expanded point-to-point transfer list of the ring P2P
	// kind; Chained marks an ordered pipeline (SendRecv).
	Pairs   []IRPair
	Chained bool
}

// IRPair is one directed point-to-point transfer of a P2P-kind IR.
type IRPair struct {
	Src, Dst int
	Bytes    int64
}

// IRKind identifies which builder CodeGen dispatches an IR to.
type IRKind uint8

const (
	// Tree kinds schedule over Packings[0] (core builders).
	IRTreeBroadcast IRKind = iota + 1
	IRTreeGather
	IRTreeAllReduce
	IRTreeAllGather
	IRTreeReduce
	IRTreeReduceScatter
	IRTreeScatter
	// IRTreeAllToAll schedules every source's scatter over Packings[src].
	IRTreeAllToAll
	IRSendRecvChain
	IRNeighborExchange
	// IRDGX2AllReduce merges the full one-hop packing set (Packings[root]
	// per root) into the switch-fabric AllReduce.
	IRDGX2AllReduce
	// Baseline kinds are implemented in internal/ring and dispatch through
	// the registered builder hook (RegisterIRBuilder). A kind names a
	// schedule; the plane it walks — NVLink rings, the PCIe fallback ring,
	// the switch ring — is the IR's Fabric, and the rings themselves are
	// recomputed deterministically from the fabric graph.
	IRRingBroadcast
	IRRingAllReduce
	IRRingP2P
	IRDBTreeAllReduce

	irKindMax = IRDBTreeAllReduce
)

// String names the IR kind.
func (k IRKind) String() string {
	names := [...]string{
		IRTreeBroadcast:     "tree-broadcast",
		IRTreeGather:        "tree-gather",
		IRTreeAllReduce:     "tree-allreduce",
		IRTreeAllGather:     "tree-allgather",
		IRTreeReduce:        "tree-reduce",
		IRTreeReduceScatter: "tree-reducescatter",
		IRTreeScatter:       "tree-scatter",
		IRTreeAllToAll:      "tree-alltoall",
		IRSendRecvChain:     "sendrecv-chain",
		IRNeighborExchange:  "neighbor-exchange",
		IRDGX2AllReduce:     "dgx2-allreduce",
		IRRingBroadcast:     "ring-broadcast",
		IRRingAllReduce:     "ring-allreduce",
		IRRingP2P:           "ring-p2p",
		IRDBTreeAllReduce:   "dbtree-allreduce",
	}
	if int(k) < len(names) && names[k] != "" {
		return names[k]
	}
	return fmt.Sprintf("IRKind(%d)", int(k))
}

// FabricSel names the interconnect plane an IR's schedule runs over; the
// decoding engine resolves it to its own live fabric of that plane.
type FabricSel uint8

const (
	FabricNVLink FabricSel = iota
	FabricPCIe
	FabricSwitch
)

// String names the fabric plane.
func (s FabricSel) String() string {
	switch s {
	case FabricNVLink:
		return "nvlink"
	case FabricPCIe:
		return "pcie"
	case FabricSwitch:
		return "switch"
	default:
		return fmt.Sprintf("FabricSel(%d)", int(s))
	}
}

// IRBuilder regenerates a plan from an IR over a fabric. Builders for the
// baseline kinds live in internal/ring (which imports core, so
// core cannot call them directly) and register themselves at init.
type IRBuilder func(ir *PlanIR, f *simgpu.Fabric) (*Plan, error)

var (
	irBuildersMu sync.RWMutex
	irBuilders   = map[IRKind]IRBuilder{}
)

// RegisterIRBuilder installs the codegen hook for an IR kind implemented
// outside internal/core. Later registrations for the same kind win; the
// registry is consulted only for kinds CodeGen does not handle natively.
func RegisterIRBuilder(k IRKind, fn IRBuilder) {
	irBuildersMu.Lock()
	defer irBuildersMu.Unlock()
	irBuilders[k] = fn
}

func irBuilderFor(k IRKind) IRBuilder {
	irBuildersMu.RLock()
	defer irBuildersMu.RUnlock()
	return irBuilders[k]
}

// validate checks the IR's structural invariants before codegen so a
// corrupt or hand-built IR fails with a clean error instead of an index
// panic inside a builder.
func (ir *PlanIR) validate(f *simgpu.Fabric) error {
	if ir.Kind == 0 || ir.Kind > irKindMax {
		return fmt.Errorf("core: unknown IR kind %d", int(ir.Kind))
	}
	if ir.Bytes < 4 {
		return fmt.Errorf("core: IR payload %d too small", ir.Bytes)
	}
	n := ranksOf(f)
	switch ir.Kind {
	case IRTreeBroadcast, IRTreeGather, IRTreeAllReduce, IRTreeAllGather,
		IRTreeReduce, IRTreeReduceScatter, IRTreeScatter:
		if len(ir.Packings) != 1 {
			return fmt.Errorf("core: %v IR needs exactly 1 packing, got %d", ir.Kind, len(ir.Packings))
		}
	case IRTreeAllToAll, IRDGX2AllReduce:
		if len(ir.Packings) != n {
			return fmt.Errorf("core: %v IR needs %d packings (one per rank), got %d", ir.Kind, n, len(ir.Packings))
		}
	case IRSendRecvChain:
		if err := ValidateChain(n, ir.Chain); err != nil {
			return err
		}
	case IRNeighborExchange:
		if err := ValidateNeighbors(n, ir.Neighbors); err != nil {
			return err
		}
	case IRRingP2P:
		if len(ir.Pairs) == 0 {
			return fmt.Errorf("core: %v IR has no transfer pairs", ir.Kind)
		}
		for _, p := range ir.Pairs {
			if p.Src < 0 || p.Src >= n || p.Dst < 0 || p.Dst >= n || p.Src == p.Dst || p.Bytes <= 0 {
				return fmt.Errorf("core: %v IR has invalid pair %d->%d (%d bytes) over %d ranks", ir.Kind, p.Src, p.Dst, p.Bytes, n)
			}
		}
	}
	if ir.Root < 0 || ir.Root >= n {
		// Root is meaningful only for rooted kinds, but every builder indexes
		// with it defensively; a zero root is always in range.
		switch ir.Kind {
		case IRTreeBroadcast, IRTreeGather, IRTreeReduce, IRTreeScatter, IRRingBroadcast:
			return fmt.Errorf("core: IR root %d out of range [0,%d)", ir.Root, n)
		}
	}
	g := f.Graph
	for i, p := range ir.Packings {
		if p == nil {
			return fmt.Errorf("core: IR packing %d is nil", i)
		}
		if err := p.Validate(g); err != nil {
			return fmt.Errorf("core: IR packing %d invalid: %w", i, err)
		}
	}
	return nil
}

// CodeGen regenerates a plan from its IR over the given fabric. It is a
// pure function of (IR, fabric): byte-identical IRs over identical fabrics
// produce identical schedules, which is what makes the serialized form a
// faithful plan transport. The returned plan carries the IR, so freezing it
// preserves round-trip ability.
func CodeGen(ir *PlanIR, f *simgpu.Fabric) (*Plan, error) {
	if ir == nil {
		return nil, fmt.Errorf("core: nil plan IR")
	}
	if f == nil {
		return nil, fmt.Errorf("core: nil fabric")
	}
	if err := ir.validate(f); err != nil {
		return nil, err
	}
	var (
		plan *Plan
		err  error
	)
	switch ir.Kind {
	case IRTreeBroadcast:
		plan, err = BuildBroadcastPlan(f, ir.Packings[0], ir.Bytes, ir.Opts)
	case IRTreeGather:
		plan, err = BuildGatherPlan(f, ir.Packings[0], ir.Bytes, ir.Opts)
	case IRTreeAllReduce, IRTreeAllGather:
		plan, err = BuildAllReducePlan(f, ir.Packings[0], ir.Bytes, ir.Opts)
	case IRTreeReduce, IRTreeReduceScatter:
		plan, _, err = BuildReducePlan(f, ir.Packings[0], ir.Bytes, ir.Opts)
	case IRTreeScatter:
		plan, err = BuildScatterPlan(f, ir.Packings[0], ir.Bytes, ir.Opts)
	case IRTreeAllToAll:
		packs := ir.Packings
		plan, err = BuildAllToAllPlan(f, func(r int) (*Packing, error) {
			if r < 0 || r >= len(packs) {
				return nil, fmt.Errorf("core: IR has no packing for rank %d", r)
			}
			return packs[r], nil
		}, ir.Bytes, ir.Opts)
	case IRSendRecvChain:
		plan, err = BuildSendRecvChainPlan(f, ir.Chain, ir.Bytes, ir.Opts)
	case IRNeighborExchange:
		plan, err = BuildNeighborExchangePlan(f, ir.Neighbors, ir.Bytes, ir.Opts)
	case IRDGX2AllReduce:
		plan, err = BuildDGX2AllReducePlan(f, ir.Packings, ir.Bytes, ir.Opts)
	default:
		fn := irBuilderFor(ir.Kind)
		if fn == nil {
			return nil, fmt.Errorf("core: no codegen builder registered for IR kind %v", ir.Kind)
		}
		plan, err = fn(ir, f)
	}
	if err != nil {
		return nil, err
	}
	plan.IR = ir
	return plan, nil
}

// Ranks exposes the rank count a fabric schedules over (IR builders outside
// core need it to expand rank-indexed shapes).
func Ranks(f *simgpu.Fabric) int { return ranksOf(f) }
