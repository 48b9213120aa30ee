package core

import (
	"fmt"
	"math"

	"blink/internal/graph"
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
	// full per-root one-hop set for the DGX-2 AllReduce. A Broadcast on the
	// NVLink plane may carry a second, its root's packing of the PCIe plane
	// (Topology.PCIeGraph), which lets CodeGen race the hybrid shape.
	Packings []*Packing
	// Chain is the SendRecv rank chain; Neighbors the halo-exchange send
	// lists (their kinds only).
	Chain     []int
	Neighbors [][]int
	// Pairs is the expanded point-to-point transfer list of the ring P2P
	// kind; Chained marks an ordered pipeline (SendRecv).
	Pairs   []IRPair
	Chained bool
	// Row is the candidate-table row an auto-chunk tree IR's schedule won
	// (PlanIR.tuned), which CodeGen then builds without racing; the zero Row
	// records none.
	Row Row
}

// Row is one row of the candidate table: a schedule's shape and its
// resolved chunk.
type Row struct {
	Shape Shape
	Chunk int64
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
	// Baseline kinds are the NCCL schedules (ring*.go, dbtree.go). A kind
	// names a schedule; the plane it walks — NVLink rings, the PCIe fallback
	// ring, the switch ring — is the IR's Fabric. The rings are not
	// serialized: they are a deterministic function of the fabric graph
	// (logicalRings), so a decoding process recomputes the identical rings
	// the encoder scheduled over.
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
	if names := [...]string{"nvlink", "pcie", "switch"}; int(s) < len(names) {
		return names[s]
	}
	return fmt.Sprintf("FabricSel(%d)", int(s))
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
	if err := ir.checkRow(); err != nil {
		return err
	}
	n := ranksOf(f)
	graphs := [2]*graph.Graph{f.Graph, f.Graph}
	switch ir.Kind {
	case IRTreeBroadcast, IRTreeGather, IRTreeAllReduce, IRTreeAllGather,
		IRTreeReduce, IRTreeReduceScatter, IRTreeScatter:
		if len(ir.Packings) == 2 && ir.Kind == IRTreeBroadcast && ir.Fabric == FabricNVLink && f.Topo != nil {
			graphs[1] = f.Topo.PCIeGraph() // the root's PCIe packing, for the hybrid shape
		} else if len(ir.Packings) != 1 && (len(ir.Packings) != 2 || ir.Kind != IRTreeAllReduce) {
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
	for i, p := range ir.Packings {
		if p == nil {
			return fmt.Errorf("core: IR packing %d is nil", i)
		}
		if err := p.Validate(graphs[min(i, 1)]); err != nil {
			return fmt.Errorf("core: IR packing %d invalid: %w", i, err)
		}
		if i == 1 && ir.Kind != IRTreeAllToAll && ir.Kind != IRDGX2AllReduce && p.Root != ir.Packings[0].Root {
			return fmt.Errorf("core: IR's second packing is rooted at %d, its first at %d", p.Root, ir.Packings[0].Root)
		}
	}
	return nil
}

// treePasses is how often each tree kind whose auto chunk the tree model
// sizes (treeChunk) crosses its trees: every other kind, and every kind on
// the switch plane, takes ResolveChunk's.
var treePasses = map[IRKind]int{IRTreeBroadcast: 1, IRTreeReduce: 1, IRTreeAllReduce: 2}

// MaxPlanOps is the compile budget: CodeGen refuses an IR whose schedule
// opCount bounds above it, before building any op, since a schedule's
// memory and compile time grow with its ops, and a plan request or a
// decoded blob names any payload and chunk. The largest bound of a schedule
// this repository's tests, figures and benchmark compile is ~523K ops; an
// explicit 4-byte chunk exceeds the budget on a full-DGX-1V AllReduce from
// ~170 KB.
const MaxPlanOps = 1 << 20

// PlanBudgetError is CodeGen's refusal of an IR above MaxPlanOps.
type PlanBudgetError struct {
	Kind IRKind
	// Ops is opCount's bound on the schedule's ops.
	Ops int64
}

func (e *PlanBudgetError) Error() string {
	return fmt.Sprintf("core: a %v schedule of up to %d ops exceeds the %d-op compile budget; raise the chunk", e.Kind, e.Ops, MaxPlanOps)
}

// opPasses is how many ops each kind emits per chunk and edge of a tree or
// ring hop, at most: one copy, a reduce-class kind's send and reduce up,
// and an AllReduce-class kind's copy down too.
var opPasses = map[IRKind]float64{
	IRTreeReduce: 2, IRTreeReduceScatter: 2,
	IRTreeAllReduce: 3, IRTreeAllGather: 3, IRDGX2AllReduce: 3, IRRingAllReduce: 3, IRDBTreeAllReduce: 3,
}

// opCount bounds the ops CodeGen emits for the IR at chunk c, before it
// builds any: chunks per tree, plus a partial one per tree and rank slice,
// × tree edges (a spanning tree's, or a ring's hops, fewer than its
// vertices) × the legs of an edge (two through a switch) × passes
// (opPasses). A kind without packings counts every edge-disjoint ring the
// graph could hold as a tree. AllToAll scatters from every rank, a chain
// forwards across a path per link, a neighbour exchange sends once per
// listed neighbour, and a P2P kind chunks each pair's own bytes. It counts
// in floats, so that no payload, however hostile, overflows it.
func (ir *PlanIR) opCount(f *simgpu.Fabric, c int64) int64 {
	n, edges := int64(max(1, ranksOf(f))), float64(f.Graph.N)
	trees, chunks, passes := int64(len(f.Graph.Edges))/n+1, float64(ir.Bytes/c+1), max(1, opPasses[ir.Kind])
	if len(ir.Packings) > 0 {
		trees = 0
	}
	for _, p := range ir.Packings {
		trees += int64(len(p.Trees))
	}
	switch ir.Kind {
	case IRTreeAllToAll:
		chunks *= float64(n)
	case IRSendRecvChain:
		passes = float64(len(ir.Chain))
	case IRNeighborExchange:
		passes = 0
		for _, row := range ir.Neighbors {
			passes += float64(len(row))
		}
	case IRRingP2P:
		for _, p := range ir.Pairs {
			chunks += float64(p.Bytes/c + 1)
		}
	}
	if len(f.Graph.Edges) > 0 {
		edges *= float64(len(f.EdgeLinks(0)))
	}
	// A partial chunk carries a float at least, bar a ring's n segments.
	return int64(min((chunks+float64(min(trees*n, max(n, ir.Bytes/4))))*edges*passes, 1<<62))
}

// Shape is one schedule a tree kind can compile to.
type Shape uint8

const (
	// ShapeTrees pipelines the payload over a packing's trees from its root.
	ShapeTrees Shape = iota
	// ShapeRankRooted reduces slice r of an AllReduce to rank r and
	// broadcasts it from there (BuildRankRootedAllReducePlan).
	ShapeRankRooted
	// ShapeCentered reduces each tree's share of an AllReduce to the tree's
	// center and broadcasts it from there (BuildCenteredAllReducePlan).
	ShapeCentered
	// ShapeHybrid splits a Broadcast between Packings[0]'s NVLink trees and
	// Packings[1]'s PCIe trees by Equation 8 (BuildHybridBroadcastPlan).
	ShapeHybrid
)

// String names the shape.
func (s Shape) String() string {
	if names := [...]string{"trees", "rank-rooted", "centered", "hybrid"}; int(s) < len(names) {
		return names[s]
	}
	return fmt.Sprintf("Shape(%d)", int(s))
}

// checkRow rejects a recorded row that tuned could not have recorded for the
// IR: a chunk outside the payload, a row on an IR tuned does not race, a
// shape the IR's kind or packings cannot build, or a row of an AllReduce
// that still carries two packings.
func (ir *PlanIR) checkRow() error {
	r, kind := ir.Row, ir.Kind
	shaped := r.Shape == ShapeTrees || (r.Shape == ShapeRankRooted || r.Shape == ShapeCentered) && kind == IRTreeAllReduce ||
		r.Shape == ShapeHybrid && kind == IRTreeBroadcast && ir.Fabric == FabricNVLink && len(ir.Packings) == 2
	if r == (Row{}) || shaped && r.Chunk > 0 && r.Chunk <= ir.Bytes && ir.Opts.ChunkBytes <= 0 && treePasses[kind] > 0 &&
		ir.Fabric != FabricSwitch && (kind != IRTreeAllReduce || len(ir.Packings) == 1) {
		return nil
	}
	return fmt.Errorf("core: a %v IR of %d B cannot record a %v row at %d B", kind, ir.Bytes, r.Shape, r.Chunk)
}

// tuned races the IR's candidate table and compiles the winner. A row is a
// packing, a shape and a chunk, and the rows come packing by packing: an
// AllReduce that carries a second packing, its undirected one
// (Undirected.For, which returns one only when it beats the directed one as
// an AllReduce), races it first and the directed one after; every other IR
// its first packing. Each packing races the chunk its tree model picks
// (treeChunk) and the next chunk up its grid, since the model errs small
// where links are shared — by trees, or by an AllReduce's two passes — as
// it charges a chunk stage one tree's launch and wire latency. An AllReduce
// then races, at the packing's better chunk, the rank-rooted shape (of at
// least a float per rank) and the centered one, and the centered one again
// at the chunk the model prices at its trees' radius, which a centered
// chunk crosses instead of their depth from the root. After every packing's
// rows, an AllReduce races one more: its shallow packing (shallow, a tree of
// least height per rank, built here from the fabric's graph) centered at its
// radius chunk, which latency-bound payloads favour. A row is skipped when its
// schedule would exceed the compile budget or, after the first packing, when
// its LowerBound is no less than the incumbent's makespan, since it cannot
// then finish sooner; the shallow row also when its busiest link's ops,
// wire latency included, take as long. A
// Broadcast that carries its root's PCIe packing last races the hybrid at
// rule, ResolveChunk's chunk, once its trees take longer than the
// peer-access switch every PCIe op waits for (peerSwitch), below which the
// hybrid cannot win, and only when the hybrid's calibration probes fit the
// compile budget. A row is kept only if it finishes strictly sooner than
// every row before it. An IR that records the row it won (PlanIR.Row) races
// that row alone, so a decoded plan builds its one schedule. The trials build timing-only schedules on an arena
// kept between compiles (arenas). The winner is built again into tables
// sized to it when tables is set or it moves data, bar a timing-only
// hybrid, which owns its tables and is kept as it is; otherwise the plan
// has no ops, only the winner's simulated run, which Freeze keeps either
// way. tuned returns, beside the plan, a copy of the IR the winner was built
// from — one packing of an AllReduce's two, or its shallow one — that
// records the winning row.
func (ir *PlanIR) tuned(f *simgpu.Fabric, opts PlanOptions, first [2]int64, tables bool) (*Plan, *PlanIR, error) {
	var ar *opArena
	select {
	case ar = <-arenas:
	default:
		ar = &opArena{streams: map[[6]int32]int{}}
	}
	defer func() {
		select {
		case arenas <- ar:
		default:
		}
	}()
	final, won, rule, pick := opts, ShapeTrees, opts.ChunkBytes, ir
	var best *simRun
	var plan *Plan
	var ops, deps int
	var err error
	opts.DataMode = false
	// trial races one row and returns its makespan, +Inf when its schedule
	// cannot be built or run.
	trial := func(one *PlanIR, c int64, s Shape) float64 {
		opts.ChunkBytes, opts.arena = c, ar
		p, berr := one.build(f, opts, s)
		if berr != nil {
			if best == nil {
				err = berr
			}
			return math.Inf(1)
		}
		ar = ar.fit(p)
		r := p.run(&ar.sim, ar.order[:0])
		if ar.order = r.order; best == nil || r.err == nil && r.res.Makespan < best.res.Makespan {
			// The next trial records its launch order in the other buffer.
			ar.order, ar.spare = ar.spare, r.order
			kept := r // only a kept run outlives the trial
			best, final.ChunkBytes, won, plan, pick, err = &kept, c, s, p, one, nil
			ops, deps = p.size()
		}
		if r.err != nil {
			return math.Inf(1)
		}
		return r.res.Makespan
	}
	ones := []*PlanIR{ir}
	if ir.Row != (Row{}) {
		// A recorded row is the whole table.
		trial(ir, ir.Row.Chunk, ir.Row.Shape)
		ones = nil
	} else if ir.Kind == IRTreeAllReduce && len(ir.Packings) == 2 {
		und, dir := *ir, *ir
		und.Packings, dir.Packings = ir.Packings[1:], ir.Packings[:1:1]
		ones = []*PlanIR{&und, &dir}
	}
	var sp *Packing
	var rev []int
	if ones != nil && ir.Kind == IRTreeAllReduce {
		var rerr error
		if rev, rerr = reverseEdges(f.Graph); rerr == nil {
			// The trial arena lends the packing its working memory.
			ar.b.sc.reset()
			if sp = shallow(f.Graph, ranksOf(f), ir.Packings[0].Root, ir.Packings[0].Bound, rev, &ar.b.sc); sp != nil {
				last := *ir
				last.Packings = []*Packing{sp}
				ones = append(ones, &last)
			}
		}
	}
	for _, one := range ones {
		bound, chunks := 0.0, first
		if best != nil {
			bound = one.LowerBound(f)
		}
		row := func(c int64, s Shape) float64 {
			if one.opCount(f, c) > MaxPlanOps || best != nil && best.err == nil && bound >= best.res.Makespan {
				return math.Inf(1)
			}
			return trial(one, c, s)
		}
		if one.Packings[0] == sp {
			// A link serves one op at a time, and every chunk of a tree's
			// share crosses each of the tree's links once each way: the
			// busiest link's ops, each paying its wire latency, after one
			// op's launch, bound the row too (its trees weigh the same, so
			// each tree's share is at least share bytes).
			c, share := treeChunk(f, sp, ir.Bytes, treePasses[ir.Kind], centered)[0], max(0, ir.Bytes/4/int64(len(sp.Trees))-1)*4
			bound = max(bound, f.Cfg.OpOverhead+allReduceLoad(f.Graph, sp, rev, func(e int) float64 {
				l := f.Links[f.EdgeLinks(e)[0]]
				return sp.Trees[0].Weight / (float64(share/c)*l.Latency + float64(share)/(l.BW*1e9))
			}))
			row(c, ShapeCentered)
			continue
		}
		if one.Packings[0] != ir.Packings[0] {
			chunks = treeChunk(f, one.Packings[0], ir.Bytes, treePasses[ir.Kind], one.Packings[0].Root)
		}
		at, fastest := chunks[0], math.Inf(1)
		for _, c := range chunks[:1+min(1, chunks[1]-chunks[0])] {
			if ms := row(c, ShapeTrees); ms < fastest {
				at, fastest = c, ms
			}
		}
		if ir.Kind == IRTreeAllReduce && best != nil {
			if ir.Bytes/4 >= int64(ranksOf(f)) {
				row(at, ShapeRankRooted)
			}
			// Trees all centered at the root hang as the root-hung rows did,
			// so their centered rows could never win. A centered chunk
			// crosses each tree's radius, not its depth from the root, so
			// the model prices it again there.
			if !rootCentered(f, one.Packings[0]) {
				row(at, ShapeCentered)
				if c := treeChunk(f, one.Packings[0], ir.Bytes, treePasses[ir.Kind], centered)[0]; c != at {
					row(c, ShapeCentered)
				}
			}
		}
	}
	probe := *ir
	probe.Bytes = hybridProbeBytes
	if ones != nil && ir.Kind == IRTreeBroadcast && len(ir.Packings) == 2 && best != nil && best.err == nil && best.res.Makespan > peerSwitch(f) && probe.opCount(f, rule) <= MaxPlanOps {
		trial(ir, rule, ShapeHybrid)
	}
	switch {
	case best == nil:
		return nil, nil, err
	case won == ShapeHybrid && !final.DataMode:
		// A timing-only hybrid trial owns its tables (build gives it no
		// arena), so it is the plan.
	case !tables && !final.DataMode:
		// The trial's tables go back to the arena; the plan keeps only its
		// simulated run.
		plan = &Plan{TotalBytes: plan.TotalBytes, Fabric: f}
	default:
		if won != ShapeHybrid {
			// The plan keeps its ops and dependencies, not its stream table.
			final.arena = newArena(ops, deps)
			final.arena.streams = ar.streams
		}
		plan, err = pick.build(f, final, won)
	}
	if err != nil {
		return nil, nil, err
	}
	best.order = append(make([]int32, 0, len(best.order)), best.order...)
	plan.memo = best
	// A chunk past the payload moves it in one chunk per share, as the
	// payload itself does, which is what the row records.
	out := *pick
	out.Row = Row{won, min(final.ChunkBytes, ir.Bytes&^3)}
	if won == ShapeHybrid {
		// The label travels with the IR, so a decoded plan reports it too.
		out.Strategy = "hybrid"
	}
	return plan, &out, nil
}

// opArena is memory a plan's builder carves its ops, their dependencies and
// its stream table from before allocating its own (planBuilder.add), the
// builder itself with its scratch (newBuilder), and the simulator and launch
// order of a trial (PlanIR.tuned).
type opArena struct {
	b       planBuilder
	ops     []simgpu.Op
	ptrs    []*simgpu.Op
	deps    []int
	streams map[[6]int32]int
	order   []int32
	spare   []int32
	sim     simgpu.Sim
}

func newArena(ops, deps int) *opArena {
	return &opArena{ops: make([]simgpu.Op, 0, ops), ptrs: make([]*simgpu.Op, 0, ops), deps: make([]int, 0, deps)}
}

// fit returns the arena, or one grown to hold p when p outgrew it.
func (a *opArena) fit(p *Plan) *opArena {
	if ops, deps := p.size(); ops > cap(a.ops) || deps > cap(a.deps) {
		grown, ops := *a, max(ops, cap(a.ops))
		grown.ops, grown.ptrs, grown.deps = make([]simgpu.Op, 0, ops), make([]*simgpu.Op, 0, ops), make([]int, 0, max(deps, cap(a.deps)))
		return &grown
	}
	return a
}

// size counts the plan's ops and their dependencies.
func (p *Plan) size() (ops, deps int) {
	for _, op := range p.Ops {
		deps += len(op.Deps)
	}
	return len(p.Ops), deps
}

// arenas keeps a trial arena between compiles, like a sync.Pool that a
// collection does not empty and whose per-processor caches do not miss when
// a compile changes processor: either would cost a compile its arena anew.
// It keeps two, one per concurrent compile on a two-core host, since each
// holds the largest trial schedule it has seen and its simulator (~0.6 MB
// at 3,565 ops).
var arenas = make(chan *opArena, 2)

// CodeGen regenerates a plan from its IR over the given fabric. It is a
// pure function of (IR, fabric): byte-identical IRs over identical fabrics
// produce identical schedules, which is what makes the serialized form a
// faithful plan transport. The returned plan carries the IR, so freezing it
// preserves round-trip ability: a tuned IR records the row its schedule won
// with (PlanIR.Row) and, of an AllReduce's two packings, only that row's,
// which compile to the same schedule again without a race.
func CodeGen(ir *PlanIR, f *simgpu.Fabric) (*Plan, error) { return codeGen(ir, f, true) }

// Compile is CodeGen followed by Freeze. A timing plan CodeGen's trial
// raced is frozen from the winning trial's run, and its op tables are never
// built.
func Compile(ir *PlanIR, f *simgpu.Fabric) (*FrozenPlan, error) {
	plan, err := codeGen(ir, f, false)
	return plan.Freeze(), err
}

// codeGen is CodeGen, building a tuned timing plan's op tables only when
// tables is set.
func codeGen(ir *PlanIR, f *simgpu.Fabric, tables bool) (*Plan, error) {
	if ir == nil {
		return nil, fmt.Errorf("core: nil plan IR")
	}
	if f == nil {
		return nil, fmt.Errorf("core: nil fabric")
	}
	if err := ir.validate(f); err != nil {
		return nil, err
	}
	opts := ir.Opts
	opts.ChunkBytes = ResolveChunk(ir.Bytes, opts.ChunkBytes)
	// An auto chunk stays 0 in the IR, so a plan recomputes it, and the
	// shape, here, unless the IR records the row that won; the budget counts
	// the smallest chunk a trial of the first packing tries, and tuned holds
	// every other packing's rows to it.
	chunks, passes, budget := [2]int64{opts.ChunkBytes}, treePasses[ir.Kind], *ir
	tune := passes > 0 && ir.Opts.ChunkBytes <= 0 && ir.Fabric != FabricSwitch
	if ir.Row != (Row{}) {
		opts.ChunkBytes, chunks = ir.Row.Chunk, [2]int64{ir.Row.Chunk, ir.Row.Chunk}
		// The hybrid probes each plane at hybridProbeBytes in the row's chunk.
		if ir.Row.Shape == ShapeHybrid {
			budget.Bytes = max(ir.Bytes, hybridProbeBytes)
		}
	} else if tune {
		chunks = treeChunk(f, ir.Packings[0], ir.Bytes, passes, ir.Packings[0].Root)
	}
	if ir.Kind == IRTreeAllReduce {
		budget.Packings = ir.Packings[:1]
	}
	if ops := budget.opCount(f, min(opts.ChunkBytes, chunks[0])); ops > MaxPlanOps {
		return nil, &PlanBudgetError{Kind: ir.Kind, Ops: ops}
	}
	var plan *Plan
	var err error
	out := ir
	if tune {
		plan, out, err = ir.tuned(f, opts, chunks, tables)
	} else {
		plan, err = ir.build(f, opts, ShapeTrees)
	}
	if err != nil {
		return nil, err
	}
	plan.IR = out
	return plan, nil
}

// build is CodeGen's dispatch on a validated IR, with its chunk resolved,
// into shape s (ShapeTrees for every kind but the two tuned races another
// shape of).
func (ir *PlanIR) build(f *simgpu.Fabric, opts PlanOptions, s Shape) (*Plan, error) {
	switch ir.Kind {
	case IRTreeBroadcast:
		if s == ShapeHybrid {
			// Two plans, one per plane, cannot share one arena's slabs.
			opts.arena = nil
			pcie := simgpu.NewFabric(f.Topo, f.Topo.PCIeGraph(), f.Cfg)
			plan, split, err := BuildHybridBroadcastPlan(f, ir.Packings[0], pcie, ir.Packings[1], ir.Bytes, opts)
			if err == nil && split.PCIeBytes == 0 {
				err = fmt.Errorf("core: the hybrid split puts nothing on PCIe")
			}
			return plan, err
		}
		return BuildBroadcastPlan(f, ir.Packings[0], ir.Bytes, opts)
	case IRTreeGather:
		return BuildGatherPlan(f, ir.Packings[0], ir.Bytes, opts)
	case IRTreeAllReduce, IRTreeAllGather:
		switch s {
		case ShapeRankRooted:
			return BuildRankRootedAllReducePlan(f, ir.Packings[0], ir.Bytes, opts)
		case ShapeCentered:
			return BuildCenteredAllReducePlan(f, ir.Packings[0], ir.Bytes, opts)
		}
		return BuildAllReducePlan(f, ir.Packings[0], ir.Bytes, opts)
	case IRTreeReduce, IRTreeReduceScatter:
		plan, _, err := BuildReducePlan(f, ir.Packings[0], ir.Bytes, opts)
		return plan, err
	case IRTreeScatter:
		return BuildScatterPlan(f, ir.Packings[0], ir.Bytes, opts)
	case IRTreeAllToAll:
		packs := ir.Packings
		return BuildAllToAllPlan(f, func(r int) (*Packing, error) {
			if r < 0 || r >= len(packs) {
				return nil, fmt.Errorf("core: IR has no packing for rank %d", r)
			}
			return packs[r], nil
		}, ir.Bytes, opts)
	case IRSendRecvChain:
		return BuildSendRecvChainPlan(f, ir.Chain, ir.Bytes, opts)
	case IRNeighborExchange:
		return BuildNeighborExchangePlan(f, ir.Neighbors, ir.Bytes, opts)
	case IRDGX2AllReduce:
		return BuildDGX2AllReducePlan(f, ir.Packings, ir.Bytes, opts)
	case IRRingBroadcast:
		return BuildRingBroadcastPlan(f, ir.Fabric, ir.Root, ir.Bytes, opts)
	case IRRingAllReduce:
		return BuildRingAllReducePlan(f, ir.Fabric, ir.Bytes, opts)
	case IRRingP2P:
		return BuildRingP2PPlan(f, ir.Fabric, ir.Pairs, ir.Chained, opts)
	case IRDBTreeAllReduce:
		return BuildDBTreeAllReducePlan(f, ir.Bytes, opts)
	}
	return nil, fmt.Errorf("core: no builder for IR kind %v", ir.Kind)
}
