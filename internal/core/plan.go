package core

import (
	"fmt"
	"math"
	"slices"

	"blink/internal/graph"
	"blink/internal/simgpu"
)

// Buffer tags used by generated plans (see simgpu.Fabric.Buffer).
const (
	// BufData is the collective payload (input at the root for Broadcast,
	// per-device input and final result for AllReduce).
	BufData = 0
	// BufAcc is the reduction accumulator. A reduce writes it once from
	// BufData and its sources, which it reads in place (ReduceKernel).
	BufAcc = 1
)

// PlanOptions controls schedule generation (CodeGen, §4.1-4.2).
type PlanOptions struct {
	// ChunkBytes is the pipelining granularity, rounded up to whole float32s.
	// 0 is auto, which CodeGen resolves per kind: the tree Broadcast, Reduce
	// and AllReduce kinds on NVLink or PCIe race a table of rows
	// (PlanIR.tuned) and keep the first that simulates fastest. Each packing
	// the IR carries — an AllReduce's undirected one (Undirected.For) first,
	// when it carries one, then its directed one — races the tree model's
	// pick (treeChunk) and the next chunk up its grid, and an AllReduce then,
	// at the faster of the two, the rank-rooted shape
	// (BuildRankRootedAllReducePlan, of at least a float per rank) and the
	// centered one (BuildCenteredAllReducePlan), then that again at the
	// chunk its trees' radius prices; a Broadcast that carries its root's
	// PCIe packing last races the hybrid (BuildHybridBroadcastPlan, at
	// ResolveChunk's chunk). An AllReduce row whose LowerBound the incumbent
	// already meets is skipped. The plan's IR records the winning row
	// (PlanIR.Row), which a decoded IR builds without a race. Every other
	// kind takes ResolveChunk's. An explicit chunk keeps the single-root
	// schedule over the first packing. A builder called directly takes 4
	// MiB.
	ChunkBytes int64
	// NoStreamReuse disables the §4.2.2 fair-sharing optimization that maps
	// (link, hop-depth) pairs from different trees onto one stream.
	NoStreamReuse bool
	// DataMode generates Exec closures that move real float32 data.
	DataMode bool
	// OffsetFloats shifts the plan's buffer region: the plan covers floats
	// [OffsetFloats, OffsetFloats+bytes/4). Used when several plans (e.g.
	// the per-root DGX-2 one-hop plans) partition one logical buffer.
	OffsetFloats int
	// BroadcastAcc makes a standalone broadcast move BufAcc instead of
	// BufData (data mode). The three-phase multi-server protocol uses it for
	// phase 3: the value being broadcast is the reduced accumulator left by
	// phase 2, not the original input.
	BroadcastAcc bool
	// arena, when set, lends the plan's builder its slabs (PlanIR.tuned).
	arena *opArena
}

// setDefaults resolves ChunkBytes as documented on the field.
func (o *PlanOptions) setDefaults() {
	if o.ChunkBytes <= 0 {
		o.ChunkBytes = 4 << 20
	}
	o.ChunkBytes = ResolveChunk(0, o.ChunkBytes)
}

// MaxPlanChunks bounds a plan's bytes/chunk ratio. A schedule's op count —
// and the memory its generation takes — is linear in it, and a planning
// service takes bytes and chunk sizes straight off the network.
const MaxPlanChunks = 1 << 20

// ResolveChunk is the chunk of every schedule treeChunk does not size: an
// override rounded up to whole float32s or, for auto (0), a sixteenth of
// the payload, at most 2 MiB, so small payloads shrink and multi-hop
// pipelines still overlap.
func ResolveChunk(bytes, chunk int64) int64 {
	if chunk <= 0 {
		chunk = min(max(bytes/16, 4), 2<<20)
	}
	return (chunk + 3) &^ 3
}

// treeChunk is the chunk that minimises the modelled makespan of pipelining
// bytes over p's trees (§3.3, §4.1), each hung from root — p's root, or each
// tree's own center for centered — and crossed passes times (an AllReduce's
// reduce up, then broadcast down). Tree t moves its weighted share S in
// ⌈S/c⌉ chunks along hops = passes × height edges at rate r, its height the
// hops from where it hangs to its farthest vertex and its weight in units of
// its slowest edge's per-unit bandwidth. Every chunk pays an op's launch and
// wire latency plus its own bytes at r, and filling the pipeline adds
// hops − 1 full stages:
//
//	⌈S/c⌉·(OpOverhead + WireLatency) + S/r + (hops − 1)·(OpOverhead + WireLatency + c/r)
//
// The slowest tree sets the makespan. c ranges over a √2 grid from 4 KiB,
// never below what keeps bytes/c within MaxPlanChunks. It returns the
// cheapest c and the grid's next c up (c again when c is the last), and the
// grid's first c when no cost is finite (a denormal weight), never 0, which
// CodeGen would take for auto again.
func treeChunk(f *simgpu.Fabric, p *Packing, bytes int64, passes, root int) [2]int64 {
	type model struct {
		share   int64
		hops    int64
		perByte float64 // 1/r
	}
	g, stage := f.Graph, f.Cfg.OpOverhead+f.Cfg.WireLatency
	trees, scratch := make([]model, len(p.Trees)), make([]int, 2*g.N)
	for i, r := range splitRegions(nil, p.Trees, 0, int(bytes/4), 4) {
		a, unit := p.Trees[i].Arbo, math.Inf(1)
		for _, eid := range a.Edges {
			unit = min(unit, f.Links[f.EdgeLinks(eid)[0]].BW/g.Edges[eid].Cap)
		}
		hops := 0
		if root == centered {
			_, hops = center(g, a, ranksOf(f), scratch)
		} else {
			hops = height(g, a, root, scratch)
		}
		trees[i] = model{int64(r.n) * 4, int64(passes * hops), 1 / (p.Trees[i].Weight * unit * 1e9)}
	}
	floor := ResolveChunk(0, (bytes+MaxPlanChunks-1)/MaxPlanChunks)
	var best [2]int64
	bestCost := math.Inf(1)
	for k, last := 0, false; !last; k++ {
		c := max(floor, [2]int64{4096, 5792}[k%2]<<(k/2))
		cost := 0.0
		last = true
		for _, t := range trees {
			if t.share > 0 {
				chunks := (t.share + c - 1) / c
				cost = max(cost, float64(chunks)*stage+float64(t.share)*t.perByte+float64(t.hops-1)*(stage+float64(c)*t.perByte))
				last = last && chunks == 1
			}
		}
		if k == 0 || cost < bestCost {
			best, bestCost = [2]int64{c, c}, cost
		} else if best[1] == best[0] {
			best[1] = c
		}
	}
	return best
}

// Plan is an executable schedule over a fabric.
type Plan struct {
	Ops        []*simgpu.Op
	TotalBytes int64
	Fabric     *simgpu.Fabric
	// Streams is the number of distinct streams the plan uses.
	Streams int
	// IR is the serializable intermediate representation the plan was
	// generated from (nil for plans built outside CodeGen, i.e. cluster
	// plans; such plans cannot be encoded to disk).
	IR *PlanIR
	// Partitions is the number of payload partitions of a three-phase cluster
	// plan (multiserver.go), each with its own local root per server; zero on
	// every other plan.
	Partitions int
	// memo, when set, is the simulation CodeGen's trials already ran of these
	// very ops (PlanIR.tuned), which Freeze keeps instead of running again.
	memo *simRun
}

// Execute runs the plan for timing and returns the simulated result. Any
// Exec closures run against a throwaway arena; Freeze().ReplayData moves
// real data a caller can observe.
func (p *Plan) Execute() (simgpu.Result, error) { return simgpu.Run(p.Fabric.Links, p.Ops, nil) }

// ThroughputGBs runs the plan and reports TotalBytes/makespan in GB/s.
func (p *Plan) ThroughputGBs() (float64, error) {
	res, err := p.Execute()
	if err != nil || res.Makespan <= 0 {
		return 0, err
	}
	return float64(p.TotalBytes) / res.Makespan / 1e9, nil
}

// treeShape is one tree as a schedule walks it, hung from a root.
type treeShape struct {
	parentEdge []int   // vertex -> incoming tree edge (-1 at root)
	children   [][]int // vertex -> its children, a run of bfs
	bfs        []int   // vertices in BFS order from root
	depth      []int   // vertex depth
	// nparts counts, per vertex, the ranks whose partial sums reach it on the
	// way up (partials).
	nparts []int
}

// shapeOf walks tree a's edges from root in BFS order, taking each vertex's
// children in a's edge order, not vertex order: tree generators stagger
// fan-out order (e.g. rotated one-hop trees on the DGX-2) to avoid convoying
// concurrent trees on one receiver's link. Hung from another root than a's,
// the walk crosses an edge against its direction over rev[edge]: the tree
// re-oriented at root. A root of centered hangs the tree from its center.
// The shape's tables come from sc.
func shapeOf(g *graph.Graph, a graph.Arborescence, root, ranks int, rev []int, sc *scratch) (treeShape, error) {
	n := g.N
	for _, id := range a.Edges {
		if id < 0 || id >= len(g.Edges) {
			return treeShape{}, fmt.Errorf("core: tree references unknown edge %d", id)
		}
	}
	ints := sc.ints.take(4 * n)
	if root == centered && n > 0 {
		root, _ = center(g, a, ranks, ints[:2*n])
	}
	if root < 0 || root >= n {
		return treeShape{}, fmt.Errorf("core: tree root %d outside the graph", root)
	}
	s := treeShape{parentEdge: ints[:n:n], bfs: ints[n : n+1 : 2*n], depth: ints[2*n : 3*n : 3*n], nparts: ints[3*n:], children: sc.lists.take(n)}
	for v := range s.depth {
		s.depth[v] = -1
	}
	s.bfs[0], s.parentEdge[root], s.depth[root] = root, -1, 0
	for i := 0; i < len(s.bfs); i++ {
		v, first := s.bfs[i], len(s.bfs)
		for _, id := range a.Edges {
			c, e := -1, g.Edges[id]
			if e.From == v && s.depth[e.To] < 0 {
				c = e.To
			} else if rev != nil && root != a.Root && e.To == v && s.depth[e.From] < 0 {
				c, id = e.From, rev[id]
			}
			if c >= 0 {
				s.parentEdge[c], s.depth[c] = id, s.depth[v]+1
				s.bfs = append(s.bfs, c)
			}
		}
		s.children[v] = s.bfs[first:len(s.bfs):len(s.bfs)]
	}
	if len(s.bfs) != n || len(a.Edges) != n-1 {
		return s, fmt.Errorf("core: tree does not span graph")
	}
	for i := n - 1; i >= 0; i-- {
		for _, c := range s.children[s.bfs[i]] {
			if c < ranks {
				s.nparts[s.bfs[i]]++
			} else {
				s.nparts[s.bfs[i]] += s.nparts[c]
			}
		}
	}
	return s, nil
}

// centered is the root that hangs each tree from its own center (center).
const centered = -1

// center returns the rank of least height in tree a, ties to the lowest
// rank, and that height.
func center(g *graph.Graph, a graph.Arborescence, ranks int, scratch []int) (best, least int) {
	for r := 0; r < ranks; r++ {
		if h := height(g, a, r, scratch); r == 0 || h < least {
			best, least = r, h
		}
	}
	return best, least
}

// Center is the rank a centered schedule over f hangs tree a from (center)
// and the tree's height there.
func Center(f *simgpu.Fabric, a graph.Arborescence) (rank, height int) {
	return center(f.Graph, a, ranksOf(f), make([]int, 2*f.Graph.N))
}

// height is the fewest hops from vertex r to tree a's farthest vertex: a BFS
// over a's edges, either way, in scratch of 2·g.N ints. a's edges must exist.
func height(g *graph.Graph, a graph.Arborescence, r int, scratch []int) int {
	dist, queue := scratch[:g.N], scratch[g.N:2*g.N]
	for v := range dist {
		dist[v] = -1
	}
	dist[r], queue[0] = 0, r
	tail := 1
	for head := 0; head < tail; head++ {
		v := queue[head]
		for _, id := range a.Edges {
			// u is the edge's other end when v is one of its ends.
			if e := g.Edges[id]; e.From == v || e.To == v {
				if u := e.From + e.To - v; dist[u] < 0 {
					dist[u], queue[tail] = dist[v]+1, u
					tail++
				}
			}
		}
	}
	return dist[queue[tail-1]]
}

// rootCentered reports whether every tree of p has its center at p's root,
// where the centered AllReduce is the root-hung one, op for op.
func rootCentered(f *simgpu.Fabric, p *Packing) bool {
	scratch := make([]int, 2*f.Graph.N)
	return !slices.ContainsFunc(p.Trees, func(t Tree) bool { c, _ := center(f.Graph, t.Arbo, ranksOf(f), scratch); return c != p.Root })
}

// rankSubtrees returns, for every vertex, the GPU ranks (vertex id < ranks)
// of its subtree, itself included, in deterministic order; relay vertices
// carry no payload shard and are dropped. Data-mode Gather/Scatter use
// these lists: the transfer across a tree edge carries one payload shard
// per rank of the subtree hanging below that edge.
func (s *treeShape) rankSubtrees(ranks int) [][]int {
	out := make([][]int, len(s.depth))
	for i := len(s.bfs) - 1; i >= 0; i-- {
		v := s.bfs[i]
		if v < ranks {
			out[v] = append(out[v], v)
		}
		for _, c := range s.children[v] {
			out[v] = append(out[v], out[c]...)
		}
	}
	return out
}

// ranksOf returns the number of payload-bearing (GPU) vertices of a
// fabric's graph: relay vertices such as PCIe hubs forward shards but own
// none.
func ranksOf(f *simgpu.Fabric) int {
	if f.Topo != nil && f.Topo.NumGPUs > 0 && f.Topo.NumGPUs <= f.Graph.N {
		return f.Topo.NumGPUs
	}
	return f.Graph.N
}

// reverseEdges maps each graph edge to an opposite-direction edge of the
// same type (physical links are bidirectional). Parallel reverse edges are
// assigned round-robin so multi-link pairs spread load.
func reverseEdges(g *graph.Graph) ([]int, error) {
	rev := make([]int, len(g.Edges))
	for _, e := range g.Edges {
		var buf [8]int
		cands, k := buf[:0], 0 // e's reverses by ID; e is the k-th of its own kind
		for _, id := range g.Out(e.To) {
			if f := g.Edges[id]; f.To == e.From && f.Type == e.Type {
				cands = append(cands, id)
			}
		}
		for _, id := range g.Out(e.From) {
			if f := g.Edges[id]; f.To == e.To && f.Type == e.Type && id < e.ID {
				k++
			}
		}
		if len(cands) == 0 {
			return nil, fmt.Errorf("core: edge %d->%d has no reverse link", e.From, e.To)
		}
		rev[e.ID] = cands[k%len(cands)]
	}
	return rev, nil
}

// region is a tree's slice of the payload, in float32 units.
type region struct {
	off, n int // floats
	chunks int
}

// splitRegions divides totalFloats across trees proportionally to weight,
// starting at base, and computes per-tree chunk counts for the given chunk
// size, into regions when it holds one per tree. Rounding remainder goes to
// the heaviest tree, so a zero-weight (or lightest) tree is never handed
// payload its capacity share cannot justify. An empty packing — the
// trivialPacking of a one-GPU server, which has nothing to move locally —
// has no regions.
func splitRegions(regions []region, trees []Tree, base, totalFloats int, chunkBytes int64) []region {
	if len(trees) == 0 {
		return nil
	}
	if len(regions) < len(trees) {
		regions = make([]region, len(trees))
	}
	var wsum float64
	heaviest := 0
	for i, t := range trees {
		wsum += t.Weight
		if t.Weight > trees[heaviest].Weight {
			heaviest = i
		}
	}
	chunkFloats := int(chunkBytes / 4)
	assigned := 0
	for i, t := range trees {
		n := int(math.Floor(float64(totalFloats) * t.Weight / wsum))
		regions[i] = region{n: n}
		assigned += n
	}
	regions[heaviest].n += totalFloats - assigned
	off := base
	for i := range regions {
		regions[i].off = off
		off += regions[i].n
		regions[i].chunks = (regions[i].n + chunkFloats - 1) / chunkFloats
	}
	return regions
}

func (r region) chunkSpan(k int, chunkBytes int64) (off, n int) {
	cf := int(chunkBytes / 4)
	off = r.off + k*cf
	return off, min(cf, r.off+r.n-off)
}

// planBuilder accumulates ops and manages stream identity.
type planBuilder struct {
	f       *simgpu.Fabric
	g       *graph.Graph
	opts    PlanOptions
	ops     []*simgpu.Op
	streams map[[6]int32]int
	// part keys the streams of the payload partition being emitted, so the
	// partitions of one schedule (allReduceParts) share links, not streams.
	part int
	// slab and depSlab back the ops and their Deps (add), so a plan's op
	// table costs a few large allocations, not two per op.
	slab    []simgpu.Op
	depSlab []int
	// rankBase and relayBase place the fabric's vertices in the call's arena,
	// the way OffsetFloats places the plan's floats in its buffers: GPU rank v
	// is arena device rankBase+v, relay vertex v device relayBase+v. Both are
	// zero on one machine. The cluster builders (multiserver.go) set them so
	// every server's ranks sit at their global, server-major ranks — the flat
	// ring's numbering — and its relays past every rank. opBase numbers the
	// ops the same way: the first op is opBase, so a cluster sub-plan's
	// dependencies are indices into the cluster plan it is appended to.
	rankBase, relayBase, opBase int
	// rev is the graph's reverseEdges, once a generator needs it.
	rev []int
	// memo holds, per tree and vertex (tree*N+v), the streams of the ops a
	// tree emitter adds there (resetMemo). Stream keys name a tree, edge and
	// depth but no chunk, so an emitter looks them up at chunk 0 and every
	// later chunk reads them here.
	memo []opStreams
	// sc is the build's scratch. A trial's builder lives in its arena
	// (newBuilder), which keeps sc, memo and rev, the graph's, between
	// trials.
	sc scratch
}

// scratch is a build's working memory that no plan keeps: tree shapes,
// payload regions and the emitters' per-vertex tables.
type scratch struct {
	ints    slab[int]
	lists   slab[[]int]
	tables  slab[[][]int]
	shapes  slab[treeShape]
	regions slab[region]
}

// slab lends zeroed runs of one backing array (take). A build that outgrows
// it allocates the rest, and reset grows it to what that build took, so a
// trial arena's next build allocates none.
type slab[T any] struct {
	buf  []T
	used int
}

func (s *slab[T]) take(n int) []T {
	if s.used += n; s.used > len(s.buf) {
		return make([]T, n)
	}
	out := s.buf[s.used-n : s.used : s.used]
	clear(out)
	return out
}

func (s *scratch) reset() {
	s.ints.reset()
	s.lists.reset()
	s.tables.reset()
	s.shapes.reset()
	s.regions.reset()
}

func (s *slab[T]) reset() {
	if s.used > len(s.buf) {
		s.buf = make([]T, s.used)
	}
	s.used = 0
}

// opStreams are the streams of a tree emitter's ops at one vertex of one
// tree: its reduce's and its transfer's legs (legStreams).
type opStreams struct {
	reduce int
	legs   [2]int
}

// resetMemo sizes the builder's memo to t's trees, for an emitter to fill.
func (t *treeGen) resetMemo() {
	t.memo = slices.Grow(t.memo[:0], len(t.shapes)*t.g.N)[:len(t.shapes)*t.g.N]
}

// dev maps a vertex of the builder's fabric to its device in the call's arena.
func (b *planBuilder) dev(v int) int {
	if v < ranksOf(b.f) {
		return b.rankBase + v
	}
	return b.relayBase + v
}

func newBuilder(f *simgpu.Fabric, opts PlanOptions) *planBuilder {
	opts.setDefaults()
	a := opts.arena
	if a == nil {
		return &planBuilder{f: f, g: f.Graph, opts: opts, streams: map[[6]int32]int{}}
	}
	clear(a.streams)
	b := &a.b
	if b.g != f.Graph {
		b.rev = nil
	}
	b.sc.reset()
	*b = planBuilder{f: f, g: f.Graph, opts: opts, streams: a.streams, slab: a.ops[:0], ops: a.ptrs[:0], depSlab: a.deps[:0], rev: b.rev, memo: b.memo, sc: b.sc}
	b.opts.arena = nil
	return b
}

// reverse returns the graph's reverseEdges, computed once per builder.
func (b *planBuilder) reverse() (rev []int, err error) {
	if b.rev == nil {
		b.rev, err = reverseEdges(b.g)
	}
	return b.rev, err
}

// plan closes the builder into the schedule it accumulated.
func (b *planBuilder) plan(totalBytes int64) *Plan {
	return &Plan{Ops: b.ops, TotalBytes: totalBytes, Fabric: b.f, Streams: len(b.streams)}
}

// stream returns a tree schedule's stream ID. With reuse enabled, trees
// sharing a link at the same hop depth within a phase share a stream
// (§4.2.2); otherwise each (tree, link, phase) gets its own. leg
// distinguishes the two legs of a store-and-forward switch transfer.
func (b *planBuilder) stream(phase, tree, link, depth, leg int) int {
	if b.opts.NoStreamReuse {
		return b.streamFor([5]int{phase, tree, link, 0, leg})
	}
	return b.streamFor([5]int{phase, -1, link, depth, leg})
}

// streamFor numbers stream keys, per partition, in first-use order. Tree
// schedules key by stream's (phase, tree, link, depth, leg), ring schedules
// by (ring, hop, leg, phase); one plan never mixes the two.
func (b *planBuilder) streamFor(key [5]int) int {
	k := [6]int32{int32(b.part), int32(key[0]), int32(key[1]), int32(key[2]), int32(key[3]), int32(key[4])}
	id, ok := b.streams[k]
	if !ok {
		id = len(b.streams)
		b.streams[k] = id
	}
	return id
}

// add appends a copy of op, waiting for deps, and returns its index. It
// copies both into the builder's slabs, so deps may be scratch the caller
// reuses; op is taken by pointer so that the copy into the slab is its only
// one.
func (b *planBuilder) add(op *simgpu.Op, deps ...int) int {
	if len(b.slab) == cap(b.slab) {
		b.slab = make([]simgpu.Op, 0, min(256, max(32, len(b.ops))))
	}
	if len(deps) > 0 {
		if cap(b.depSlab)-len(b.depSlab) < len(deps) {
			b.depSlab = make([]int, 0, max(min(512, max(64, len(b.ops))), len(deps)))
		}
		at := len(b.depSlab)
		b.depSlab = append(b.depSlab, deps...)
		op.Deps = b.depSlab[at:len(b.depSlab):len(b.depSlab)]
	}
	b.slab = append(b.slab, *op)
	b.ops = append(b.ops, &b.slab[len(b.slab)-1])
	return b.opBase + len(b.ops) - 1
}

// addTransfer emits the op(s) realizing one chunk copy over graph edge eid
// and returns the index of the op whose completion delivers the chunk at
// the destination. Point-to-point edges are a single op; switch-fabric
// edges become two chained ops (source up-link, then destination down-link)
// modeling store-and-forward through the non-blocking switch, so a transfer
// waiting for a busy receiver never stalls the sender's port. The ops take
// legs, the streams legStreams returns.
func (b *planBuilder) addTransfer(legs [2]int, eid int, bytes int64, deps []int, exec Exec, tag simgpu.Tag) int {
	links := b.f.EdgeLinks(eid)
	if len(links) == 1 {
		return b.add(&simgpu.Op{
			Stream:   legs[0],
			Link:     links[0],
			Bytes:    bytes,
			Overhead: b.f.Cfg.OpOverhead,
			Exec:     exec,
			Tag:      tag,
		}, deps...)
	}
	tag.Leg = 1
	up := b.add(&simgpu.Op{
		Stream:   legs[0],
		Link:     links[0],
		Bytes:    bytes,
		Overhead: b.f.Cfg.OpOverhead,
		Tag:      tag,
	}, deps...)
	tag.Leg = 2
	return b.add(&simgpu.Op{
		Stream: legs[1],
		Link:   links[1],
		Bytes:  bytes,
		Exec:   exec,
		Tag:    tag,
	}, up)
}

// legStreams returns the streams of addTransfer's legs over edge eid
// (stream), the second only for a switch edge's.
func (b *planBuilder) legStreams(phase, tree, eid, depth int) [2]int {
	legs := [2]int{b.stream(phase, tree, eid, depth, 0), -1}
	if len(b.f.EdgeLinks(eid)) > 1 {
		legs[1] = b.stream(phase, tree, eid, depth, 1)
	}
	return legs
}

// The op tag kinds (simgpu.Tag.Kind) of generated schedules: what each op
// does, as the label format OpLabel fills with the tag's A..D.
var (
	tagFormats     = []string{""}
	tagBcast       = tagKind("bcast t%[1]d c%[2]d %[3]d->%[4]d")
	tagRsend       = tagKind("rsend t%[1]d c%[2]d %[3]d->%[4]d")
	tagReduce      = tagKind("reduce t%[1]d c%[2]d @%[3]d")
	tagGather      = tagKind("gather t%[1]d c%[2]d %[3]d up")
	tagScatter     = tagKind("scatter t%[1]d c%[2]d ->%[3]d")
	tagA2A         = tagKind("a2a s%[4]d t%[1]d c%[2]d ->%[3]d")
	tagA2ASelf     = tagKind("a2a self @%[1]d")
	tagChain       = tagKind("chain s%[1]d c%[2]d %[3]d->%[4]d")
	tagHalo        = tagKind("halo p%[1]d c%[2]d %[3]d->%[4]d")
	tagRBcast      = tagKind("rbcast r%[1]d c%[2]d %[3]d->%[4]d")
	tagRS          = tagKind("rs r%[1]d s%[2]d %[3]d->%[4]d")
	tagRSRed       = tagKind("rsred r%[1]d s%[2]d @%[3]d")
	tagAG          = tagKind("ag r%[1]d s%[2]d %[3]d->%[4]d")
	tagP2P         = tagKind("p2p %[1]d->%[2]d c%[3]d h%[4]d")
	tagNet         = tagKind("net g%[1]d %[2]d->%[3]d c%[4]d")
	tagNetExchange = tagKind("net g%[1]d c%[2]d exchange")
	tagPhase       = tagKind("phase %[1]d done")
	tagPeerOff     = tagKind("disable-peer-access on %[1]d GPUs")
)

// tagKind registers a label format and returns its kind.
func tagKind(format string) uint8 {
	tagFormats = append(tagFormats, format)
	return uint8(len(tagFormats) - 1)
}

// opTag packs an op's trace name; OpLabel formats it.
func opTag(kind uint8, a, b, c, d int) simgpu.Tag {
	return simgpu.Tag{Kind: kind, A: int32(a), B: int32(b), C: int32(c), D: int32(d)}
}

// OpLabel formats a generated op's trace name from its tag, with the leg
// of a transfer that crosses more than one link ("leg0", "leg1", ...).
func OpLabel(op *simgpu.Op) string {
	t := op.Tag
	if t.Kind == 0 || int(t.Kind) >= len(tagFormats) {
		return "op"
	}
	s := fmt.Sprintf(tagFormats[t.Kind], t.A, t.B, t.C, t.D)
	if t.Leg > 0 {
		s += fmt.Sprintf(" leg%d", t.Leg-1)
	}
	return s
}

// Exec is a data-mode op's closure (simgpu.Op.Exec): index-aligned, over the
// floats of one window of the call's arena.
type Exec = func(bufs *simgpu.BufferSet, w simgpu.Window)

// CopyKernel is the Exec closure copying floats [off,off+n) of device src's
// srcTag buffer into device dst's dstTag buffer, both resolved at bufLen
// floats through the per-call arena, never through the fabric, so the
// compiled schedule stays a pure template.
func CopyKernel(src, dst, srcTag, dstTag, off, n, bufLen int) Exec {
	return func(bufs *simgpu.BufferSet, w simgpu.Window) {
		sb := bufs.Buffer(src, srcTag, bufLen)
		db := bufs.Buffer(dst, dstTag, bufLen)
		lo, hi := w.Clip(off, off+n)
		copy(db[lo:hi], sb[lo:hi])
	}
}

// BufRef names device Dev's buffer under Tag.
type BufRef struct{ Dev, Tag int }

// ReduceKernel is the Exec closure of a reduction kernel for floats
// [off,off+n), the one reduce rule of every tree, ring and cross-server
// reduce: it writes the BufAcc of the reducing device — srcs[0]'s, whose own
// partial s0 is — once, as the sum of its two or more sources in srcs order,
// ((s0 + s1) + s2)…, reading every source in place. A source is its device's
// BufAcc when that device has reduced the range itself, and its BufData —
// the input — when it has not (a leaf of the tree, the sender at a ring's
// first reduce-scatter step, a one-GPU server).
func ReduceKernel(srcs []BufRef, off, n, bufLen int) Exec {
	return func(bufs *simgpu.BufferSet, w simgpu.Window) {
		lo, hi := w.Clip(off, off+n)
		acc := bufs.Buffer(srcs[0].Dev, BufAcc, bufLen)[lo:hi]
		sum := bufs.Buffer(srcs[0].Dev, srcs[0].Tag, bufLen)[lo:hi]
		for _, src := range srcs[1:] {
			addInto(acc, sum, bufs.Buffer(src.Dev, src.Tag, bufLen)[lo:hi])
			sum = acc
		}
	}
}

// addInto sets dst[i] = a[i] + b[i] for every float of dst; a may be dst.
// It steps four floats at a time, which the compiler does not do on its own:
// on a 2-vCPU Xeon the unrolled loop adds 16K floats in about half the time.
func addInto(dst, a, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, x, y := dst[i:i+4:i+4], a[i:i+4:i+4], b[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = x[0]+y[0], x[1]+y[1], x[2]+y[2], x[3]+y[3]
	}
	for ; i < len(dst); i++ {
		dst[i] = a[i] + b[i]
	}
}

// copyExec is CopyKernel between two of the builder's vertices (nil outside
// data mode).
func (b *planBuilder) copyExec(src, dst, srcTag, dstTag, off, n, bufLen int) Exec {
	if !b.opts.DataMode {
		return nil
	}
	return CopyKernel(b.dev(src), b.dev(dst), srcTag, dstTag, off, n, bufLen)
}

// reduceExec builds rank v's reduction kernel for floats [off,off+n): v's
// input plus each partial sum that reaches it (partials), in order, read in
// place — an interior rank's BufAcc, a leaf's BufData. That is sound because
// a leaf's input is never written in a reduce-class plan, and an interior
// rank's chunk is final once its upward send is (the send waits for the
// rank's own reduce) and nothing writes it again until the broadcast phase
// copies the result back down — a copy that waits, through the root's reduce
// of the same chunk, for this one.
func (t *treeGen) reduceExec(s *treeShape, v, off, n int) Exec {
	if !t.opts.DataMode {
		return nil
	}
	return ReduceKernel(t.partials([]BufRef{{t.dev(v), BufData}}, s, v), off, n, t.bufLen)
}

// partials appends to srcs the partial sums that reach v on the way up: its
// children's, each relay among them (a PCIe switch or CPU, which forwards
// data but cannot add) replaced by those of the ranks it forwards.
func (t *treeGen) partials(srcs []BufRef, s *treeShape, v int) []BufRef {
	for _, c := range s.children[v] {
		switch {
		case c >= t.ranks:
			srcs = t.partials(srcs, s, c)
		case s.nparts[c] > 0:
			srcs = append(srcs, BufRef{t.dev(c), BufAcc})
		default:
			srcs = append(srcs, BufRef{t.dev(c), BufData})
		}
	}
	return srcs
}

// phase identifiers for stream keys.
const (
	phaseBroadcast = iota
	phaseReduce
	phaseGather
)

// treeGen is the opening every tree generator shares (§4.1): a builder, the
// packing's trees, each hung from a root (its shape's bfs[0]), each tree's
// weighted region of the payload it splits, and the chunk count of the
// longest region. Three emitters run over it: the down-tree broadcast, the
// up-tree reduce, and the shard scatter/gather.
type treeGen struct {
	*planBuilder
	ranks      int
	shapes     []treeShape
	regions    []region
	chunkBytes int64
	maxChunks  int
	// bufLen is the length of the arena buffers the emitted Execs address.
	bufLen int
}

// newTreeGen splits floats [base, base+floats) across p's trees by weight,
// each share chunked by chunkBytes, and hangs every tree from root: p's own
// root, any rank for a tree re-oriented there, or each tree's own center for
// centered (shapeOf).
func newTreeGen(b *planBuilder, p *Packing, root, base, floats int, chunkBytes int64, bufLen int) (*treeGen, error) {
	t := &treeGen{planBuilder: b, ranks: ranksOf(b.f), chunkBytes: chunkBytes, bufLen: bufLen,
		shapes: b.sc.shapes.take(len(p.Trees)), regions: splitRegions(b.sc.regions.take(len(p.Trees)), p.Trees, base, floats, chunkBytes)}
	var rev []int
	var err error
	if root != p.Root {
		rev, err = b.reverse()
	}
	for i := 0; i < len(p.Trees) && err == nil; i++ {
		t.shapes[i], err = shapeOf(b.g, p.Trees[i].Arbo, root, t.ranks, rev, &b.sc)
	}
	if err != nil {
		return nil, err
	}
	for _, r := range t.regions {
		t.maxChunks = max(t.maxChunks, r.chunks)
	}
	return t, nil
}

// payloadGen opens a generator for the builders whose every tree edge
// carries the tree's whole share of the payload (Broadcast, Reduce,
// AllReduce), over the plan's region [OffsetFloats, OffsetFloats+bytes/4),
// with p's trees hung from root.
func payloadGen(b *planBuilder, p *Packing, root int, bytes int64) (*treeGen, error) {
	totalFloats := int(bytes / 4)
	if totalFloats <= 0 {
		return nil, fmt.Errorf("core: payload too small (%d bytes)", bytes)
	}
	return newTreeGen(b, p, root, b.opts.OffsetFloats, totalFloats, b.opts.ChunkBytes, b.opts.OffsetFloats+totalFloats)
}

// rankSubtrees returns, per tree, every vertex's subtree ranks: the shards a
// Gather/Scatter transfer across the edge above that vertex carries.
func (t *treeGen) rankSubtrees(ranks int) [][][]int {
	out := make([][][]int, len(t.shapes))
	for i, s := range t.shapes {
		out[i] = s.rankSubtrees(ranks)
	}
	return out
}

// BuildBroadcastPlan compiles a one-to-many broadcast of `bytes` from the
// packing's root over its weighted trees: the payload splits across trees
// by weight, each tree's share is chunked, and chunk k on an edge depends
// on chunk k arriving at the edge's source (pipelined forwarding, Fig 11).
func BuildBroadcastPlan(f *simgpu.Fabric, p *Packing, bytes int64, opts PlanOptions) (*Plan, error) {
	t, err := payloadGen(newBuilder(f, opts), p, p.Root, bytes)
	if err != nil {
		return nil, err
	}
	t.emitBroadcast(nil)
	return t.plan(bytes / 4 * 4), nil
}

// emitBroadcast generates broadcast ops. rootDeps, when non-nil, supplies
// extra per-(tree,chunk) dependencies that must complete before the root
// may send that chunk (used by AllReduce to chain the reduce phase, and by
// the cluster builders to chain the NIC exchange).
func (t *treeGen) emitBroadcast(rootDeps [][][]int) {
	// sent[vertex] = op index of the copy that delivered the current chunk of
	// the current tree to vertex; BFS order sets a parent's before its
	// children read it.
	sent, deps := t.sc.ints.take(t.g.N), t.sc.ints.take(t.g.N)
	t.resetMemo()
	tag := BufData
	if t.opts.BroadcastAcc {
		tag = BufAcc // AllReduce (and phase 3) broadcast the reduced accumulator
	}
	for k := 0; k < t.maxChunks; k++ {
		for ti := range t.shapes {
			if k >= t.regions[ti].chunks {
				continue
			}
			s := &t.shapes[ti]
			off, n := t.regions[ti].chunkSpan(k, t.chunkBytes)
			for _, v := range s.bfs[1:] {
				eid := s.parentEdge[v]
				e := t.g.Edges[eid]
				deps = deps[:0]
				if e.From != s.bfs[0] {
					deps = append(deps, sent[e.From])
				} else if rootDeps != nil {
					deps = append(deps, rootDeps[ti][k]...)
				}
				at := &t.memo[ti*t.g.N+v]
				if k == 0 {
					at.legs = t.legStreams(phaseBroadcast, ti, eid, s.depth[v])
				}
				sent[v] = t.addTransfer(at.legs, eid, int64(n)*4, deps,
					t.copyExec(e.From, e.To, tag, tag, off, n, t.bufLen),
					opTag(tagBcast, ti, k, e.From, e.To))
			}
		}
	}
}

// BuildReducePlan compiles a many-to-one reduction to the packing's root:
// within each tree, leaves send their share upward; interior vertices
// combine received chunks with their own data at line rate and forward the
// partial result (reduce+forward, §2.2). The returned plan's final ops per
// (tree, chunk) are recorded in RootReduceOps for chaining by AllReduce.
func BuildReducePlan(f *simgpu.Fabric, p *Packing, bytes int64, opts PlanOptions) (*Plan, [][][]int, error) {
	t, err := payloadGen(newBuilder(f, opts), p, p.Root, bytes)
	if err != nil {
		return nil, nil, err
	}
	rootOps, err := t.emitReduce()
	if err != nil {
		return nil, nil, err
	}
	return t.plan(bytes / 4 * 4), rootOps, nil
}

// emitReduce generates the reduce phase and returns rootOps[tree][chunk]:
// the op indices whose completion means the root holds the full reduction
// of that tree's chunk.
func (t *treeGen) emitReduce() ([][][]int, error) {
	rev, err := t.reverse()
	if err != nil {
		return nil, err
	}
	// Every (tree, chunk)'s list is a run of one backing array, usually the
	// root's one reduce.
	total := 0
	for _, r := range t.regions {
		total += r.chunks
	}
	rootOps, lists, flat := t.sc.tables.take(len(t.shapes)), t.sc.lists.take(total), t.sc.ints.take(total)[:0]
	for i, r := range t.regions {
		rootOps[i], lists = lists[:r.chunks:r.chunks], lists[r.chunks:]
	}
	// upSend[v] is the op index of v's upward send of the current chunk.
	upSend, deps := t.sc.ints.take(t.g.N), t.sc.ints.take(t.g.N)
	t.resetMemo()
	for k := 0; k < t.maxChunks; k++ {
		for ti := range t.shapes {
			if k >= t.regions[ti].chunks {
				continue
			}
			s := &t.shapes[ti]
			off, n := t.regions[ti].chunkSpan(k, t.chunkBytes)
			// Deepest-first: children's sends exist before parents reduce.
			for i := len(s.bfs) - 1; i >= 0; i-- {
				v := s.bfs[i]
				parts, at := s.nparts[v], &t.memo[ti*t.g.N+v]
				deps = deps[:0]
				for _, c := range s.children[v] {
					if c < t.ranks || s.nparts[c] > 0 {
						deps = append(deps, upSend[c])
					}
				}
				// One batched reduction kernel per (rank, chunk) combines
				// every partial sum that reached it with its own data, as a
				// real implementation would (one kernel launch, not one per
				// child).
				if v < t.ranks && parts > 0 {
					if k == 0 {
						at.reduce = t.stream(phaseReduce, ti, -1-v, s.depth[v], 0)
					}
					reduced := t.add(&simgpu.Op{
						Stream:   at.reduce,
						Link:     t.f.ReduceLink(v),
						Bytes:    int64(n) * 4 * int64(parts),
						Overhead: t.f.Cfg.ReduceOverhead,
						Exec:     t.reduceExec(s, v, off, n),
						Tag:      opTag(tagReduce, ti, k, v, 0),
					}, deps...)
					deps = append(deps[:0], reduced)
				}
				if v == s.bfs[0] {
					at := len(flat)
					flat = append(flat, deps...)
					rootOps[ti][k] = flat[at:len(flat):len(flat)]
					continue
				}
				// Upward send from v to its parent over the reverse link: a
				// rank's one chunk, a relay's every partial it forwards. It
				// moves no data: the reduce above reads each in place.
				bytes := int64(n) * 4
				if v >= t.ranks {
					bytes *= int64(parts)
				}
				if bytes > 0 {
					upE := rev[s.parentEdge[v]]
					if k == 0 {
						at.legs = t.legStreams(phaseReduce, ti, upE, s.depth[v])
					}
					upSend[v] = t.addTransfer(at.legs, upE, bytes, deps, nil,
						opTag(tagRsend, ti, k, v, t.g.Edges[upE].To))
				}
			}
		}
	}
	return rootOps, nil
}

// BuildAllReducePlan compiles the §3.3 AllReduce: a reduce to the root over
// one direction of every tree followed by a broadcast of the result over
// the other direction, chained per chunk so the broadcast of chunk k starts
// as soon as the root finishes reducing chunk k.
func BuildAllReducePlan(f *simgpu.Fabric, p *Packing, bytes int64, opts PlanOptions) (*Plan, error) {
	return newBuilder(f, opts).allReduceParts(bytes, 1, func(int) (*Packing, int) { return p, p.Root })
}

// allReduceParts emits an AllReduce of bytes cut into parts partitions
// (partitionPayload): partition i reduces to and broadcasts from the root
// part(i) names, over that packing's trees, and the partitions share the
// schedule's links but not its streams. It is the one emitter of every tree
// AllReduce: the single-root one, the rank-rooted and centered ones, the
// DGX-2 one-hop one and the double binary trees.
func (b *planBuilder) allReduceParts(bytes int64, parts int, part func(i int) (*Packing, int)) (*Plan, error) {
	offs, ns := partitionPayload(int(bytes/4), parts)
	if ns[0] == 0 {
		return nil, fmt.Errorf("core: payload %d too small for %d partitions", bytes, parts)
	}
	base := b.opts.OffsetFloats
	for i, off := range offs {
		b.part, b.opts.OffsetFloats = i, base+off
		p, root := part(i)
		t, err := payloadGen(b, p, root, int64(ns[i])*4)
		var rootOps [][][]int
		if err == nil {
			rootOps, err = t.emitReduce()
		}
		if err != nil {
			return nil, err
		}
		t.opts.BroadcastAcc = true
		t.emitBroadcast(rootOps)
	}
	return b.plan(bytes / 4 * 4), nil
}

// BuildRankRootedAllReducePlan compiles the rank-rooted AllReduce: the
// payload splits into one slice per rank, and slice r reduces to rank r and
// broadcasts from it over p's trees, each re-oriented to hang from r. Where
// every vertex reduces, each tree edge still carries each slice once each
// way, so every link moves what the single-root schedule moves; the
// pipelines are shallower, as no slice funnels through p's root.
func BuildRankRootedAllReducePlan(f *simgpu.Fabric, p *Packing, bytes int64, opts PlanOptions) (*Plan, error) {
	return newBuilder(f, opts).allReduceParts(bytes, ranksOf(f), func(r int) (*Packing, int) { return p, r })
}

// BuildCenteredAllReducePlan compiles the §3.3 AllReduce with each of p's
// trees re-oriented to hang from its own center, the rank of least height
// (center): every tree reduces its share to and broadcasts it from there,
// so a chunk crosses the tree's radius twice, not its depth from p's root.
func BuildCenteredAllReducePlan(f *simgpu.Fabric, p *Packing, bytes int64, opts PlanOptions) (*Plan, error) {
	return newBuilder(f, opts).allReduceParts(bytes, 1, func(int) (*Packing, int) { return p, centered })
}

// BuildGatherPlan compiles a many-to-one gather: within each tree, a vertex
// forwards its subtree's aggregate payload to its parent (no reduction, so
// edge bytes grow with subtree size). Per the paper, Gather is the inverse
// of Broadcast and achieves comparable throughput when the per-vertex
// contribution is bytes/N.
func BuildGatherPlan(f *simgpu.Fabric, p *Packing, bytes int64, opts PlanOptions) (*Plan, error) {
	totalFloats := int(bytes / 4)
	// Shards belong to GPU ranks only; relay vertices (PCIe hubs) forward
	// payload but contribute none.
	n := ranksOf(f)
	if totalFloats < n {
		return nil, fmt.Errorf("core: payload too small (%d bytes for %d devices)", bytes, n)
	}
	perVertex := totalFloats / n
	b := newBuilder(f, opts)
	t, err := newTreeGen(b, p, p.Root, 0, perVertex, b.opts.ChunkBytes, perVertex*n)
	if err != nil {
		return nil, err
	}
	rev, err := b.reverse()
	if err != nil {
		return nil, err
	}
	subVerts := t.rankSubtrees(n)
	upSend := make([]int, b.g.N)
	var deps []int
	for k := 0; k < t.maxChunks; k++ {
		for ti, s := range t.shapes {
			if k >= t.regions[ti].chunks {
				continue
			}
			soff, nfl := t.regions[ti].chunkSpan(k, t.chunkBytes)
			for vi := range upSend {
				upSend[vi] = -1
			}
			for i := len(s.bfs) - 1; i > 0; i-- { // bfs[0] is the root
				v := s.bfs[i]
				shards := subVerts[ti][v]
				if len(shards) == 0 {
					continue // relay-only subtree: nothing to gather
				}
				upE := rev[s.parentEdge[v]]
				parent := b.g.Edges[upE].To
				deps = deps[:0]
				for _, c := range s.children[v] {
					if upSend[c] >= 0 {
						deps = append(deps, upSend[c])
					}
				}
				upSend[v] = b.addTransfer(b.legStreams(phaseGather, ti, upE, s.depth[v]), upE,
					int64(len(shards))*int64(nfl)*4, deps,
					b.exchangeShardExec(v, parent, BufData, BufData, shards, perVertex, soff, nfl, t.bufLen),
					opTag(tagGather, ti, k, v, 0))
			}
		}
	}
	return b.plan(int64(perVertex) * int64(n) * 4), nil
}

// BuildScatterPlan compiles a one-to-many scatter: the root distributes a
// distinct bytes/N shard to every rank (the inverse of Gather).
func BuildScatterPlan(f *simgpu.Fabric, p *Packing, bytes int64, opts PlanOptions) (*Plan, error) {
	totalFloats := int(bytes / 4)
	// As in Gather, shards belong to GPU ranks only.
	n := ranksOf(f)
	if totalFloats < n {
		return nil, fmt.Errorf("core: payload too small (%d bytes for %d devices)", bytes, n)
	}
	perVertex := totalFloats / n
	b := newBuilder(f, opts)
	if err := emitShardScatter(b, p, n, perVertex, perVertex*n, BufData, phaseBroadcast, tagScatter, 0); err != nil {
		return nil, err
	}
	return b.plan(int64(perVertex) * int64(n) * 4), nil
}

// emitShardScatter schedules one root's scatter of a distinct perVertex-float
// shard to each of the n ranks over pk's trees, the emitter under Scatter
// and under every source of an AllToAll. Within each tree, the transfer to a
// vertex carries its whole subtree's shards, so edge bytes shrink toward the
// leaves. The first hop reads the root's BufData; below it shards stage and
// land under stageTag — BufData for a Scatter, the source's exchange tag for
// AllToAll, so n scatters share the fabric without aliasing. Shard u sits at
// float (rankBase+u)*perVertex of a bufLen-float buffer (the builder's
// rankBase shifts local ranks into a cluster's global layout).
func emitShardScatter(b *planBuilder, pk *Packing, n, perVertex, bufLen, stageTag, phase int, kind uint8, src int) error {
	// An edge near the root carries up to (n-1) vertices' shards per chunk,
	// so scale the chunk unit down by the fan-out to keep root-edge ops
	// near the configured chunk size (preserving pipelining). A lone rank
	// (a cluster's one-GPU server) fans out to nobody.
	unit := b.opts.ChunkBytes / int64(max(n-1, 1))
	chunkBytes := max(unit-unit%4, 4)
	t, err := newTreeGen(b, pk, pk.Root, 0, perVertex, chunkBytes, bufLen)
	if err != nil {
		return err
	}
	subVerts := t.rankSubtrees(n)
	sent := make([]int, b.g.N)
	var deps []int
	for k := 0; k < t.maxChunks; k++ {
		for ti, s := range t.shapes {
			if k >= t.regions[ti].chunks {
				continue
			}
			soff, nfl := t.regions[ti].chunkSpan(k, chunkBytes)
			// A vertex with shards has a parent with shards, whose delivery
			// BFS order has already set in sent.
			for _, v := range s.bfs[1:] {
				shards := subVerts[ti][v]
				if len(shards) == 0 {
					continue // relay-only subtree: nothing to deliver below
				}
				eid := s.parentEdge[v]
				e := b.g.Edges[eid]
				deps = deps[:0]
				if e.From != pk.Root {
					deps = append(deps, sent[e.From])
				}
				srcTag := stageTag
				if e.From == pk.Root {
					srcTag = BufData // first hop reads the root's input
				}
				sent[v] = b.addTransfer(b.legStreams(phase, ti, eid, s.depth[v]), eid,
					int64(len(shards))*int64(nfl)*4, deps,
					b.exchangeShardExec(e.From, v, srcTag, stageTag, shards, perVertex, soff, nfl, bufLen),
					opTag(kind, ti, k, v, src))
			}
		}
	}
	return nil
}
