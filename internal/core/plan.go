package core

import (
	"fmt"
	"math"

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
	// ChunkBytes is the pipelining granularity. 0 selects 4 MiB. Values are
	// rounded up to multiples of 4 bytes (one float32).
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
}

// SetDefaults resolves ChunkBytes as documented on the field. Exported for
// the baseline builders in internal/ring, which chunk by the same rule.
func (o *PlanOptions) SetDefaults() {
	if o.ChunkBytes <= 0 {
		o.ChunkBytes = 4 << 20
	}
	if r := o.ChunkBytes % 4; r != 0 {
		o.ChunkBytes += 4 - r
	}
}

// Plan is an executable schedule over a fabric.
type Plan struct {
	Ops        []*simgpu.Op
	TotalBytes int64
	Fabric     *simgpu.Fabric
	// Streams is the number of distinct streams the plan uses.
	Streams int
	// IR is the serializable intermediate representation the plan was
	// generated from (nil for plans built outside CodeGen, i.e. hybrid and
	// cluster plans; such plans cannot be encoded to disk).
	IR *PlanIR
	// Partitions is the number of payload partitions of a three-phase cluster
	// plan (multiserver.go), each with its own local root per server; zero on
	// every other plan.
	Partitions int
}

// Execute runs the plan for timing and returns the simulated result. Any
// Exec closures run against a throwaway arena; Freeze().ReplayData moves
// real data a caller can observe.
func (p *Plan) Execute() (simgpu.Result, error) { return simgpu.Run(p.Fabric.Links, p.Ops, nil) }

// ThroughputGBs runs the plan and reports TotalBytes/makespan in GB/s.
func (p *Plan) ThroughputGBs() (float64, error) {
	res, err := p.Execute()
	if err != nil {
		return 0, err
	}
	if res.Makespan <= 0 {
		return 0, nil
	}
	return float64(p.TotalBytes) / res.Makespan / 1e9, nil
}

// treeShape caches per-tree structure used by the generators.
type treeShape struct {
	parentEdge []int // vertex -> incoming tree edge (-1 at root)
	children   map[int][]int
	bfs        []int // vertices in BFS order from root
	depth      []int // vertex depth
}

func shapeOf(g *graph.Graph, a graph.Arborescence) (*treeShape, error) {
	parent, err := a.Parents(g)
	if err != nil {
		return nil, err
	}
	s := &treeShape{parentEdge: parent, children: map[int][]int{}, depth: make([]int, g.N)}
	// Children follow the arborescence's edge order, not vertex order: tree
	// generators stagger fan-out order (e.g. rotated one-hop trees on the
	// DGX-2) to avoid convoying concurrent trees on one receiver's link.
	for _, id := range a.Edges {
		e := g.Edges[id]
		s.children[e.From] = append(s.children[e.From], e.To)
	}
	s.bfs = append(s.bfs, a.Root)
	for i := 0; i < len(s.bfs); i++ {
		v := s.bfs[i]
		for _, c := range s.children[v] {
			s.depth[c] = s.depth[v] + 1
			s.bfs = append(s.bfs, c)
		}
	}
	if len(s.bfs) != g.N {
		return nil, fmt.Errorf("core: tree does not span graph")
	}
	return s, nil
}

// subtreeVerts returns, for every vertex, the vertices of its subtree
// (itself included), in deterministic order. Data-mode Gather/Scatter use
// these lists: the transfer across a tree edge carries one payload shard
// per vertex of the subtree hanging below that edge.
func (s *treeShape) subtreeVerts() [][]int {
	out := make([][]int, len(s.depth))
	for i := len(s.bfs) - 1; i >= 0; i-- {
		v := s.bfs[i]
		out[v] = append(out[v], v)
		for _, c := range s.children[v] {
			out[v] = append(out[v], out[c]...)
		}
	}
	return out
}

// rankSubtrees returns, for every vertex, the GPU ranks (vertex id < ranks)
// of its subtree, dropping relay vertices, which carry no payload shard.
func (s *treeShape) rankSubtrees(ranks int) [][]int {
	all := s.subtreeVerts()
	for v := range all {
		kept := all[v][:0]
		for _, u := range all[v] {
			if u < ranks {
				kept = append(kept, u)
			}
		}
		all[v] = kept
	}
	return all
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
	type key struct {
		from, to int
		ty       graph.EdgeType
	}
	pool := map[key][]int{}
	for _, e := range g.Edges {
		pool[key{e.From, e.To, e.Type}] = append(pool[key{e.From, e.To, e.Type}], e.ID)
	}
	next := map[key]int{}
	rev := make([]int, len(g.Edges))
	for _, e := range g.Edges {
		k := key{e.To, e.From, e.Type}
		cands := pool[k]
		if len(cands) == 0 {
			return nil, fmt.Errorf("core: edge %d->%d has no reverse link", e.From, e.To)
		}
		rev[e.ID] = cands[next[k]%len(cands)]
		next[k]++
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
// size. Rounding remainder goes to the heaviest tree, so a zero-weight
// (or lightest) tree is never handed payload its capacity share cannot
// justify. An empty packing — the trivialPacking of a one-GPU server, which
// has nothing to move locally — has no regions.
func splitRegions(trees []Tree, base, totalFloats int, chunkBytes int64) []region {
	if len(trees) == 0 {
		return nil
	}
	regions := make([]region, len(trees))
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
	}
	for i := range regions {
		if regions[i].n == 0 {
			regions[i].chunks = 0
			continue
		}
		regions[i].chunks = (regions[i].n + chunkFloats - 1) / chunkFloats
	}
	return regions
}

func (r region) chunkSpan(k int, chunkBytes int64) (off, n int) {
	cf := int(chunkBytes / 4)
	off = r.off + k*cf
	n = cf
	if rem := r.off + r.n - off; rem < n {
		n = rem
	}
	return off, n
}

// planBuilder accumulates ops and manages stream identity.
type planBuilder struct {
	f       *simgpu.Fabric
	g       *graph.Graph
	opts    PlanOptions
	ops     []*simgpu.Op
	streams map[[5]int]int
	// rankBase and relayBase place the fabric's vertices in the call's arena,
	// the way OffsetFloats places the plan's floats in its buffers: GPU rank v
	// is arena device rankBase+v, relay vertex v device relayBase+v. Both are
	// zero on one machine. The cluster builders (multiserver.go) set them so
	// every server's ranks sit at their global, server-major ranks — the flat
	// ring's numbering — and its relays past every rank.
	rankBase, relayBase int
}

// dev maps a vertex of the builder's fabric to its device in the call's arena.
func (b *planBuilder) dev(v int) int {
	if v < ranksOf(b.f) {
		return b.rankBase + v
	}
	return b.relayBase + v
}

func newBuilder(f *simgpu.Fabric, opts PlanOptions) *planBuilder {
	opts.SetDefaults()
	return &planBuilder{f: f, g: f.Graph, opts: opts, streams: map[[5]int]int{}}
}

// plan closes the builder into the schedule it accumulated.
func (b *planBuilder) plan(totalBytes int64) *Plan {
	return &Plan{Ops: b.ops, TotalBytes: totalBytes, Fabric: b.f, Streams: len(b.streams)}
}

// stream returns a stream ID. With reuse enabled, trees sharing a link at
// the same hop depth within a phase share a stream (§4.2.2); otherwise each
// (tree, link, phase) gets its own. leg distinguishes the two legs of a
// store-and-forward switch transfer.
func (b *planBuilder) stream(phase, tree, link, depth, leg int) int {
	var key [5]int
	if b.opts.NoStreamReuse {
		key = [5]int{phase, tree, link, 0, leg}
	} else {
		key = [5]int{phase, -1, link, depth, leg}
	}
	id, ok := b.streams[key]
	if !ok {
		id = len(b.streams)
		b.streams[key] = id
	}
	return id
}

func (b *planBuilder) add(op *simgpu.Op) int {
	b.ops = append(b.ops, op)
	return len(b.ops) - 1
}

// addTransfer emits the op(s) realizing one chunk copy over graph edge eid
// and returns the index of the op whose completion delivers the chunk at
// the destination. Point-to-point edges are a single op; switch-fabric
// edges become two chained ops (source up-link, then destination down-link)
// modeling store-and-forward through the non-blocking switch, so a transfer
// waiting for a busy receiver never stalls the sender's port.
func (b *planBuilder) addTransfer(phase, tree, eid, depth int, bytes int64, deps []int, exec Exec, label string) int {
	links := b.f.EdgeLinks(eid)
	if len(links) == 1 {
		return b.add(&simgpu.Op{
			Stream:   b.stream(phase, tree, eid, depth, 0),
			Link:     links[0],
			Bytes:    bytes,
			Overhead: b.f.Cfg.OpOverhead,
			Deps:     deps,
			Exec:     exec,
			Label:    label,
		})
	}
	up := b.add(&simgpu.Op{
		Stream:   b.stream(phase, tree, eid, depth, 0),
		Link:     links[0],
		Bytes:    bytes,
		Overhead: b.f.Cfg.OpOverhead,
		Deps:     deps,
		Label:    label + " [up]",
	})
	return b.add(&simgpu.Op{
		Stream: b.stream(phase, tree, eid, depth, 1),
		Link:   links[1],
		Bytes:  bytes,
		Deps:   []int{up},
		Exec:   exec,
		Label:  label + " [down]",
	})
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

// reduceExec builds vertex v's reduction kernel in tree s for floats
// [off,off+n): v's input plus each child's chunk, in children order, read in
// place — an interior child's BufAcc, a leaf's BufData. That is sound because
// a leaf's input is never written in a reduce-class plan, and an interior
// child's chunk is final once its upward send is (the send waits for the
// child's own reduce) and nothing writes it again until the broadcast phase
// copies the result back down — a copy that waits, through the root's reduce
// of the same chunk, for this one.
func (t *treeGen) reduceExec(s *treeShape, v, off, n int) Exec {
	if !t.opts.DataMode {
		return nil
	}
	srcs := []BufRef{{t.dev(v), BufData}}
	for _, c := range s.children[v] {
		src := BufRef{t.dev(c), BufData}
		if len(s.children[c]) > 0 {
			src.Tag = BufAcc
		}
		srcs = append(srcs, src)
	}
	return ReduceKernel(srcs, off, n, t.bufLen)
}

// phase identifiers for stream keys.
const (
	phaseBroadcast = iota
	phaseReduce
	phaseGather
)

// treeGen is the opening every tree generator shares (§4.1): a builder, the
// packing's per-tree shapes, each tree's weighted region of the payload it
// splits, and the chunk count of the longest region. Three emitters run over
// it: the down-tree broadcast, the up-tree reduce, and the shard
// scatter/gather.
type treeGen struct {
	*planBuilder
	p          *Packing
	shapes     []*treeShape
	regions    []region
	chunkBytes int64
	maxChunks  int
	// bufLen is the length of the arena buffers the emitted Execs address.
	bufLen int
}

// newTreeGen splits floats [base, base+floats) across p's trees by weight,
// each share chunked by chunkBytes.
func newTreeGen(b *planBuilder, p *Packing, base, floats int, chunkBytes int64, bufLen int) (*treeGen, error) {
	t := &treeGen{planBuilder: b, p: p, chunkBytes: chunkBytes, bufLen: bufLen,
		shapes: make([]*treeShape, len(p.Trees)), regions: splitRegions(p.Trees, base, floats, chunkBytes)}
	for i, tr := range p.Trees {
		s, err := shapeOf(b.g, tr.Arbo)
		if err != nil {
			return nil, err
		}
		t.shapes[i] = s
	}
	for _, r := range t.regions {
		if r.chunks > t.maxChunks {
			t.maxChunks = r.chunks
		}
	}
	return t, nil
}

// payloadGen opens a generator for the builders whose every tree edge
// carries the tree's whole share of the payload (Broadcast, Reduce,
// AllReduce), over the plan's region [OffsetFloats, OffsetFloats+bytes/4).
func payloadGen(b *planBuilder, p *Packing, bytes int64) (*treeGen, error) {
	totalFloats := int(bytes / 4)
	if totalFloats <= 0 {
		return nil, fmt.Errorf("core: payload too small (%d bytes)", bytes)
	}
	return newTreeGen(b, p, b.opts.OffsetFloats, totalFloats, b.opts.ChunkBytes, b.opts.OffsetFloats+totalFloats)
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
	return newBuilder(f, opts).broadcast(p, bytes)
}

// broadcast is BuildBroadcastPlan over an open builder — the cluster
// builders open theirs with a rank base.
func (b *planBuilder) broadcast(p *Packing, bytes int64) (*Plan, error) {
	t, err := payloadGen(b, p, bytes)
	if err != nil {
		return nil, err
	}
	t.emitBroadcast(nil)
	return t.plan(bytes / 4 * 4), nil
}

// emitBroadcast generates broadcast ops. rootDeps, when non-nil, supplies
// extra per-(tree,chunk) dependencies that must complete before the root
// may send that chunk (used by AllReduce to chain the reduce phase).
func (t *treeGen) emitBroadcast(rootDeps [][][]int) {
	// sent[vertex] = op index of the copy that delivered the current chunk of
	// the current tree to vertex; BFS order sets a parent's before its
	// children read it.
	sent := make([]int, t.g.N)
	tag := BufData
	if rootDeps != nil || t.opts.BroadcastAcc {
		tag = BufAcc // AllReduce (and phase 3) broadcast the reduced accumulator
	}
	for k := 0; k < t.maxChunks; k++ {
		for ti, s := range t.shapes {
			if k >= t.regions[ti].chunks {
				continue
			}
			off, n := t.regions[ti].chunkSpan(k, t.chunkBytes)
			for _, v := range s.bfs {
				if v == t.p.Root {
					continue
				}
				eid := s.parentEdge[v]
				e := t.g.Edges[eid]
				var deps []int
				if e.From != t.p.Root {
					deps = append(deps, sent[e.From])
				} else if rootDeps != nil {
					deps = append(deps, rootDeps[ti][k]...)
				}
				sent[v] = t.addTransfer(phaseBroadcast, ti, eid, s.depth[v],
					int64(n)*4, deps,
					t.copyExec(e.From, e.To, tag, tag, off, n, t.bufLen),
					fmt.Sprintf("bcast t%d c%d %d->%d", ti, k, e.From, e.To))
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
	return newBuilder(f, opts).reduce(p, bytes)
}

// reduce is BuildReducePlan over an open builder.
func (b *planBuilder) reduce(p *Packing, bytes int64) (*Plan, [][][]int, error) {
	t, err := payloadGen(b, p, bytes)
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
	rev, err := reverseEdges(t.g)
	if err != nil {
		return nil, err
	}
	rootOps := make([][][]int, len(t.shapes))
	for i := range rootOps {
		rootOps[i] = make([][]int, t.regions[i].chunks)
	}
	upSend := make([]int, t.g.N) // op index of v's upward send of the current chunk
	for k := 0; k < t.maxChunks; k++ {
		for ti, s := range t.shapes {
			if k >= t.regions[ti].chunks {
				continue
			}
			off, n := t.regions[ti].chunkSpan(k, t.chunkBytes)
			// Deepest-first: children's sends exist before parents reduce.
			for i := len(s.bfs) - 1; i >= 0; i-- {
				v := s.bfs[i]
				var reduced []int // v's reduce of this chunk, if it has children
				// One batched reduction kernel per (vertex, chunk) combines
				// every child's received chunk with v's own data, as a real
				// implementation would (one kernel launch, not one per
				// child).
				if cs := s.children[v]; len(cs) > 0 {
					deps := make([]int, 0, len(cs))
					for _, c := range cs {
						deps = append(deps, upSend[c])
					}
					rop := &simgpu.Op{
						Stream:   t.stream(phaseReduce, ti, -1-v, s.depth[v], 0),
						Link:     t.f.ReduceLink(v),
						Bytes:    int64(n) * 4 * int64(len(cs)),
						Overhead: t.f.Cfg.ReduceOverhead,
						Deps:     deps,
						Exec:     t.reduceExec(s, v, off, n),
						Label:    fmt.Sprintf("reduce t%d c%d @%d", ti, k, v),
					}
					reduced = []int{t.add(rop)}
				}
				if v == t.p.Root {
					rootOps[ti][k] = reduced
					continue
				}
				// Upward send from v to its parent over the reverse link. It
				// moves no data: the parent's reduce reads v's chunk in place
				// (see reduceExec).
				upE := rev[s.parentEdge[v]]
				upSend[v] = t.addTransfer(phaseReduce, ti, upE, s.depth[v], int64(n)*4, reduced, nil,
					fmt.Sprintf("rsend t%d c%d %d->%d", ti, k, v, t.g.Edges[upE].To))
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
	t, err := payloadGen(newBuilder(f, opts), p, bytes)
	if err != nil {
		return nil, err
	}
	rootOps, err := t.emitReduce()
	if err != nil {
		return nil, err
	}
	t.emitBroadcast(rootOps)
	return t.plan(bytes / 4 * 4), nil
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
	t, err := newTreeGen(b, p, 0, perVertex, b.opts.ChunkBytes, perVertex*n)
	if err != nil {
		return nil, err
	}
	rev, err := reverseEdges(b.g)
	if err != nil {
		return nil, err
	}
	subVerts := t.rankSubtrees(n)
	upSend := make([]int, b.g.N)
	for k := 0; k < t.maxChunks; k++ {
		for ti, s := range t.shapes {
			if k >= t.regions[ti].chunks {
				continue
			}
			soff, nfl := t.regions[ti].chunkSpan(k, t.chunkBytes)
			for vi := range upSend {
				upSend[vi] = -1
			}
			for i := len(s.bfs) - 1; i >= 0; i-- {
				v := s.bfs[i]
				if v == p.Root {
					continue
				}
				shards := subVerts[ti][v]
				if len(shards) == 0 {
					continue // relay-only subtree: nothing to gather
				}
				upE := rev[s.parentEdge[v]]
				parent := b.g.Edges[upE].To
				var deps []int
				for _, c := range s.children[v] {
					if upSend[c] >= 0 {
						deps = append(deps, upSend[c])
					}
				}
				upSend[v] = b.addTransfer(phaseGather, ti, upE, s.depth[v],
					int64(len(shards))*int64(nfl)*4, deps,
					b.exchangeShardExec(v, parent, BufData, BufData, shards, perVertex, soff, nfl, t.bufLen),
					fmt.Sprintf("gather t%d c%d %d up", ti, k, v))
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
	if err := emitShardScatter(b, p, n, perVertex, perVertex*n, BufData, phaseBroadcast, "scatter"); err != nil {
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
func emitShardScatter(b *planBuilder, pk *Packing, n, perVertex, bufLen, stageTag, phase int, label string) error {
	// An edge near the root carries up to (n-1) vertices' shards per chunk,
	// so scale the chunk unit down by the fan-out to keep root-edge ops
	// near the configured chunk size (preserving pipelining). A lone rank
	// (a cluster's one-GPU server) fans out to nobody.
	chunkBytes := int64(4)
	if unit := b.opts.ChunkBytes / int64(max(n-1, 1)); unit >= 4 {
		chunkBytes = unit - unit%4
	}
	t, err := newTreeGen(b, pk, 0, perVertex, chunkBytes, bufLen)
	if err != nil {
		return err
	}
	subVerts := t.rankSubtrees(n)
	sent := make([]int, b.g.N)
	for k := 0; k < t.maxChunks; k++ {
		for ti, s := range t.shapes {
			if k >= t.regions[ti].chunks {
				continue
			}
			soff, nfl := t.regions[ti].chunkSpan(k, chunkBytes)
			// A vertex with shards has a parent with shards, whose delivery
			// BFS order has already set in sent.
			for _, v := range s.bfs {
				if v == pk.Root {
					continue
				}
				shards := subVerts[ti][v]
				if len(shards) == 0 {
					continue // relay-only subtree: nothing to deliver below
				}
				eid := s.parentEdge[v]
				e := b.g.Edges[eid]
				var deps []int
				if e.From != pk.Root {
					deps = append(deps, sent[e.From])
				}
				srcTag := stageTag
				if e.From == pk.Root {
					srcTag = BufData // first hop reads the root's input
				}
				sent[v] = b.addTransfer(phase, ti, eid, s.depth[v],
					int64(len(shards))*int64(nfl)*4, deps,
					b.exchangeShardExec(e.From, v, srcTag, stageTag, shards, perVertex, soff, nfl, bufLen),
					fmt.Sprintf("%s t%d c%d ->%d", label, ti, k, v))
			}
		}
	}
	return nil
}
