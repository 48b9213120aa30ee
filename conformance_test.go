package blink

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"blink/internal/graph"
)

// confFabric is one row of the conformance matrix: a machine in pristine
// or derived-degraded condition plus the allocation the suite probes, or a
// multi-server cluster.
type confFabric struct {
	name    string
	machine *Machine
	devs    []int
	cluster *Cluster
	// roots, when set, replaces the rooted ops' default roots (rank 0 and
	// the highest rank), e.g. with one root on each server of a cluster.
	roots []int
	// entries marks the rows that also run every cell through an async
	// handle, three tenant views and eight goroutines sharing the
	// communicator.
	entries bool
}

// firstNVLink returns one NVLink connection of the machine's GPU plane
// (lowest endpoints) and its capacity, for deriving degraded variants.
func firstNVLink(t *testing.T, m *Machine) (a, b int, cap float64) {
	t.Helper()
	a, b = -1, -1
	for _, e := range m.G.Edges {
		if e.Type != graph.NVLink || e.From >= e.To {
			continue
		}
		if a < 0 || e.From < a || (e.From == a && e.To < b) {
			a, b, cap = e.From, e.To, e.Cap
		}
	}
	if a < 0 {
		t.Fatalf("%s has no NVLink edges", m.Name)
	}
	return a, b, cap
}

// comm builds the row's communicator.
func (f confFabric) comm(opts ...Option) (*Comm, error) {
	if f.cluster != nil {
		return NewClusterComm(f.cluster, opts...)
	}
	return NewComm(f.machine, f.devs, opts...)
}

// dgx1vCluster joins one DGX-1V server per device list at 100 Gbps.
func dgx1vCluster(t *testing.T, devs ...[]int) *Cluster {
	t.Helper()
	var servers []ServerSpec
	for _, d := range devs {
		servers = append(servers, ServerSpec{Machine: DGX1V(), Devs: d})
	}
	c, err := NewCluster(servers, 100)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// conformanceFabrics builds the machine axis of the matrix: DGX-1P, DGX-1V
// and DGX-2, each pristine and (where the simulator supports derivation)
// with one degraded topology derived from it, and four DGX-1V clusters:
// 3+5; 1+3, whose one-GPU server has no tree of its own yet takes part in
// the NIC exchange (the fragmented allocation of Figure 3 at its extreme);
// 3+2+4, with three NIC peers; and three servers whose NVLink allocations
// are disconnected, so their trees run over PCIe through hub relay vertices.
func conformanceFabrics(t *testing.T) []confFabric {
	t.Helper()
	full8 := []int{0, 1, 2, 3, 4, 5, 6, 7}

	// DGX-1P: single-unit links, so degrade by losing one connection
	// outright (the hybrid cube-mesh stays connected).
	p := DGX1P()
	pa, pb, _ := firstNVLink(t, p)
	pDeg, err := p.WithoutLink(pa, pb)
	if err != nil {
		t.Fatalf("derive degraded DGX-1P: %v", err)
	}

	// DGX-1V: doubled links, so degrade by halving one connection's units
	// (a partially failed NVLink brick).
	v := DGX1V()
	va, vb, vcap := firstNVLink(t, v)
	vDeg, err := v.WithLinkUnits(va, vb, vcap/2)
	if err != nil {
		t.Fatalf("derive degraded DGX-1V: %v", err)
	}

	return []confFabric{
		{name: "dgx1p/pristine", machine: p, devs: full8},
		{name: fmt.Sprintf("dgx1p/degraded-nolink%d-%d", pa, pb), machine: pDeg, devs: full8},
		{name: "dgx1v/pristine", machine: v, devs: full8, entries: true},
		{name: fmt.Sprintf("dgx1v/degraded-halflink%d-%d", va, vb), machine: vDeg, devs: full8},
		{name: "dgx1v/degraded-frag", machine: vDeg, devs: []int{1, 4, 5, 6, 7}},
		// No degraded DGX-2 row: the DGX-2 runtime models a uniform
		// non-blocking NVSwitch, and no degraded derivation exists for switch
		// fabrics (Engine.Reconfigure rejects them for the same reason).
		{name: "dgx2/pristine", machine: DGX2()},
		{name: "cluster/3+5", cluster: twoServerCluster(t, 3, 5), entries: true},
		{name: "cluster/1+3", cluster: twoServerCluster(t, 1, 3)},
		{name: "cluster/3+2+4", cluster: dgx1vCluster(t, []int{0, 1, 2}, []int{0, 1}, []int{0, 1, 2, 3}), roots: []int{1, 4, 7}},
		{name: "cluster/relays", cluster: dgx1vCluster(t, []int{0, 1, 6}, []int{0, 1, 2, 3}, []int{2, 4, 7}), roots: []int{2, 5, 9}},
	}
}

// confOp is one column of the matrix: a collective's *Data call with its
// sequential reference, and its timing call.
type confOp struct {
	name string
	// rooted marks rooted collectives (exercised at every root of the row).
	rooted bool
	// cluster marks the ops a cluster has a data schedule for, nccl those
	// the NCCL baseline carries data for; every other cell is an error
	// (TestClusterErrorRows, TestDataModeValidation). A cluster runs
	// ReduceScatterData on its AllReduce schedule and has no ReduceScatter
	// timing form, so that one cell runs data only (clusterDataOnly).
	cluster, nccl, clusterDataOnly bool
	// shard marks ops whose per-rank input is one shard (shardFloats)
	// rather than a whole buffer (shardFloats per rank).
	shard bool
	// data runs the *Data call on per-rank inputs (a single-source op reads
	// in[root] or, for the chain, in[0] and in[ranks-1]); want is the
	// sequential reference for the rows data returns.
	data func(c *Comm, root int, in [][]float32) ([][]float32, error)
	want func(root int, in [][]float32) [][]float32
	// sync and async run the timing form, synchronously or through an
	// async handle.
	sync  func(c *Comm, root int) (Result, error)
	async func(c *Comm, root int) *Handle
}

// timing runs the op's timing form, synchronously or through an async
// handle.
func (op confOp) timing(c *Comm, root int, async bool) (Result, error) {
	if async {
		return op.async(c, root).Wait()
	}
	return op.sync(c, root)
}

// shardFloats is the per-rank payload of the sharded ops; the dense ops
// move shardFloats*ranks floats so both shapes exercise multi-chunk plans.
// timingBytes is the timing calls' payload.
const (
	shardFloats = 96
	timingBytes = 1 << 20
)

func confOps() []confOp {
	row := func(out []float32, err error) ([][]float32, error) { return [][]float32{out}, err }
	return []confOp{
		{name: "Broadcast", rooted: true, cluster: true, nccl: true,
			data:  func(c *Comm, root int, in [][]float32) ([][]float32, error) { return c.BroadcastData(root, in[root]) },
			want:  func(root int, in [][]float32) [][]float32 { return repeat(in[root], len(in)) },
			sync:  func(c *Comm, root int) (Result, error) { return c.Broadcast(root, timingBytes) },
			async: func(c *Comm, root int) *Handle { return c.BroadcastAsync(root, timingBytes) }},
		{name: "AllReduce", cluster: true, nccl: true,
			data:  func(c *Comm, _ int, in [][]float32) ([][]float32, error) { return c.AllReduceData(in) },
			want:  func(_ int, in [][]float32) [][]float32 { return repeat(sumRows(in), len(in)) },
			sync:  func(c *Comm, _ int) (Result, error) { return c.AllReduce(timingBytes) },
			async: func(c *Comm, _ int) *Handle { return c.AllReduceAsync(timingBytes) }},
		{name: "Reduce", rooted: true, nccl: true,
			data:  func(c *Comm, root int, in [][]float32) ([][]float32, error) { return row(c.ReduceData(root, in)) },
			want:  func(_ int, in [][]float32) [][]float32 { return [][]float32{sumRows(in)} },
			sync:  func(c *Comm, root int) (Result, error) { return c.Reduce(root, timingBytes) },
			async: func(c *Comm, root int) *Handle { return c.ReduceAsync(root, timingBytes) }},
		{name: "Gather", rooted: true, shard: true,
			data:  func(c *Comm, root int, in [][]float32) ([][]float32, error) { return row(c.GatherData(root, in)) },
			want:  func(_ int, in [][]float32) [][]float32 { return [][]float32{concatRows(in)} },
			sync:  func(c *Comm, root int) (Result, error) { return c.Gather(root, timingBytes) },
			async: func(c *Comm, root int) *Handle { return c.GatherAsync(root, timingBytes) }},
		{name: "Scatter", rooted: true,
			data:  func(c *Comm, root int, in [][]float32) ([][]float32, error) { return c.ScatterData(root, in[root]) },
			want:  func(root int, in [][]float32) [][]float32 { return shards(in[root], len(in)) },
			sync:  func(c *Comm, root int) (Result, error) { return c.Scatter(root, timingBytes) },
			async: func(c *Comm, root int) *Handle { return c.ScatterAsync(root, timingBytes) }},
		{name: "AllGather", shard: true, nccl: true,
			data:  func(c *Comm, _ int, in [][]float32) ([][]float32, error) { return c.AllGatherData(in) },
			want:  func(_ int, in [][]float32) [][]float32 { return repeat(concatRows(in), len(in)) },
			sync:  func(c *Comm, _ int) (Result, error) { return c.AllGather(timingBytes) },
			async: func(c *Comm, _ int) *Handle { return c.AllGatherAsync(timingBytes) }},
		{name: "ReduceScatter", cluster: true, nccl: true, clusterDataOnly: true,
			data:  func(c *Comm, _ int, in [][]float32) ([][]float32, error) { return c.ReduceScatterData(in) },
			want:  func(_ int, in [][]float32) [][]float32 { return shards(sumRows(in), len(in)) },
			sync:  func(c *Comm, _ int) (Result, error) { return c.ReduceScatter(timingBytes) },
			async: func(c *Comm, _ int) *Handle { return c.ReduceScatterAsync(timingBytes) }},
		{name: "AllToAll", cluster: true,
			data: func(c *Comm, _ int, in [][]float32) ([][]float32, error) { return c.AllToAllData(in) },
			want: func(_ int, in [][]float32) [][]float32 {
				// out[d] concatenates every rank's d-th shard.
				out := make([][]float32, len(in))
				for d := range out {
					for _, r := range in {
						out[d] = append(out[d], shards(r, len(in))[d]...)
					}
				}
				return out
			},
			sync:  func(c *Comm, _ int) (Result, error) { return c.AllToAll(timingBytes) },
			async: func(c *Comm, _ int) *Handle { return c.AllToAllAsync(timingBytes) }},
		{name: "SendRecvChain",
			// The forward pipeline 0..n-1 and the reversed chain, so both hop
			// directions of the fabric carry staged traffic.
			data: func(c *Comm, _ int, in [][]float32) ([][]float32, error) {
				fwd, err := c.SendRecvData(seqChain(len(in), false), in[0])
				if err != nil {
					return nil, err
				}
				rev, err := c.SendRecvData(seqChain(len(in), true), in[len(in)-1])
				return append(fwd, rev...), err
			},
			want: func(_ int, in [][]float32) [][]float32 {
				return append(repeat(in[0], len(in)), repeat(in[len(in)-1], len(in))...)
			},
			sync:  func(c *Comm, _ int) (Result, error) { return c.SendRecv(seqChain(c.Size(), false), timingBytes) },
			async: func(c *Comm, _ int) *Handle { return c.SendRecvAsync(seqChain(c.Size(), false), timingBytes) }},
		{name: "NeighborExchange", shard: true,
			// A bidirectional ring halo: every rank sends to both neighbors.
			data: func(c *Comm, _ int, in [][]float32) ([][]float32, error) {
				recvs, err := c.NeighborExchangeData(ringNeighbors(len(in)), in)
				if err != nil {
					return nil, err
				}
				var out [][]float32
				for v, targets := range ringNeighbors(len(in)) {
					for _, u := range targets {
						out = append(out, recvs[u][v])
					}
				}
				return out, nil
			},
			want: func(_ int, in [][]float32) [][]float32 {
				var out [][]float32
				for v := range in {
					out = append(out, in[v], in[v])
				}
				return out
			},
			sync:  func(c *Comm, _ int) (Result, error) { return c.NeighborExchange(ringNeighbors(c.Size()), timingBytes) },
			async: func(c *Comm, _ int) *Handle { return c.NeighborExchangeAsync(ringNeighbors(c.Size()), timingBytes) }},
	}
}

// seqChain returns ranks 0..n-1 in order, or reversed.
func seqChain(n int, rev bool) []int {
	c := make([]int, n)
	for i := range c {
		if rev {
			c[i] = n - 1 - i
		} else {
			c[i] = i
		}
	}
	return c
}

// ringNeighbors has every rank send to both of its ring neighbors.
func ringNeighbors(n int) [][]int {
	out := make([][]int, n)
	for v := range out {
		out[v] = []int{(v + 1) % n, (v + n - 1) % n}
	}
	return out
}

func repeat(row []float32, n int) [][]float32 {
	out := make([][]float32, n)
	for i := range out {
		out[i] = row
	}
	return out
}

func sumRows(rows [][]float32) []float32 {
	out := make([]float32, len(rows[0]))
	for _, r := range rows {
		for i, x := range r {
			out[i] += x
		}
	}
	return out
}

func concatRows(rows [][]float32) []float32 {
	var out []float32
	for _, r := range rows {
		out = append(out, r...)
	}
	return out
}

// shards splits row into n equal shards.
func shards(row []float32, n int) [][]float32 {
	out := make([][]float32, n)
	s := len(row) / n
	for k := range out {
		out[k] = row[k*s : (k+1)*s]
	}
	return out
}

// confCell is one cell of the matrix: an op at one root of one row.
type confCell struct {
	name  string
	op    confOp
	root  int
	timed bool
}

// confCells lists the cells a row runs under one backend.
func confCells(f confFabric, ranks int, b Backend) []confCell {
	var cells []confCell
	for _, op := range confOps() {
		if (f.cluster != nil && !op.cluster) || (b == BackendNCCL && !op.nccl) {
			continue
		}
		timed := f.cluster == nil || !op.clusterDataOnly
		if !op.rooted {
			cells = append(cells, confCell{op.name, op, 0, timed})
			continue
		}
		roots := f.roots
		if roots == nil {
			roots = []int{0, ranks - 1}
		}
		for _, r := range roots {
			cells = append(cells, confCell{fmt.Sprintf("%s/root%d", op.name, r), op, r, timed})
		}
	}
	return cells
}

// exact runs the cell's *Data call on fresh integer-valued inputs (float32
// sums of integers are exact in any order) and compares every returned row
// with the sequential reference.
func (c confCell) exact(comm *Comm, rng *rand.Rand) error {
	n := shardFloats * comm.Size()
	if c.op.shard {
		n = shardFloats
	}
	in, _ := randInputs(rng, comm.Size(), n)
	out, err := c.op.data(comm, c.root, in)
	if err != nil {
		return err
	}
	return diffRows(out, c.op.want(c.root, in))
}

// ranksAgree runs AllReduceData on uniform floats, whose sum depends on the
// order the ranks are added in: every rank must hold the same bits, close to
// the float64 sum. A pairwise cross-server exchange would leave the servers
// disagreeing.
func ranksAgree(comm *Comm, rng *rand.Rand) error {
	in := make([][]float32, comm.Size())
	ref := make([]float64, shardFloats)
	for r := range in {
		in[r] = make([]float32, shardFloats)
		for i := range in[r] {
			in[r][i] = rng.Float32()
			ref[i] += float64(in[r][i])
		}
	}
	out, err := comm.AllReduceData(in)
	if err != nil {
		return err
	}
	if err := diffRows(out, repeat(out[0], len(out))); err != nil {
		return fmt.Errorf("the ranks were summed in different orders: %w", err)
	}
	for i, x := range out[0] {
		if math.Abs(float64(x)-ref[i]) > 1e-5*ref[i] {
			return fmt.Errorf("element %d = %v, want about %v", i, x, ref[i])
		}
	}
	return nil
}

// confMatrix is one row's communicator under one backend, its tenant views
// on entry rows, and the warm Seconds of every timed cell.
type confMatrix struct {
	comm    *Comm
	tenants []*Tenant
	warm    map[string]float64
}

// check runs one cell: the *Data call twice on fresh inputs, the second a
// cache hit, both exact; the timing call twice, cold and warm Seconds equal
// and the second a cache hit; on entry rows, the *Data call through a tenant
// view and the timing call through an async handle, a tenant view and a
// tenant's async handle, each resolving to the warm Seconds.
func (m *confMatrix) check(t *testing.T, c confCell) {
	rng := rand.New(rand.NewSource(int64(m.comm.Size()*1000 + c.root)))
	for pass := 0; pass < 2; pass++ {
		before := m.comm.CacheStats()
		if err := c.exact(m.comm, rng); err != nil {
			t.Fatalf("data call %d: %v", pass+1, err)
		}
		if after := m.comm.CacheStats(); pass == 1 && (after.Hits == before.Hits || after.Misses != before.Misses) {
			t.Fatalf("warm data call did not replay the cached plan: %+v -> %+v", before, after)
		}
	}
	if c.op.name == "AllReduce" {
		if err := ranksAgree(m.comm, rng); err != nil {
			t.Fatal(err)
		}
	}
	if !c.timed {
		return
	}
	cold, err := c.op.timing(m.comm, c.root, false)
	if err != nil {
		t.Fatal(err)
	}
	before := m.comm.CacheStats()
	warm, err := c.op.timing(m.comm, c.root, false)
	if err != nil {
		t.Fatal(err)
	}
	if after := m.comm.CacheStats(); after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("warm timing call did not replay the cached plan: %+v -> %+v", before, after)
	}
	if cold.Seconds <= 0 || cold.ThroughputGBs <= 0 || warm.Seconds != cold.Seconds || warm.Strategy != cold.Strategy {
		t.Fatalf("cold %+v, warm %+v", cold, warm)
	}
	m.warm[c.name] = warm.Seconds
	if m.tenants == nil {
		return
	}
	tn := m.tenants[len(m.warm)%len(m.tenants)]
	if err := c.exact(tn.Comm, rng); err != nil {
		t.Fatalf("through tenant %s: %v", tn.Name(), err)
	}
	for _, via := range []struct {
		name  string
		comm  *Comm
		async bool
	}{{"async handle", m.comm, true}, {"tenant " + tn.Name(), tn.Comm, false}, {"tenant async handle", tn.Comm, true}} {
		if res, err := c.op.timing(via.comm, c.root, via.async); err != nil || res.Seconds != warm.Seconds {
			t.Fatalf("%s: %v s, %v; the synchronous call took %v s", via.name, res.Seconds, err, warm.Seconds)
		}
	}
}

// concurrent runs every cell again from eight goroutines at once, each on
// its own inputs and starting at its own cell, through the communicator and
// its tenant views in turn — so different ops, roots, lanes and entry
// styles overlap on one engine: every result must be exact and every
// timing call must resolve to its cell's warm Seconds.
func (m *confMatrix) concurrent(t *testing.T, cells []confCell) {
	views := []*Comm{m.comm}
	for _, tn := range m.tenants {
		views = append(views, tn.Comm)
	}
	const goroutines = 8
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(9000 + g)))
			comm := views[g%len(views)]
			for i := range cells {
				c := cells[(g+i)%len(cells)]
				err := c.exact(comm, rng)
				if err == nil && c.timed {
					var res Result
					if res, err = c.op.timing(comm, c.root, g%2 == 1); err == nil && res.Seconds != m.warm[c.name] {
						err = fmt.Errorf("%v s, %v s sequentially", res.Seconds, m.warm[c.name])
					}
				}
				if err != nil {
					errs <- fmt.Errorf("goroutine %d, %s: %w", g, c.name, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, tn := range m.tenants {
		st := tn.Stats()
		if st.CacheLookups == 0 || st.CacheHits+st.CacheMisses != st.CacheLookups ||
			st.SubmittedOps != st.AdmittedOps || st.CompletedOps != st.AdmittedOps || st.OutstandingOps != 0 {
			t.Errorf("%s: ledger %+v does not balance", st.Name, st)
		}
	}
}

// TestDataModeConformance is the root package's one matrix: every data-mode
// collective × {DGX-1P, DGX-1V, DGX-2} × {pristine, one derived degraded
// topology} and every op a cluster has a schedule for on four clusters ×
// {Blink, NCCL where NCCL carries the op's data}. Every cell is checked
// elementwise against a sequential reference, cold and warm, and its timing
// form cold and warm (TestDataModeConformance's check). Rooted ops run at
// rank 0 and the highest rank, so relay-root schedules are covered too. One
// machine row and one cluster row add the entry axis: async handles, three
// tenant views in different priority lanes, and eight goroutines on one
// communicator. Adding a fabric, an op or an entry extends every
// combination.
func TestDataModeConformance(t *testing.T) {
	for _, f := range conformanceFabrics(t) {
		t.Run(f.name, func(t *testing.T) {
			for _, backend := range []Backend{BackendBlink, BackendNCCL} {
				comm, err := f.comm(WithDataMode(), WithBackend(backend))
				if err != nil {
					t.Fatal(err)
				}
				m := &confMatrix{comm: comm, warm: map[string]float64{}}
				if f.entries {
					for _, class := range []Class{ClassLatencyCritical, ClassBulkGradient, ClassTelemetry} {
						tn, err := NewTenant(comm, TenantOptions{Name: class.String(), Class: class})
						if err != nil {
							t.Fatal(err)
						}
						m.tenants = append(m.tenants, tn)
					}
				}
				prefix := ""
				if backend == BackendNCCL {
					prefix = "NCCL/"
				}
				cells := confCells(f, comm.Size(), backend)
				for _, c := range cells {
					t.Run(prefix+c.name, func(t *testing.T) { m.check(t, c) })
				}
				if f.entries {
					m.concurrent(t, cells)
				}
			}
		})
	}
}
