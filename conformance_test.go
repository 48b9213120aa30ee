package blink

import (
	"fmt"
	"math/rand"
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
	// skip, when non-empty, documents why this cell of the matrix cannot
	// exist (e.g. the DGX-2's NVSwitch fabric is uniform by construction
	// and the simulator has no degraded derivation for it).
	skip string
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

// conformanceFabrics builds the machine axis of the matrix: DGX-1P, DGX-1V
// and DGX-2, each pristine and (where the simulator supports derivation)
// with one degraded topology derived from it, and a 3+5 DGX-1V cluster.
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
		{name: "dgx1v/pristine", machine: v, devs: full8},
		{name: fmt.Sprintf("dgx1v/degraded-halflink%d-%d", va, vb), machine: vDeg, devs: full8},
		{name: "dgx1v/degraded-frag", machine: vDeg, devs: []int{1, 4, 5, 6, 7}},
		{name: "dgx2/pristine", machine: DGX2()},
		{name: "dgx2/degraded", skip: "the DGX-2 runtime models a uniform " +
			"non-blocking NVSwitch; no degraded derivation exists for switch " +
			"fabrics (Engine.Reconfigure rejects them for the same reason)"},
		{name: "cluster/3+5", cluster: twoServerCluster(t, 3, 5, 100)},
	}
}

// confOp is one column of the matrix: a data-mode collective verified
// elementwise against its sequential reference.
type confOp struct {
	name string
	// needsRoot marks rooted collectives (exercised at root 0 and the
	// highest rank); rootless ops run once per fabric.
	needsRoot bool
	// cluster marks the ops a cluster has a schedule for; on a cluster
	// every other op is an error (TestClusterErrorRows).
	cluster bool
	run     func(t *testing.T, comm *Comm, ranks, root int, rng *rand.Rand)
}

// shardFloats is the per-rank payload of the sharded ops; the dense ops
// move shardFloats*ranks floats so both shapes exercise multi-chunk plans.
const shardFloats = 96

func confOps() []confOp {
	return []confOp{
		{name: "Broadcast", needsRoot: true, cluster: true, run: func(t *testing.T, comm *Comm, ranks, root int, rng *rand.Rand) {
			src := make([]float32, shardFloats*ranks)
			for i := range src {
				src[i] = float32(rng.Intn(512))
			}
			outs, err := comm.BroadcastData(root, src)
			if err != nil {
				t.Fatal(err)
			}
			for r, out := range outs {
				assertEq(t, fmt.Sprintf("rank %d", r), out, src)
			}
		}},
		{name: "AllReduce", cluster: true, run: func(t *testing.T, comm *Comm, ranks, root int, rng *rand.Rand) {
			inputs, sum := randInputs(rng, ranks, shardFloats*ranks)
			outs, err := comm.AllReduceData(inputs)
			if err != nil {
				t.Fatal(err)
			}
			for r, out := range outs {
				assertEq(t, fmt.Sprintf("rank %d", r), out, sum)
			}
		}},
		{name: "Reduce", needsRoot: true, run: func(t *testing.T, comm *Comm, ranks, root int, rng *rand.Rand) {
			inputs, sum := randInputs(rng, ranks, shardFloats*ranks)
			got, err := comm.ReduceData(root, inputs)
			if err != nil {
				t.Fatal(err)
			}
			assertEq(t, "root", got, sum)
		}},
		{name: "Gather", needsRoot: true, run: func(t *testing.T, comm *Comm, ranks, root int, rng *rand.Rand) {
			shards, _ := randInputs(rng, ranks, shardFloats)
			var concat []float32
			for _, s := range shards {
				concat = append(concat, s...)
			}
			got, err := comm.GatherData(root, shards)
			if err != nil {
				t.Fatal(err)
			}
			assertEq(t, "root", got, concat)
		}},
		{name: "Scatter", needsRoot: true, run: func(t *testing.T, comm *Comm, ranks, root int, rng *rand.Rand) {
			shards, _ := randInputs(rng, ranks, shardFloats)
			var concat []float32
			for _, s := range shards {
				concat = append(concat, s...)
			}
			outs, err := comm.ScatterData(root, concat)
			if err != nil {
				t.Fatal(err)
			}
			for r, out := range outs {
				assertEq(t, fmt.Sprintf("rank %d", r), out, shards[r])
			}
		}},
		{name: "AllGather", run: func(t *testing.T, comm *Comm, ranks, root int, rng *rand.Rand) {
			shards, _ := randInputs(rng, ranks, shardFloats)
			var concat []float32
			for _, s := range shards {
				concat = append(concat, s...)
			}
			outs, err := comm.AllGatherData(shards)
			if err != nil {
				t.Fatal(err)
			}
			for r, out := range outs {
				assertEq(t, fmt.Sprintf("rank %d", r), out, concat)
			}
		}},
		{name: "ReduceScatter", cluster: true, run: func(t *testing.T, comm *Comm, ranks, root int, rng *rand.Rand) {
			inputs, sum := randInputs(rng, ranks, shardFloats*ranks)
			outs, err := comm.ReduceScatterData(inputs)
			if err != nil {
				t.Fatal(err)
			}
			for r, out := range outs {
				assertEq(t, fmt.Sprintf("rank %d", r), out, sum[r*shardFloats:(r+1)*shardFloats])
			}
		}},
		{name: "AllToAll", cluster: true, run: func(t *testing.T, comm *Comm, ranks, root int, rng *rand.Rand) {
			inputs, _ := randInputs(rng, ranks, shardFloats*ranks)
			outs, err := comm.AllToAllData(inputs)
			if err != nil {
				t.Fatal(err)
			}
			for d, out := range outs {
				// Reference: out[d] concatenates every rank's d-th shard.
				want := make([]float32, 0, shardFloats*ranks)
				for r := 0; r < ranks; r++ {
					want = append(want, inputs[r][d*shardFloats:(d+1)*shardFloats]...)
				}
				assertEq(t, fmt.Sprintf("rank %d", d), out, want)
			}
		}},
		{name: "SendRecvChain", run: func(t *testing.T, comm *Comm, ranks, root int, rng *rand.Rand) {
			payload := make([]float32, shardFloats*ranks)
			for i := range payload {
				payload[i] = float32(rng.Intn(512))
			}
			// Forward pipeline 0..n-1 and the reversed chain, so both hop
			// directions of the fabric carry staged traffic.
			for _, chain := range [][]int{seqChain(ranks, false), seqChain(ranks, true)} {
				outs, err := comm.SendRecvData(chain, payload)
				if err != nil {
					t.Fatal(err)
				}
				for i, out := range outs {
					assertEq(t, fmt.Sprintf("stage %d (rank %d)", i, chain[i]), out, payload)
				}
			}
		}},
		{name: "NeighborExchange", run: func(t *testing.T, comm *Comm, ranks, root int, rng *rand.Rand) {
			inputs, _ := randInputs(rng, ranks, shardFloats)
			// Bidirectional ring halo: every rank sends to both ring
			// neighbors.
			neighbors := make([][]int, ranks)
			for v := 0; v < ranks; v++ {
				neighbors[v] = []int{(v + 1) % ranks, (v + ranks - 1) % ranks}
			}
			recvs, err := comm.NeighborExchangeData(neighbors, inputs)
			if err != nil {
				t.Fatal(err)
			}
			for v, row := range neighbors {
				for _, u := range row {
					assertEq(t, fmt.Sprintf("recv %d<-%d", u, v), recvs[u][v], inputs[v])
				}
			}
		}},
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

// TestDataModeConformance is the cross-backend conformance matrix: all
// ten data-mode collectives x {DGX-1P, DGX-1V, DGX-2} x {pristine, one
// derived degraded topology}, plus every op a cluster has a schedule for on
// a 3+5 cluster, every cell verified elementwise against a sequential
// reference. Rooted ops run at rank 0 and the highest rank, so relay-root
// schedules are covered too. One table drives the whole surface; adding a
// fabric or an op extends every combination.
func TestDataModeConformance(t *testing.T) {
	for _, f := range conformanceFabrics(t) {
		f := f
		t.Run(f.name, func(t *testing.T) {
			if f.skip != "" {
				t.Skip(f.skip)
			}
			comm, err := f.comm(WithDataMode())
			if err != nil {
				t.Fatal(err)
			}
			ranks := comm.Size()
			for _, op := range confOps() {
				op := op
				if f.cluster != nil && !op.cluster {
					continue
				}
				roots := []int{0}
				if op.needsRoot {
					roots = []int{0, ranks - 1}
				}
				for _, root := range roots {
					name := op.name
					if op.needsRoot {
						name = fmt.Sprintf("%s/root%d", op.name, root)
					}
					t.Run(name, func(t *testing.T) {
						rng := rand.New(rand.NewSource(int64(ranks*1000 + root)))
						op.run(t, comm, ranks, root, rng)
					})
				}
			}
		})
	}
}

// TestMultiTenantConformance extends the conformance matrix to
// multi-tenant dispatch: all ten data-mode collectives run concurrently
// from three tenants in different priority lanes sharing one DGX-1V
// engine. Every op must stay byte-exact against the sequential
// references (identical to the single-tenant rows), and afterwards each
// tenant's cache attribution must balance exactly: CacheLookups ==
// CacheHits + CacheMisses.
func TestMultiTenantConformance(t *testing.T) {
	comm, err := NewComm(DGX1V(), seqChain(8, false), WithDataMode())
	if err != nil {
		t.Fatal(err)
	}
	ranks := comm.Size()
	specs := []struct {
		name  string
		class Class
	}{
		{"latency", ClassLatencyCritical},
		{"bulk", ClassBulkGradient},
		{"telemetry", ClassTelemetry},
	}
	tenants := make([]*Tenant, len(specs))
	for i, s := range specs {
		tn, err := NewTenant(comm, TenantOptions{Name: s.name, Class: s.class})
		if err != nil {
			t.Fatal(err)
		}
		tenants[i] = tn
	}
	// The enclosing group joins the parallel per-tenant subtests before
	// the ledger assertions below run.
	t.Run("ops", func(t *testing.T) {
		for i, tn := range tenants {
			i, tn := i, tn
			t.Run(tn.Name(), func(t *testing.T) {
				t.Parallel()
				for _, op := range confOps() {
					rng := rand.New(rand.NewSource(int64(7000 + i)))
					op.run(t, tn.Comm, ranks, 0, rng)
				}
			})
		}
	})
	for _, tn := range tenants {
		st := tn.Stats()
		if st.CacheLookups == 0 {
			t.Errorf("%s: no cache lookups attributed", st.Name)
		}
		if st.CacheHits+st.CacheMisses != st.CacheLookups {
			t.Errorf("%s: cache attribution inexact: %d + %d != %d",
				st.Name, st.CacheHits, st.CacheMisses, st.CacheLookups)
		}
		if st.SubmittedOps != st.AdmittedOps || st.CompletedOps != st.AdmittedOps {
			t.Errorf("%s: ledger %+v not fully admitted/completed", st.Name, st)
		}
		if st.OutstandingOps != 0 {
			t.Errorf("%s: %d ops still outstanding", st.Name, st.OutstandingOps)
		}
	}
}
