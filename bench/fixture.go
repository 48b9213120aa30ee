package main

import (
	"fmt"
	"math/rand"

	"blink"
	"blink/internal/collective"
	"blink/internal/core"
	"blink/internal/simgpu"
)

// planHandle is one warm timing-mode plan opened up layer by layer: the
// public call, a bench-owned engine on the same allocation, the plan's cache
// key, the frozen plan and its ops materialised outside any timer.
type planHandle struct {
	op    timedOp
	call  func() (float64, error)
	eng   *collective.Engine // nil for cluster ops: only the public call is traced
	key   collective.PlanKey
	plan  *core.FrozenPlan
	blob  []byte
	ops   []*simgpu.Op
	links []simgpu.Link
}

// dataHandle is the same for one data-mode call: a bench-owned data-mode
// engine, a data-mode frozen plan regenerated from the plan's IR, and the
// schedule's ops with and without their Exec closures.
type dataHandle struct {
	op     *dataOp
	eng    *collective.Engine
	plan   *core.FrozenPlan
	ops    []*simgpu.Op
	refOps []*simgpu.Op
	links  []simgpu.Link
}

// fixture is what the traced pass measures: the workload's own plan keys in
// its own seeded order, the data-mode calls, and the tenant rig.
type fixture struct {
	handles []*planHandle
	seq     []int
	subject *planHandle // the plan the single-plan probes use
	cache   *collective.PlanCache
	engines []*collective.Engine
	data    []*dataHandle
	dataSeq []int
	rig     *tenantRig
}

// fixtureSpec is a workload's request: its timing op table and order, which
// op the probes should use, and — where the workload has its own — the
// data-mode calls and the tenant rig. Missing parts get the defaults: one
// AllReduceData at 1 MB per rank on the full DGX-1V, the standard 300-tenant
// rig.
type fixtureSpec struct {
	ops     []timedOp
	seq     []int
	subject int
	data    []dataOp
	dataSeq []int
	rig     *tenantRig
	seed    int64
}

// publicCall is the blink.Comm method a timing op goes through.
func publicCall(comm *blink.Comm, op timedOp) func() (float64, error) {
	sec := func(r blink.Result, err error) (float64, error) { return r.Seconds, err }
	switch op.op {
	case collective.AllReduce:
		return func() (float64, error) { return sec(comm.AllReduce(op.bytes)) }
	case collective.Broadcast:
		return func() (float64, error) { return sec(comm.Broadcast(op.root, op.bytes)) }
	case collective.AllGather:
		return func() (float64, error) { return sec(comm.AllGather(op.bytes)) }
	case collective.ReduceScatter:
		return func() (float64, error) { return sec(comm.ReduceScatter(op.bytes)) }
	case collective.AllToAll:
		return func() (float64, error) { return sec(comm.AllToAll(op.bytes)) }
	}
	return func() (float64, error) { return 0, fmt.Errorf("bench: no public call for %v", op.op) }
}

// allocRig is one allocation's pair of entry points: the public
// communicator and a bare engine, sharing one plan cache so both resolve a
// key to the same frozen plan.
type allocRig struct {
	comm *blink.Comm
	eng  *collective.Engine
}

func buildFixture(spec fixtureSpec) (*fixture, error) {
	fx := &fixture{seq: spec.seq, cache: collective.NewPlanCache(256), rig: spec.rig}
	rigs := map[string]*allocRig{}
	for _, op := range spec.ops {
		if op.machine == nil {
			op.machine = blink.DGX1V()
		}
		h := &planHandle{op: op}
		fx.handles = append(fx.handles, h)
		if op.devs == nil {
			cl, err := twoServerCluster()
			if err != nil {
				return nil, err
			}
			cc, err := blink.NewClusterComm(cl)
			if err != nil {
				return nil, err
			}
			h.call = func() (float64, error) { r, err := cc.AllReduce(op.bytes); return r.Seconds, err }
		} else {
			name := fmt.Sprint(op.machine.Name, op.devs)
			rig := rigs[name]
			if rig == nil {
				comm, err := blink.NewComm(op.machine, op.devs, blink.WithPlanCache(fx.cache))
				if err != nil {
					return nil, err
				}
				eng, err := collective.NewEngine(op.machine, op.devs, simgpu.Config{})
				if err != nil {
					return nil, err
				}
				eng.SetPlanCache(fx.cache)
				rig = &allocRig{comm, eng}
				rigs[name] = rig
				fx.engines = append(fx.engines, eng)
			}
			h.call, h.eng = publicCall(rig.comm, op), rig.eng
		}
		secs, err := h.call()
		if err != nil {
			return nil, fmt.Errorf("fixture: %v on %v: %w", op.op, op.devs, err)
		}
		if h.op.want == 0 {
			h.op.want = secs
		}
		if secs != h.op.want {
			return nil, fmt.Errorf("fixture: %v on %v: simulated seconds %v, workload saw %v", op.op, op.devs, secs, h.op.want)
		}
		if h.eng != nil {
			if err := h.open(fx.cache); err != nil {
				return nil, err
			}
		}
	}
	fx.subject = fx.handles[spec.subject]
	if fx.subject.eng == nil {
		return nil, fmt.Errorf("fixture: the probes' subject must be a single-server plan")
	}

	data, dataSeq := spec.data, spec.dataSeq
	if data == nil {
		comm, err := blink.NewComm(blink.DGX1V(), fullDGX, blink.WithDataMode())
		if err != nil {
			return nil, err
		}
		in := seededInputs(rand.New(rand.NewSource(spec.seed)), len(fullDGX), dataFloats)
		data, dataSeq = dataOps(comm, in)[:1], []int{0}
		if err := warmAndCheck(comm, data); err != nil {
			return nil, err
		}
	}
	eng, err := collective.NewEngine(blink.DGX1V(), fullDGX, simgpu.Config{DataMode: true})
	if err != nil {
		return nil, err
	}
	for i := range data {
		dh, err := openData(eng, &data[i])
		if err != nil {
			return nil, err
		}
		fx.data = append(fx.data, dh)
	}
	fx.dataSeq = dataSeq

	if fx.rig == nil {
		if fx.rig, err = newTenantRig(spec.seed); err != nil {
			return nil, err
		}
	}
	return fx, nil
}

// open resolves the handle's plan from outside the engine: PlanBlob encodes
// the cached plan, whose IR carries the resolved chunk size — the one key
// field a caller cannot otherwise know — and the key must then hit the
// shared cache.
func (h *planHandle) open(cache *collective.PlanCache) error {
	op := h.op
	blob, _, err := h.eng.PlanBlob(collective.Blink, op.op, op.root, op.bytes, collective.Options{})
	if err != nil {
		return fmt.Errorf("fixture: PlanBlob: %w", err)
	}
	hdr, ir, err := core.DecodePlanIR(blob)
	if err != nil {
		return err
	}
	h.blob = blob
	h.key = collective.PlanKey{
		Fingerprint: hdr.Fingerprint, Config: hdr.Config, Backend: collective.Blink,
		Op: op.op, Root: op.root, Bytes: op.bytes, ChunkBytes: ir.Opts.ChunkBytes,
	}
	cp, ok := cache.Get(h.key)
	if !ok || cp.Plan == nil {
		return fmt.Errorf("fixture: rebuilt plan key for %v on %v misses the cache", op.op, op.devs)
	}
	h.plan = cp.Plan
	plan, err := core.CodeGen(cp.Plan.IR(), cp.Plan.Fabric())
	if err != nil {
		return err
	}
	h.ops, h.links = plan.Ops, cp.Plan.Fabric().Links
	return nil
}

// openData warms the op's data-mode plan on the bench-owned engine and
// regenerates it, from its encoded IR, as a standalone frozen plan plus two
// op sets over the same schedule: with Exec closures and without.
func openData(eng *collective.Engine, op *dataOp) (*dataHandle, error) {
	opts := collective.Options{DataMode: true, Buffers: op.stage()}
	if _, err := eng.Run(collective.Blink, op.op, 0, op.bytes, opts); err != nil {
		return nil, fmt.Errorf("fixture: %s: %w", op.label, err)
	}
	blob, _, err := eng.PlanBlob(collective.Blink, op.op, 0, op.bytes, collective.Options{DataMode: true})
	if err != nil {
		return nil, err
	}
	fabric := eng.FabricFor(collective.Blink)
	fp, err := core.DecodePlan(blob, func(core.FabricSel) *simgpu.Fabric { return fabric })
	if err != nil {
		return nil, err
	}
	plan, err := core.CodeGen(fp.IR(), fabric)
	if err != nil {
		return nil, err
	}
	timing := *fp.IR()
	timing.Opts.DataMode = false
	ref, err := core.CodeGen(&timing, fabric)
	if err != nil {
		return nil, err
	}
	return &dataHandle{op: op, eng: eng, plan: fp, ops: plan.Ops, refOps: ref.Ops, links: fabric.Links}, nil
}
