package core

import (
	"fmt"
	"math"

	"blink/internal/simgpu"
)

// Hybrid PCIe + NVLink transfers, §3.4: the NVIDIA driver cannot mix the
// two fabrics in one topology, so Blink builds separate tree sets over each
// and splits the payload to equalize finishing times, accounting for the
// latency of cudaDeviceDisablePeerAccess (Tdpa) on the PCIe side:
//
//	T_pcie + Tdpa = T_nvl
//	D_pcie = D*BWp/(BWp+BWn) - Tdpa*BWp*BWn/(BWp+BWn),  D_nvl = D - D_pcie

// HybridSplit solves Equation 8. Bandwidths are in GB/s, tdpa in seconds.
// The PCIe share is clamped to [0, total] (tiny transfers skip PCIe
// entirely because Tdpa would dominate).
func HybridSplit(total int64, bwPCIeGBs, bwNVLGBs, tdpa float64) (pcie, nvl int64) {
	if bwPCIeGBs <= 0 || bwNVLGBs <= 0 {
		return 0, total
	}
	bp := bwPCIeGBs * 1e9
	bn := bwNVLGBs * 1e9
	d := float64(total)*bp/(bp+bn) - tdpa*bp*bn/(bp+bn)
	if d < 0 {
		d = 0
	}
	if d > float64(total) {
		d = float64(total)
	}
	pcie = (int64(d) / 4) * 4 // float32 aligned
	return pcie, total - pcie
}

// HybridResult reports the calibrated composition of a hybrid transfer: the
// Equation-8 shares and the per-fabric times the calibration measured.
type HybridResult struct {
	NVLBytes, PCIeBytes int64
	NVLTime, PCIeTime   float64
	Tdpa                float64
	Makespan            float64
}

// BuildHybridBroadcastPlan compiles a broadcast split across the NVLink and
// PCIe fabrics (each with its own packing) into ONE plan, so the hybrid
// transfer is frozen, cached and replayed like every other schedule. The
// Equation-8 split is calibrated here, once, with timing-only probe runs
// (Blink measures Tdpa and effective rates during its initial calls). The
// plan runs over the concatenation of the two link tables: the PCIe ops'
// link indices and streams are offset past the NVLink ones so the fabrics
// proceed concurrently, the PCIe share covers the payload's tail (floats
// from NVLBytes/4 on), and every PCIe op waits on one zero-resource op that
// charges Tdpa, the peer-access switch the PCIe side pays up front.
func BuildHybridBroadcastPlan(fNVL *simgpu.Fabric, pNVL *Packing, fPCIe *simgpu.Fabric, pPCIe *Packing, bytes int64, opts PlanOptions) (*Plan, *HybridResult, error) {
	if bytes < 8 {
		return nil, nil, fmt.Errorf("core: hybrid payload too small")
	}
	// Calibration runs are timing-only regardless of the caller's mode: they
	// size the split, they don't carry payload.
	probeOpts := opts
	probeOpts.DataMode = false
	timed := func(f *simgpu.Fabric, p *Packing, share int64) (float64, error) {
		plan, err := BuildBroadcastPlan(f, p, share, probeOpts)
		if err != nil {
			return 0, err
		}
		r, err := plan.Execute()
		return r.Makespan, err
	}
	const probeBytes = 64 << 20
	tN, err := timed(fNVL, pNVL, probeBytes)
	if err != nil {
		return nil, nil, fmt.Errorf("core: NVLink probe: %w", err)
	}
	tP, err := timed(fPCIe, pPCIe, probeBytes)
	if err != nil {
		return nil, nil, fmt.Errorf("core: PCIe probe: %w", err)
	}
	bwN, bwP := probeBytes/tN/1e9, probeBytes/tP/1e9
	cfg := fNVL.Cfg
	tdpa := cfg.DisablePeerBase + cfg.DisablePeerPerGPU*float64(fNVL.Topo.NumGPUs)

	// A few rebalancing iterations emulate the initial calls: split using the
	// current bandwidth estimates, time both shares, then refine the
	// estimates from the measured times; the best split wins.
	var best *HybridResult
	for iter := 0; iter < 4; iter++ {
		pcieBytes, nvlBytes := HybridSplit(bytes, bwP, bwN, tdpa)
		res := &HybridResult{NVLBytes: nvlBytes, PCIeBytes: pcieBytes, Tdpa: tdpa}
		if nvlBytes >= 4 {
			if res.NVLTime, err = timed(fNVL, pNVL, nvlBytes); err != nil {
				return nil, nil, err
			}
		}
		if pcieBytes >= 4 {
			t, err := timed(fPCIe, pPCIe, pcieBytes)
			if err != nil {
				return nil, nil, err
			}
			res.PCIeTime = t + tdpa
		}
		res.Makespan = math.Max(res.NVLTime, res.PCIeTime)
		if best == nil || res.Makespan < best.Makespan {
			best = res
		}
		// Refine estimates with measured effective bandwidths.
		if res.NVLTime > 0 {
			bwN = float64(res.NVLBytes) / res.NVLTime / 1e9
		}
		if res.PCIeTime > tdpa && res.PCIeBytes > 0 {
			bwP = float64(res.PCIeBytes) / (res.PCIeTime - tdpa) / 1e9
		} else if res.PCIeBytes == 0 {
			break // nothing assigned to PCIe; split is stable
		}
	}

	both := *fNVL
	both.Links = append(append([]simgpu.Link(nil), fNVL.Links...), fPCIe.Links...)
	plan := &Plan{TotalBytes: bytes, Fabric: &both}
	if best.NVLBytes >= 4 {
		nvl, err := BuildBroadcastPlan(fNVL, pNVL, best.NVLBytes, opts)
		if err != nil {
			return nil, nil, err
		}
		plan.Ops, plan.Streams = nvl.Ops, nvl.Streams
	}
	if best.PCIeBytes >= 4 {
		opts.OffsetFloats += int(best.NVLBytes / 4)
		pcie, err := BuildBroadcastPlan(fPCIe, pPCIe, best.PCIeBytes, opts)
		if err != nil {
			return nil, nil, err
		}
		gate := len(plan.Ops)
		plan.Ops = append(plan.Ops, &simgpu.Op{Stream: plan.Streams + pcie.Streams, Link: -1, Overhead: tdpa, Label: "disable-peer-access"})
		for _, op := range pcie.Ops {
			op.Stream += plan.Streams
			op.Link += len(fNVL.Links)
			deps := []int{gate}
			for _, d := range op.Deps {
				deps = append(deps, gate+1+d)
			}
			op.Deps = deps
		}
		plan.Ops = append(plan.Ops, pcie.Ops...)
		plan.Streams += pcie.Streams + 1
	}
	return plan, best, nil
}
