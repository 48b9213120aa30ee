package dnn

import (
	"fmt"
	"time"

	"blink/internal/collective"
)

// OverlappedTrainStep is the DDP-overlap variant of TrainStep: backward
// compute is simulated as wall-clock time (the host is idle while GPU
// kernels run), and each gradient bucket's AllReduce is launched
// asynchronously the moment backprop produces it — after bucket i of n,
// (i+1)/n of backpropWall has elapsed, modeling per-bucket gradient-ready
// hooks. The step then waits on every handle before returning, the
// optimizer-step barrier. Communication dispatch therefore overlaps the
// remaining backward compute instead of queueing behind it, which is the
// overlap the paper's end-to-end results assume; the sequential
// counterpart (sleep backpropWall, then the blocking TrainStep) pays
// compute + communication back to back.
//
// The returned GroupResult aggregates the handles in launch order, with
// exact cache attribution from each handle. opts is passed to every bucket's
// dispatch (Options{DataMode: true} on a data-mode engine makes each one
// move its payload, which is the communication cost left to overlap now
// that a timing replay is a lookup).
func OverlappedTrainStep(eng *collective.Engine, backend collective.Backend, m *Model, bucketBytes int64, backpropWall time.Duration, opts collective.Options) (collective.GroupResult, error) {
	sizes := GradientBuckets(m, bucketBytes)
	if len(sizes) == 0 {
		return collective.GroupResult{}, fmt.Errorf("dnn: model %s has no gradients", m.Name)
	}
	slice := backpropWall / time.Duration(len(sizes))
	handles := make([]*collective.Handle, len(sizes))
	start := time.Now()
	for i, sz := range sizes {
		// Gradients become ready at absolute points in the backward pass,
		// so sleep to each bucket's deadline rather than for a fixed slice:
		// OS timer quantization on one slice is absorbed by the next
		// instead of compounding across buckets.
		ready := start.Add(slice * time.Duration(i+1))
		if d := time.Until(ready); d > 0 {
			time.Sleep(d) // backward slice producing this bucket: host idle
		}
		handles[i] = eng.RunAsync(backend, collective.AllReduce, 0, sz, opts, -1)
	}
	g := collective.GroupResult{Results: make([]collective.Result, 0, len(sizes))}
	for i, h := range handles {
		res, err := h.Wait()
		if err != nil {
			return collective.GroupResult{}, fmt.Errorf("dnn: bucket %d: %w", i, err)
		}
		if h.CacheHit() {
			g.CacheHits++
		} else {
			g.CacheMisses++
		}
		g.Results = append(g.Results, res)
		g.Seconds += res.Seconds
		g.Bytes += sizes[i]
	}
	if g.Seconds > 0 {
		g.ThroughputGBs = float64(g.Bytes) / g.Seconds / 1e9
	}
	return g, nil
}

// SequentialTrainStep is the non-overlapped baseline OverlappedTrainStep
// is measured against: the full backward pass elapses first (host idle),
// then the step's gradient buckets dispatch as one blocking grouped
// collective — communication strictly after compute: TrainStep under opts,
// whose empty-group error covers a model without gradients.
func SequentialTrainStep(eng *collective.Engine, backend collective.Backend, m *Model, bucketBytes int64, backpropWall time.Duration, opts collective.Options) (collective.GroupResult, error) {
	if backpropWall > 0 {
		time.Sleep(backpropWall)
	}
	return eng.RunMany(backend, collective.AllReduce, 0, GradientBuckets(m, bucketBytes), opts)
}
