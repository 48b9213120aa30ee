package core

// MIAD (multiplicative-increase, additive-decrease) chunk-size selection,
// §4.2.1: ML jobs run many identical iterations, so Blink spends the first
// few exploring chunk sizes — doubling while measured throughput rises,
// then stepping back additively once it falls, settling at steady state.

// MIADSample records one tuning iteration.
type MIADSample struct {
	Iter          int
	ChunkBytes    int64
	ThroughputGBs float64
}

// MIADTuner tracks tuning state across iterations.
type MIADTuner struct {
	// Factor is the multiplicative growth rate (default 2.0).
	Factor float64
	// DecrementBytes is the additive step down (default 1 MiB).
	DecrementBytes int64
	// Tolerance is the relative improvement required to keep moving
	// (default 2%).
	Tolerance float64
	// MinChunkBytes floors the chunk size (default 64 KiB).
	MinChunkBytes int64

	chunk int64
	last  float64
	// bestTp/bestChunk track the best-seen observation; the tuner settles
	// there, not wherever the additive-decrease walk happens to stop.
	bestTp    float64
	bestChunk int64
	state     int // 0 growing, 1 decreasing, 2 steady
	History   []MIADSample
}

// NewMIADTuner starts a tuner at the given initial chunk size (the paper
// starts at 1 MB).
func NewMIADTuner(initial int64) *MIADTuner {
	if initial <= 0 {
		initial = 1 << 20
	}
	return &MIADTuner{
		Factor:         2.0,
		DecrementBytes: 1 << 20,
		Tolerance:      0.02,
		MinChunkBytes:  64 << 10,
		chunk:          initial,
	}
}

// Chunk returns the chunk size to use for the next iteration.
func (t *MIADTuner) Chunk() int64 { return t.chunk }

// Steady reports whether tuning has converged.
func (t *MIADTuner) Steady() bool { return t.state == 2 }

// Observe feeds the throughput measured with the current chunk size and
// advances the tuner. It returns the chunk size for the next iteration.
func (t *MIADTuner) Observe(throughputGBs float64) int64 {
	t.History = append(t.History, MIADSample{Iter: len(t.History) + 1, ChunkBytes: t.chunk, ThroughputGBs: throughputGBs})
	if throughputGBs > t.bestTp || t.bestChunk == 0 {
		t.bestTp = throughputGBs
		t.bestChunk = t.chunk
	}
	improved := throughputGBs > t.last*(1+t.Tolerance)
	declined := throughputGBs < t.last*(1-t.Tolerance)
	switch t.state {
	case 0: // multiplicative increase
		if len(t.History) == 1 || improved {
			t.last = throughputGBs
			t.chunk = int64(float64(t.chunk) * t.Factor)
		} else if declined {
			// Hill-climb out of the overshoot: the decrease phase compares
			// each probe against the previous one, so optima inside the
			// (peak, peak*Factor) gap are still found. Settling below the
			// best-seen observation is impossible regardless — steady
			// state jumps to bestChunk below.
			t.state = 1
			t.last = throughputGBs
			t.chunk -= t.DecrementBytes
		} else {
			t.state = 2 // flat: converged
		}
	case 1: // additive decrease
		if improved {
			t.last = throughputGBs
			t.chunk -= t.DecrementBytes
		} else {
			t.state = 2 // no further improvement: settle
		}
	}
	if t.chunk < t.MinChunkBytes {
		t.chunk = t.MinChunkBytes
		t.state = 2
	}
	if t.state == 2 {
		// Settle at the best-seen chunk (the walk may have ended in a
		// trough), floored like every emitted chunk.
		t.chunk = t.bestChunk
		t.chunk = max(t.chunk, t.MinChunkBytes)
	}
	return t.chunk
}

// AutoTuneChunk drives a tuner against a plan builder: each iteration
// builds and executes a plan with the current chunk size and feeds the
// measured throughput back, stopping at steady state or maxIters. It
// returns the selected chunk size and the per-iteration history.
func AutoTuneChunk(build func(chunkBytes int64) (*Plan, error), initial int64, maxIters int) (int64, []MIADSample, error) {
	t := NewMIADTuner(initial)
	if maxIters <= 0 {
		maxIters = 16
	}
	for i := 0; i < maxIters && !t.Steady(); i++ {
		plan, err := build(t.Chunk())
		if err != nil {
			return 0, t.History, err
		}
		tp, err := plan.ThroughputGBs()
		if err != nil {
			return 0, t.History, err
		}
		t.Observe(tp)
	}
	// Best observed chunk wins (steady state may sit one step past peak).
	best := t.Chunk()
	bestTp := 0.0
	for _, s := range t.History {
		if s.ThroughputGBs > bestTp {
			bestTp = s.ThroughputGBs
			best = s.ChunkBytes
		}
	}
	return best, t.History, nil
}
