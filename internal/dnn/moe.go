package dnn

import (
	"fmt"

	"blink/internal/collective"
)

// MoEConfig describes one expert-parallel mixture-of-experts training step:
// every rank hosts one expert shard and each MoE layer routes tokens to
// experts with an AllToAll dispatch, runs the expert FFN, then returns the
// expert outputs with an AllToAll combine (GShard/Switch-Transformer
// expert parallelism).
type MoEConfig struct {
	// Layers is the number of MoE layers per step.
	Layers int
	// TokensPerGPU is each rank's routed token count per layer.
	TokensPerGPU int
	// ModelDim is the hidden size in float32s per token.
	ModelDim int
	// ExpertSeconds is the expert FFN compute time per layer.
	ExpertSeconds float64
	// DenseGradBytes is the dense (non-expert) gradient volume AllReduced
	// once per step.
	DenseGradBytes int64
}

// MoEStepStats reports one simulated MoE training step.
type MoEStepStats struct {
	// DispatchSeconds / CombineSeconds are the summed AllToAll times across
	// layers (token routing to experts and back).
	DispatchSeconds float64
	CombineSeconds  float64
	// ExpertSeconds is the summed expert compute.
	ExpertSeconds float64
	// AllReduceSeconds is the dense-gradient synchronization.
	AllReduceSeconds float64
	// StepSeconds is the end-to-end step time (communication is on the
	// critical path of every MoE layer, so parts sum).
	StepSeconds float64
	// CommFrac is the fraction of the step spent communicating — the metric
	// that makes AllToAll throughput decide MoE scaling efficiency.
	CommFrac float64
	// Strategy is the scheduler the AllToAll compiled to.
	Strategy string
}

// MoETrainStep simulates one expert-parallel training step through the
// engine: per layer an AllToAll dispatch, expert compute, an AllToAll
// combine; then one dense-gradient AllReduce. Every collective rides the
// plan cache, so a steady-state training loop replays frozen schedules.
func MoETrainStep(eng *collective.Engine, backend collective.Backend, cfg MoEConfig) (MoEStepStats, error) {
	if cfg.Layers <= 0 || cfg.TokensPerGPU <= 0 || cfg.ModelDim <= 0 {
		return MoEStepStats{}, fmt.Errorf("dnn: MoE config needs positive layers, tokens and model dim")
	}
	bytes := int64(cfg.TokensPerGPU) * int64(cfg.ModelDim) * 4
	var st MoEStepStats
	for l := 0; l < cfg.Layers; l++ {
		disp, err := eng.Run(backend, collective.AllToAll, 0, bytes, collective.Options{})
		if err != nil {
			return MoEStepStats{}, fmt.Errorf("dnn: MoE layer %d dispatch: %w", l, err)
		}
		comb, err := eng.Run(backend, collective.AllToAll, 0, bytes, collective.Options{})
		if err != nil {
			return MoEStepStats{}, fmt.Errorf("dnn: MoE layer %d combine: %w", l, err)
		}
		st.DispatchSeconds += disp.Seconds + CollectiveCallLatency
		st.CombineSeconds += comb.Seconds + CollectiveCallLatency
		st.ExpertSeconds += cfg.ExpertSeconds
		st.Strategy = disp.Strategy
	}
	if cfg.DenseGradBytes > 0 {
		ar, err := eng.Run(backend, collective.AllReduce, 0, cfg.DenseGradBytes, collective.Options{})
		if err != nil {
			return MoEStepStats{}, fmt.Errorf("dnn: MoE dense allreduce: %w", err)
		}
		st.AllReduceSeconds = ar.Seconds + CollectiveCallLatency
	}
	comm := st.DispatchSeconds + st.CombineSeconds + st.AllReduceSeconds
	st.StepSeconds = st.DispatchSeconds + st.CombineSeconds + st.ExpertSeconds + st.AllReduceSeconds
	if st.StepSeconds > 0 {
		st.CommFrac = comm / st.StepSeconds
	}
	return st, nil
}

// PipelineConfig describes one pipeline-parallel training step: the model
// is split across the ranks of Stages (in pipeline order) and MicroBatches
// microbatches stream through, handing activations forward and gradients
// backward across each stage boundary (GPipe-style schedule).
type PipelineConfig struct {
	// Stages lists the ranks in pipeline order (at least two).
	Stages []int
	// MicroBatches is the number of microbatches per step (at least one).
	MicroBatches int
	// ActivationBytes is the per-microbatch activation (and gradient)
	// volume crossing each stage boundary.
	ActivationBytes int64
	// StageSeconds is one stage's compute time per microbatch per
	// direction (forward; backward is modeled at twice this).
	StageSeconds float64
	// SharedGradBytes is the gradient volume AllReduced across all ranks
	// after the pipeline drains (tied embeddings / data-parallel replicas);
	// zero skips the AllReduce.
	SharedGradBytes int64
}

// PipelineStepStats reports one simulated pipeline-parallel step.
type PipelineStepStats struct {
	// HopSeconds is the slowest stage-boundary hand-off (one microbatch's
	// activation SendRecv between adjacent stages) — the pipeline's
	// communication slot time.
	HopSeconds float64
	// FwdSlot / BwdSlot are the per-slot times: stage compute plus the
	// boundary hand-off in each direction.
	FwdSlot float64
	BwdSlot float64
	// BubbleSeconds is the pipeline fill/drain cost: (stages-1) idle slots
	// at the head and tail of the schedule.
	BubbleSeconds float64
	// BubbleFrac is bubble over total pipeline time, the classic
	// (s-1)/(m+s-1) inefficiency.
	BubbleFrac float64
	// AllReduceSeconds is the post-drain shared-gradient sync.
	AllReduceSeconds float64
	// StepSeconds is the end-to-end step time.
	StepSeconds float64
}

// PipelineTrainStep simulates one pipeline-parallel training step: each
// adjacent stage boundary's activation hand-off is timed with a SendRecv
// chain through the engine (relay-routed when stages are not adjacent in
// the fabric), and the GPipe fill-drain schedule is applied analytically —
// (microbatches + stages - 1) slots per direction, backward at twice the
// forward compute — followed by an optional shared-gradient AllReduce.
func PipelineTrainStep(eng *collective.Engine, backend collective.Backend, cfg PipelineConfig) (PipelineStepStats, error) {
	s := len(cfg.Stages)
	if s < 2 {
		return PipelineStepStats{}, fmt.Errorf("dnn: pipeline needs at least 2 stages, got %d", s)
	}
	if cfg.MicroBatches < 1 {
		return PipelineStepStats{}, fmt.Errorf("dnn: pipeline needs at least 1 microbatch")
	}
	if cfg.ActivationBytes <= 0 {
		return PipelineStepStats{}, fmt.Errorf("dnn: pipeline needs positive activation bytes")
	}
	var st PipelineStepStats
	// The slot time is set by the slowest boundary: each hand-off is a
	// two-rank SendRecv chain (forward and reversed cover both directions).
	for i := 0; i+1 < s; i++ {
		for _, chain := range [][]int{
			{cfg.Stages[i], cfg.Stages[i+1]},
			{cfg.Stages[i+1], cfg.Stages[i]},
		} {
			res, err := eng.Run(backend, collective.SendRecv, 0, cfg.ActivationBytes,
				collective.Options{Chain: chain})
			if err != nil {
				return PipelineStepStats{}, fmt.Errorf("dnn: pipeline boundary %d: %w", i, err)
			}
			st.HopSeconds = max(st.HopSeconds, res.Seconds+CollectiveCallLatency)
		}
	}
	st.FwdSlot = cfg.StageSeconds + st.HopSeconds
	st.BwdSlot = 2*cfg.StageSeconds + st.HopSeconds
	slots := float64(cfg.MicroBatches + s - 1)
	pipeline := slots * (st.FwdSlot + st.BwdSlot)
	st.BubbleSeconds = float64(s-1) * (st.FwdSlot + st.BwdSlot)
	st.BubbleFrac = float64(s-1) / slots
	if cfg.SharedGradBytes > 0 {
		ar, err := eng.Run(backend, collective.AllReduce, 0, cfg.SharedGradBytes, collective.Options{})
		if err != nil {
			return PipelineStepStats{}, fmt.Errorf("dnn: pipeline allreduce: %w", err)
		}
		st.AllReduceSeconds = ar.Seconds + CollectiveCallLatency
	}
	st.StepSeconds = pipeline + st.AllReduceSeconds
	return st, nil
}
