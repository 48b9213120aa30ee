package dnn

import (
	"fmt"

	"blink/internal/cluster"
	"blink/internal/collective"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

// ScenarioTraining reports one fragmentation scenario's training-step
// simulation: the Blink three-phase run plus the flat-ring baseline step.
type ScenarioTraining struct {
	// Allocation is the canonical piece signature, e.g. "5+3".
	Allocation string
	GPUs       int
	Run        TrainingRun
	// RingStepSeconds is the same step's simulated collective time on the
	// flat cross-machine ring.
	RingStepSeconds float64
	// StepSpeedup is ring/three-phase simulated step time.
	StepSpeedup float64
}

// SimulateScenarioTraining instantiates each scheduler-derived scenario on
// the machine, runs a short bucketed training loop through a cluster
// engine with both backends, and reports per-scenario cold/warm dispatch
// and the three-phase vs flat-ring step comparison.
func SimulateScenarioTraining(scenarios []cluster.Scenario, machine *topology.Topology, nicGbps float64, m *Model, bucketBytes int64, iters int, clock func() float64) ([]ScenarioTraining, error) {
	var out []ScenarioTraining
	for _, sc := range scenarios {
		c, err := sc.Cluster(machine, nicGbps)
		if err != nil {
			return nil, err
		}
		eng, err := collective.NewClusterEngine(c, simgpu.Config{})
		if err != nil {
			return nil, fmt.Errorf("dnn: scenario %s: %w", sc.Key(), err)
		}
		run, err := SimulateTrainingRun(eng, collective.Blink, m, bucketBytes, iters, clock)
		if err != nil {
			return nil, fmt.Errorf("dnn: scenario %s: %w", sc.Key(), err)
		}
		ringStep, err := TrainStep(eng, collective.NCCL, m, bucketBytes)
		if err != nil {
			return nil, fmt.Errorf("dnn: scenario %s ring baseline: %w", sc.Key(), err)
		}
		st := ScenarioTraining{
			Allocation:      sc.Key(),
			GPUs:            c.TotalGPUs(),
			Run:             run,
			RingStepSeconds: ringStep.Seconds,
		}
		if run.StepSeconds > 0 {
			st.StepSpeedup = ringStep.Seconds / run.StepSeconds
		}
		out = append(out, st)
	}
	return out, nil
}
