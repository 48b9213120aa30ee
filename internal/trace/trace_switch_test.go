package trace

import (
	"testing"

	"blink/internal/core"
	"blink/internal/simgpu"
)

// TestTraceSwitchFabric exercises trace export over the DGX-2's two-leg
// store-and-forward ops.
func TestTraceSwitchFabric(t *testing.T) {
	_, _, packs, f, err := core.NewDGX2Runtime(simgpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.BuildDGX2AllReducePlan(f, packs, 16<<20, core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := Simulate(plan)
	if err != nil {
		t.Fatal(err)
	}
	if tf := FromOps(f, plan.Ops, sim); len(tf.TraceEvents) == 0 {
		t.Fatal("no events from switch fabric")
	}
	s := Summarize(f, plan.Ops, sim)
	// Up and down attach ports must both appear.
	var sawUp, sawDown bool
	for _, u := range s.Links {
		if len(u.Label) >= 2 && u.Label[:2] == "up" {
			sawUp = true
		}
		if len(u.Label) >= 4 && u.Label[:4] == "down" {
			sawDown = true
		}
	}
	if !sawUp || !sawDown {
		t.Fatalf("attach ports missing from summary: up=%v down=%v", sawUp, sawDown)
	}
}
