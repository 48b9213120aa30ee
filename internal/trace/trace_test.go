package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"

	"blink/internal/core"
	"blink/internal/obs"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

func samplePlan(t *testing.T) *core.Plan {
	t.Helper()
	ind, err := topology.DGX1V().Induce([]int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	g := ind.GPUGraph()
	p, err := core.GenerateTrees(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := simgpu.NewFabric(ind, g, simgpu.Config{})
	plan, err := core.BuildAllReducePlan(f, p, 32<<20, core.PlanOptions{ChunkBytes: 4 << 20, NoStreamReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestFromPlanProducesEvents(t *testing.T) {
	plan := samplePlan(t)
	tf, err := FromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("no events")
	}
	// Events are time-sorted, non-negative, with positive durations.
	prev := -1.0
	for _, e := range tf.TraceEvents {
		if e.TS < prev {
			t.Fatal("events not sorted by timestamp")
		}
		prev = e.TS
		if e.Dur <= 0 || e.TS < 0 {
			t.Fatalf("bad event window: %+v", e)
		}
		if e.Ph != "X" {
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	// Reduce ops must be categorized.
	sawReduce := false
	for _, e := range tf.TraceEvents {
		if e.Cat == "reduce" {
			sawReduce = true
		}
	}
	if !sawReduce {
		t.Fatal("no reduce events in an AllReduce trace")
	}
}

// TestFromPlanIdempotent is the regression for the unconditional
// plan.Execute() FromPlan used to issue: tracing a plan that already ran
// must not re-execute it — in data mode that would replay every Exec
// closure's data movement just to read back timings the ops already carry.
func TestFromPlanIdempotent(t *testing.T) {
	plan := samplePlan(t)
	var execs atomic.Int64
	for _, op := range plan.Ops {
		op.Exec = func(*simgpu.BufferSet, simgpu.Window) { execs.Add(1) }
	}
	want := int64(len(plan.Ops))

	// First trace of a fresh plan executes it exactly once.
	tf1, err := FromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := execs.Load(); got != want {
		t.Fatalf("first FromPlan ran %d Exec closures, want %d", got, want)
	}
	// Second trace reuses the recorded timings.
	tf2, err := FromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := execs.Load(); got != want {
		t.Fatalf("FromPlan re-executed an already-executed plan: %d closure runs, want %d", got, want)
	}
	var b1, b2 bytes.Buffer
	if err := tf1.Write(&b1); err != nil {
		t.Fatal(err)
	}
	if err := tf2.Write(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("re-tracing an executed plan changed the trace")
	}

	// Execute-then-trace: a plan run by the caller is traced as-is.
	plan2 := samplePlan(t)
	var execs2 atomic.Int64
	for _, op := range plan2.Ops {
		op.Exec = func(*simgpu.BufferSet, simgpu.Window) { execs2.Add(1) }
	}
	if _, err := plan2.Execute(); err != nil {
		t.Fatal(err)
	}
	if _, err := FromPlan(plan2); err != nil {
		t.Fatal(err)
	}
	if got := execs2.Load(); got != int64(len(plan2.Ops)) {
		t.Fatalf("FromPlan re-executed a caller-executed plan: %d closure runs, want %d",
			got, len(plan2.Ops))
	}
}

func TestWriteJSON(t *testing.T) {
	plan := samplePlan(t)
	tf, err := FromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tf.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if _, ok := parsed["traceEvents"]; !ok {
		t.Fatal("traceEvents key missing")
	}
}

// TestFromSpans checks the span-swimlane conversion: one lane per stream
// (sync dispatches on pid 0), a queue event only when the op actually
// waited, and time-sorted output.
func TestFromSpans(t *testing.T) {
	spans := []obs.Span{
		{Seq: 0, Name: "AllReduce", Stream: -1, Strategy: "trees",
			QueuedAt: 0.1, DispatchedAt: 0.1, CompletedAt: 0.3},
		{Seq: 1, Name: "AllToAll", Stream: 2, Strategy: "trees",
			QueuedAt: 0.2, DispatchedAt: 0.5, CompletedAt: 0.6},
	}
	f := FromSpans(spans)
	// Span 0 never waited: one event. Span 1 waited: queue + op events.
	if len(f.TraceEvents) != 3 {
		t.Fatalf("events = %d, want 3", len(f.TraceEvents))
	}
	var queued, ops int
	for _, e := range f.TraceEvents {
		switch e.Cat {
		case "queue":
			queued++
			if e.Name != "AllToAll (queued)" || e.PID != 3 {
				t.Fatalf("queue event wrong: %+v", e)
			}
		default:
			ops++
			wantPID := 0
			if e.Name == "AllToAll" {
				wantPID = 3
			}
			if e.PID != wantPID {
				t.Fatalf("op event lane wrong: %+v", e)
			}
		}
	}
	if queued != 1 || ops != 2 {
		t.Fatalf("queued %d ops %d, want 1 and 2", queued, ops)
	}
	for i := 1; i < len(f.TraceEvents); i++ {
		if f.TraceEvents[i].TS < f.TraceEvents[i-1].TS {
			t.Fatal("span trace not time-sorted")
		}
	}
}

func TestSummarize(t *testing.T) {
	plan := samplePlan(t)
	if _, err := plan.Execute(); err != nil {
		t.Fatal(err)
	}
	s := Summarize(plan.Fabric, plan.Ops)
	if s.Makespan <= 0 || len(s.Links) == 0 {
		t.Fatalf("summary empty: %+v", s)
	}
	// Sorted by busy time.
	for i := 1; i < len(s.Links); i++ {
		if s.Links[i].BusySecs > s.Links[i-1].BusySecs {
			t.Fatal("links not sorted by busy time")
		}
	}
	// No link can be busier than the makespan (occupancy is exclusive).
	for _, u := range s.Links {
		if u.Utilization > 1.0+1e-9 {
			t.Fatalf("link %s utilization %.3f > 1", u.Label, u.Utilization)
		}
	}
	var buf bytes.Buffer
	s.Fprint(&buf, 3)
	out := buf.String()
	if !strings.Contains(out, "makespan") || strings.Count(out, "busy") != 3 {
		t.Fatalf("summary rendering wrong:\n%s", out)
	}
}
