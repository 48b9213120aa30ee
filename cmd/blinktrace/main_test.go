package main

import (
	"path/filepath"
	"strings"
	"testing"

	"blink"
)

// The tool traces the plan a Comm runs: for the README's command, a 1 MiB
// AllReduce whose trees hang from their centers, and the Broadcast whose
// trial keeps the hybrid, the traced makespan is the Result.Seconds of the
// same call on a communicator over the same GPUs, and it prints the row the
// plan won and, for a centered row, each tree's center and its height there.
func TestTraceIsTheCommPlan(t *testing.T) {
	comm, err := blink.NewComm(blink.DGX1V(), []int{1, 4, 5, 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		op, mb, line string
		call         func() (blink.Result, error)
	}{
		{"allreduce", "100", "\nrow rank-rooted", func() (blink.Result, error) { return comm.AllReduce(100 << 20) }},
		{"allreduce", "1", "\n  tree 0 (weight 0.33, depth 2, center 2 height 1):", func() (blink.Result, error) { return comm.AllReduce(1 << 20) }},
		{"broadcast", "100", "\nrow ", func() (blink.Result, error) { return comm.Broadcast(0, 100<<20) }},
	} {
		out := filepath.Join(t.TempDir(), "trace.json")
		var w strings.Builder
		got, err := run([]string{"-gpus", "1,4,5,7", "-op", c.op, "-mb", c.mb, "-o", out}, &w)
		if err != nil || !strings.Contains(w.String(), c.line) {
			t.Fatal(err, w.String())
		}
		want, err := c.call()
		if err != nil {
			t.Fatal(err)
		}
		if got != want.Seconds {
			t.Fatalf("%s: traced makespan %v s, Comm reports %v s (%s)", c.op, got, want.Seconds, want.Strategy)
		}
	}
}
