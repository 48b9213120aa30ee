package main

import (
	"path/filepath"
	"strings"
	"testing"

	"blink"
)

// The tool traces the plan a Comm runs: for the README's command, and for
// the Broadcast whose trial keeps the hybrid, the traced makespan is the
// Result.Seconds of the same call on a communicator over the same GPUs, and
// it prints the row the plan won.
func TestTraceIsTheCommPlan(t *testing.T) {
	comm, err := blink.NewComm(blink.DGX1V(), []int{1, 4, 5, 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		op   string
		call func() (blink.Result, error)
	}{
		{"allreduce", func() (blink.Result, error) { return comm.AllReduce(100 << 20) }},
		{"broadcast", func() (blink.Result, error) { return comm.Broadcast(0, 100<<20) }},
	} {
		out := filepath.Join(t.TempDir(), "trace.json")
		var w strings.Builder
		got, err := run([]string{"-gpus", "1,4,5,7", "-op", c.op, "-mb", "100", "-o", out}, &w)
		if err != nil || !strings.Contains(w.String(), "\nrow ") {
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
