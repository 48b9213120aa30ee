// Command blinktrace exports a collective's schedule as Chrome trace-event
// JSON (load in chrome://tracing or https://ui.perfetto.dev) and prints a
// per-link utilization summary.
//
// Usage:
//
//	blinktrace -gpus 1,4,5,7 -op allreduce -mb 100 -o trace.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"blink/internal/core"
	"blink/internal/simgpu"
	"blink/internal/topology"
	"blink/internal/trace"
)

func main() {
	gpus := flag.String("gpus", "0,1,2,3,4,5,6,7", "comma-separated GPU IDs on a DGX-1V")
	op := flag.String("op", "allreduce", "broadcast | allreduce")
	mb := flag.Int64("mb", 100, "payload size in MiB")
	out := flag.String("o", "", "write Chrome trace JSON to this file ('' = summary only)")
	root := flag.Int("root", 0, "root rank")
	flag.Parse()

	var devs []int
	for _, s := range strings.Split(*gpus, ",") {
		d, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad GPU id %q\n", s)
			os.Exit(2)
		}
		devs = append(devs, d)
	}
	ind, err := topology.DGX1V().Induce(devs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	g := ind.GPUGraph()
	p, err := core.GenerateTrees(g, *root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	f := simgpu.NewFabric(ind, g, simgpu.Config{})
	opts := core.PlanOptions{ChunkBytes: 2 << 20, NoStreamReuse: true}
	var plan *core.Plan
	switch strings.ToLower(*op) {
	case "broadcast":
		plan, err = core.BuildBroadcastPlan(f, p, *mb<<20, opts)
	case "allreduce":
		plan, err = core.BuildAllReducePlan(f, p, *mb<<20, opts)
	default:
		fmt.Fprintf(os.Stderr, "unknown op %q\n", *op)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	tf, err := trace.FromPlan(plan)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	s := trace.Summarize(f, plan.Ops)
	fmt.Printf("%s of %d MiB over GPUs %s: %d ops on %d streams\n",
		*op, *mb, topology.AllocLabel(devs), len(plan.Ops), plan.Streams)
	s.Fprint(os.Stdout, 10)

	if *out != "" {
		fh, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer fh.Close()
		if err := tf.Write(fh); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d events to %s\n", len(tf.TraceEvents), *out)
	}
}
