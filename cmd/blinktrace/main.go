// Command blinktrace shows the plan a communicator runs for one collective.
// It compiles the collective through the engine exactly as a Comm would,
// prints the candidate-table row the plan won (its shape and chunk) and the
// spanning-tree packing its IR carries (trees, weights, depths, rate
// against the optimal bound), times the schedule with a
// per-link utilization summary, and can export it as Chrome trace-event JSON
// (chrome://tracing or https://ui.perfetto.dev). The makespan it prints is
// the Result.Seconds the same call on a Comm reports.
//
// Usage:
//
//	blinktrace -gpus 1,4,5,7 -op allreduce -mb 100 -o trace.json
//	blinktrace -machine "v100; 0-1:2, 1-2, 2-0" -op broadcast -root 1
//	blinktrace -machine dgx1p -gpus 0,1,4 -dot
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"blink/internal/collective"
	"blink/internal/core"
	"blink/internal/graph"
	"blink/internal/simgpu"
	"blink/internal/topology"
	"blink/internal/trace"
)

func main() {
	if _, err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "blinktrace:", err)
		os.Exit(1)
	}
}

// run executes one invocation and returns the traced makespan in seconds.
func run(args []string, w io.Writer) (float64, error) {
	fs := flag.NewFlagSet("blinktrace", flag.ContinueOnError)
	machineName := fs.String("machine", "dgx1v", "dgx1p | dgx1v, or a custom spec like \"v100; 0-1:2, 1-2\"")
	gpus := fs.String("gpus", "", "comma-separated GPU IDs (default: all)")
	opName := fs.String("op", "allreduce", "collective: broadcast, reduce, allreduce, allgather, ... alltoall")
	mb := fs.Int64("mb", 100, "payload size in MiB")
	root := fs.Int("root", 0, "root rank")
	out := fs.String("o", "", "write Chrome trace JSON to this file ('' = summary only)")
	dot := fs.Bool("dot", false, "emit Graphviz DOT of the induced topology and exit")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}

	var machine *topology.Topology
	switch strings.ToLower(*machineName) {
	case "dgx1p":
		machine = topology.DGX1P()
	case "dgx1v":
		machine = topology.DGX1V()
	default:
		m, err := topology.Parse(*machineName)
		if err != nil {
			return 0, fmt.Errorf("unknown machine %q (and not a valid spec: %v)", *machineName, err)
		}
		machine = m
	}
	var devs []int
	for _, s := range strings.Split(*gpus, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		d, err := strconv.Atoi(s)
		if err != nil {
			return 0, fmt.Errorf("bad GPU id %q", s)
		}
		devs = append(devs, d)
	}
	if devs == nil {
		devs = machine.DevIDs
	}
	if *dot {
		ind, err := machine.Induce(devs)
		if err != nil {
			return 0, err
		}
		fmt.Fprint(w, ind.DOT())
		return 0, nil
	}
	op := collective.Op(-1)
	for o := collective.Broadcast; o <= collective.AllToAll; o++ {
		if strings.EqualFold(o.String(), *opName) {
			op = o
		}
	}
	if op < 0 {
		return 0, fmt.Errorf("unknown op %q", *opName)
	}

	// The plan the engine caches for this call, decoded to its IR and
	// generated again over the same fabric.
	eng, err := collective.NewEngine(machine, devs, simgpu.Config{})
	if err != nil {
		return 0, err
	}
	blob, _, err := eng.PlanBlob(collective.Blink, op, *root, *mb<<20, collective.Options{})
	if err != nil {
		return 0, err
	}
	_, ir, err := core.DecodePlanIR(blob)
	if err != nil {
		return 0, err
	}
	f := eng.FabricFor(collective.Blink)
	plan, err := core.CodeGen(ir, f)
	if err != nil {
		return 0, err
	}
	tf, sum, err := trace.FromPlan(plan)
	if err != nil {
		return 0, err
	}

	fmt.Fprintf(w, "%v of %d MiB over %s GPUs %v (%s on %v): %d ops on %d streams\n",
		op, *mb, machine.Name, devs, ir.Strategy, ir.Fabric, len(plan.Ops), plan.Streams)
	if ir.Row != (core.Row{}) {
		fmt.Fprintf(w, "row %v @ %d B\n", ir.Row.Shape, ir.Row.Chunk)
	}
	for i, p := range ir.Packings {
		g := f.Graph
		if i == 1 && ir.Kind == core.IRTreeBroadcast {
			g = f.Topo.PCIeGraph() // the hybrid's PCIe share
		}
		fmt.Fprintf(w, "packing %d from rank %d: %d trees, rate %.2f of bound %.2f\n",
			i, p.Root, len(p.Trees), p.Rate, p.Bound)
		for j, tr := range p.Trees {
			fmt.Fprintf(w, "  tree %d (weight %.2f, depth %d):%s\n", j, tr.Weight, tr.Arbo.Depth(g), treeEdges(g, tr.Arbo))
		}
	}
	sum.Fprint(w, 10)
	if *out != "" {
		fh, err := os.Create(*out)
		if err != nil {
			return 0, err
		}
		defer fh.Close()
		if err := tf.Write(fh); err != nil {
			return 0, err
		}
		fmt.Fprintf(w, "wrote %d events to %s\n", len(tf.TraceEvents), *out)
	}
	return sum.Makespan, nil
}

// treeEdges renders a tree's edges as " a->b ...", by rank as the link
// labels are, and a PCIe relay vertex v as "hv".
func treeEdges(g *graph.Graph, a graph.Arborescence) string {
	name := func(v int) string {
		if g.Labels[v] < 0 {
			return "h" + strconv.Itoa(v)
		}
		return strconv.Itoa(v)
	}
	var b strings.Builder
	for _, id := range a.Edges {
		e := g.Edges[id]
		fmt.Fprintf(&b, " %s->%s", name(e.From), name(e.To))
	}
	return b.String()
}
