// Command topoprobe inspects what Blink's TreeGen stage produces for a GPU
// allocation: the induced topology, the rings NCCL would build, the packed
// spanning trees with weights, and the optimal-rate bound.
//
// Usage:
//
//	topoprobe -machine dgx1v -gpus 1,4,5,7 -root 0
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"blink/internal/core"
	"blink/internal/graph"
	"blink/internal/topology"
)

func main() {
	machineName := flag.String("machine", "dgx1v", "dgx1p | dgx1v, or a custom spec like \"v100; 0-1:2, 1-2\"")
	gpus := flag.String("gpus", "", "comma-separated GPU IDs (default: all)")
	root := flag.Int("root", 0, "broadcast root (index within the allocation)")
	dot := flag.Bool("dot", false, "emit Graphviz DOT of the induced topology and exit")
	flag.Parse()

	var machine *topology.Topology
	switch strings.ToLower(*machineName) {
	case "dgx1p":
		machine = topology.DGX1P()
	case "dgx1v":
		machine = topology.DGX1V()
	default:
		// Try the custom topology spec format.
		m, err := topology.Parse(*machineName)
		if err != nil {
			fmt.Fprintf(os.Stderr, "unknown machine %q (and not a valid spec: %v)\n", *machineName, err)
			os.Exit(2)
		}
		machine = m
	}

	var devs []int
	if *gpus == "" {
		for d := 0; d < machine.NumGPUs; d++ {
			devs = append(devs, d)
		}
	} else {
		for _, s := range strings.Split(*gpus, ",") {
			d, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad GPU id %q\n", s)
				os.Exit(2)
			}
			devs = append(devs, d)
		}
	}

	ind, err := machine.Induce(devs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *dot {
		fmt.Print(ind.DOT())
		return
	}
	g := ind.GPUGraph()
	fmt.Printf("Topology %s\n", ind.Name)
	fmt.Printf("  NVLink connected: %v\n", g.Connected())
	for _, e := range g.Edges {
		if e.From < e.To {
			fmt.Printf("  GPU%d <-> GPU%d  %.0f link(s)\n", g.Labels[e.From], g.Labels[e.To], e.Cap)
		}
	}

	rings := core.FindRings(g)
	fmt.Printf("\nNCCL rings: %d\n", len(rings))
	for i, r := range rings {
		ids := make([]string, len(r.Verts))
		for j, v := range r.Verts {
			ids[j] = strconv.Itoa(g.Labels[v])
		}
		fmt.Printf("  ring %d: %s -> %s\n", i, strings.Join(ids, " -> "), ids[0])
	}
	if len(rings) == 0 {
		fmt.Println("  (none: NCCL falls back to PCIe)")
	}

	if !g.Connected() {
		fmt.Println("\nNVLink disconnected: Blink packs PCIe trees instead")
		return
	}
	p, err := core.GenerateTrees(g, *root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("\nBlink packing from root GPU%d: rate %.2f units (optimal bound %.2f)\n",
		g.Labels[*root], p.Rate, p.Bound)
	for i, tr := range p.Trees {
		fmt.Printf("  tree %d (weight %.2f, depth %d):", i, tr.Weight, tr.Arbo.Depth(g))
		printTree(g, tr.Arbo)
		fmt.Println()
	}
	ncclRate := float64(len(rings))
	if len(rings) == 0 {
		ncclRate = core.PCIeRingUnits
	}
	fmt.Printf("\nTheoretical broadcast speedup vs NCCL: %.2fx\n", p.Rate/ncclRate)
}

func printTree(g *graph.Graph, a graph.Arborescence) {
	for _, id := range a.Edges {
		e := g.Edges[id]
		fmt.Printf(" %d->%d", g.Labels[e.From], g.Labels[e.To])
	}
}
