// Custom-topology example: define your own interconnect with the compact
// spec format, let TreeGen pack it, and compare against the ring baseline.
// This is the workflow for fabrics beyond the built-in DGX machines
// (e.g. future servers, testbeds, or hypothetical designs).
package main

import (
	"fmt"
	"log"

	"blink"
	"blink/internal/core"
	"blink/internal/topology"
)

func main() {
	// A hypothetical 6-GPU machine: two triangles bridged by a double link.
	spec := "v100; 0-1, 1-2, 0-2, 3-4, 4-5, 3-5, 2-3:2"
	machine, err := topology.Parse(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Custom machine: %s\n%s\n", spec, machine.DOT())

	g := machine.GPUGraph()
	rings := core.FindRings(g)
	fmt.Printf("NCCL would build %d ring(s) here.\n", len(rings))

	p, err := core.GenerateTrees(g, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Blink packs %d trees at rate %.2f (optimal %.2f):\n", len(p.Trees), p.Rate, p.Bound)
	for i, tr := range p.Trees {
		fmt.Printf("  tree %d (w=%.2f):", i, tr.Weight)
		for _, id := range tr.Arbo.Edges {
			e := g.Edges[id]
			fmt.Printf(" %d->%d", e.From, e.To)
		}
		fmt.Println()
	}

	var devs []int
	for d := 0; d < machine.NumGPUs; d++ {
		devs = append(devs, d)
	}
	bComm, err := blink.NewComm(machine, devs)
	if err != nil {
		log.Fatal(err)
	}
	nComm, err := blink.NewComm(machine, devs, blink.WithBackend(blink.BackendNCCL))
	if err != nil {
		log.Fatal(err)
	}
	b, err := bComm.AllReduce(200 << 20)
	if err != nil {
		log.Fatal(err)
	}
	n, err := nComm.AllReduce(200 << 20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nAllReduce 200 MB: Blink %.1f GB/s (%s) vs NCCL-model %.1f GB/s (%s) => %.2fx\n",
		b.ThroughputGBs, b.Strategy, n.ThroughputGBs, n.Strategy, b.ThroughputGBs/n.ThroughputGBs)
}
