package blink_test

import (
	"fmt"

	"blink"
)

// ExampleNewComm creates a communicator over a fragmented 4-GPU allocation
// of a DGX-1V — the scheduler-assigned device sets Blink is built for.
func ExampleNewComm() {
	comm, err := blink.NewComm(blink.DGX1V(), []int{1, 4, 5, 6})
	if err != nil {
		panic(err)
	}
	fmt.Println("ranks:", comm.Size())
	fmt.Println("devices:", comm.Devices())
	fmt.Println("backend:", comm.Backend())
	trees, err := comm.Trees(0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("rank 0 broadcasts over %d trees at rate %.0f\n", len(trees.Trees), trees.Rate)
	// Output:
	// ranks: 4
	// devices: [1 4 5 6]
	// backend: Blink
	// rank 0 broadcasts over 2 trees at rate 2
}

// ExampleComm_AllReduce reduces 100 MB of gradients across all ranks. The
// first call compiles the spanning-tree schedule; repeats replay it from
// the plan cache.
func ExampleComm_AllReduce() {
	comm, err := blink.NewComm(blink.DGX1V(), []int{0, 1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		panic(err)
	}
	res, err := comm.AllReduce(100 << 20)
	if err != nil {
		panic(err)
	}
	fmt.Println("strategy:", res.Strategy)
	fmt.Println("bytes:", res.Bytes)
	if _, err := comm.AllReduce(100 << 20); err != nil {
		panic(err)
	}
	st := comm.CacheStats()
	fmt.Printf("plan cache: %d hit, %d miss\n", st.Hits, st.Misses)
	// Output:
	// strategy: trees
	// bytes: 104857600
	// plan cache: 1 hit, 1 miss
}

// ExampleComm_BroadcastData moves real float32 data (data mode) so the
// schedule is functionally verified, not just timed.
func ExampleComm_BroadcastData() {
	comm, err := blink.NewComm(blink.DGX1V(), []int{0, 1, 2, 3}, blink.WithDataMode())
	if err != nil {
		panic(err)
	}
	payload := []float32{1, 2, 3, 4}
	out, err := comm.BroadcastData(0, payload)
	if err != nil {
		panic(err)
	}
	for rank, buf := range out {
		fmt.Printf("rank %d: %v\n", rank, buf)
	}
	// Output:
	// rank 0: [1 2 3 4]
	// rank 1: [1 2 3 4]
	// rank 2: [1 2 3 4]
	// rank 3: [1 2 3 4]
}

// ExampleComm_AllReduceMany issues one training step's gradient buckets as
// a grouped collective. Every distinct bucket size compiles once; the next
// step replays the whole group from the plan cache.
func ExampleComm_AllReduceMany() {
	comm, err := blink.NewComm(blink.DGX1V(), []int{0, 1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		panic(err)
	}
	buckets := []int64{25 << 20, 25 << 20, 12 << 20} // DDP-style fused gradients
	step1, err := comm.AllReduceMany(buckets)
	if err != nil {
		panic(err)
	}
	step2, err := comm.AllReduceMany(buckets)
	if err != nil {
		panic(err)
	}
	fmt.Printf("step 1: %d tensors, %d compiles\n", len(step1.Results), step1.CacheMisses)
	fmt.Printf("step 2: %d tensors, %d compiles, %d replays\n", len(step2.Results), step2.CacheMisses, step2.CacheHits)
	fmt.Println("deterministic:", step1.Seconds == step2.Seconds)
	// Output:
	// step 1: 3 tensors, 2 compiles
	// step 2: 3 tensors, 0 compiles, 3 replays
	// deterministic: true
}
