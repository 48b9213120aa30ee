package main

import (
	"sort"
	"time"
)

// The machines this benchmark runs on are small shared VMs whose speed
// shifts by 5-40% for minutes at a time (a busy neighbour on the sibling
// hyperthread). Ten 20 s runs per workload of one binary spread 6-47%
// (IQR/median) on the wall-clock host-time metrics, and the driver rejects a
// benchmark whose spread exceeds a metric's bound of at most 25%.
//
// So each measured window also times a fixed reference kernel — sorting,
// dependent loads and a streaming add over preallocated memory, nothing of
// the library's — fifty times a second, between ops, and the window's
// host-time metrics are multiplied by refNominalUS / (the kernel's median in
// that window): they are reported in microseconds of a machine on which the
// kernel takes refNominalUS, which is this class of box in a quiet spell. A
// slow spell stretches the library's ops and the kernel alike and cancels; a
// change to the library moves only its ops and shows in full. In the same
// runs the scaled values spread 3-16% (README.md has the table). The kernel
// allocates nothing, so it adds nothing to the window's malloc counts,
// and its own time is taken out of the window. Wall-clock values are printed
// beside the scaled ones.
const (
	refNominalUS = 150.0
	tickEvery    = 20 * time.Millisecond
)

// calibrator owns the kernel's memory — about 200 KB, so that it sits in the
// L2 cache once touched — and its samples.
type calibrator struct {
	keys, work []int
	next       []int32
	a, b       []float32
	last       time.Time
	samples    []time.Duration
	spent      time.Duration // total time given to the kernel, timed runs or not
	sink       int
}

func newCalibrator() *calibrator {
	c := &calibrator{
		keys: make([]int, 1024), work: make([]int, 1024),
		next: make([]int32, 1<<13),
		a:    make([]float32, 1<<14), b: make([]float32, 1<<14),
		samples: make([]time.Duration, 0, 1<<13),
	}
	x := uint32(12345)
	for i := range c.keys {
		x = x*1664525 + 1013904223
		c.keys[i] = int(x >> 8)
	}
	// One cycle through all slots with a large odd stride: every load depends
	// on the one before and lands on a different cache line.
	for i := range c.next {
		c.next[i] = int32((i + 5021) & (len(c.next) - 1))
	}
	for i := range c.b {
		c.b[i] = float32(i&7) * 0.25
	}
	return c
}

func (c *calibrator) kernel() {
	copy(c.work, c.keys)
	sort.Ints(c.work)
	p := int32(0)
	for i := 0; i < 1<<15; i++ {
		p = c.next[p]
	}
	for pass := 0; pass < 4; pass++ {
		for i := range c.a {
			c.a[i] += c.b[i]
		}
	}
	c.sink += int(p) + c.work[0]
}

// tick runs the kernel if it has not run in the last tickEvery. Workloads
// call it between ops with a fresh timestamp and use the returned one — the
// same, or a newer one if the kernel ran — as the next op's start. The
// kernel runs twice and only the second run is timed: the first pulls its
// memory back into the cache, so that what the library evicted in between —
// a property of the code under test — does not leak into the reference.
func (c *calibrator) tick(now time.Time) time.Time {
	if now.Sub(c.last) < tickEvery {
		return now
	}
	c.kernel()
	t0 := time.Now()
	c.kernel()
	c.last = time.Now()
	c.spent += c.last.Sub(now)
	if len(c.samples) < cap(c.samples) {
		c.samples = append(c.samples, c.last.Sub(t0))
	}
	return c.last
}

// since is the time from start until now that did not go to the kernel;
// spent is c.spent as it stood at start.
func (c *calibrator) since(start time.Time, spent time.Duration) time.Duration {
	return time.Since(start) - (c.spent - spent)
}

// refUS is the kernel's median time over the window, in microseconds.
func (c *calibrator) refUS() float64 { return percentile(durMicros(c.samples), 50) }

// scale is the factor a host time measured in this window is multiplied by
// to express it on the nominal machine.
func (c *calibrator) scale() float64 {
	if ref := c.refUS(); ref > 0 {
		return refNominalUS / ref
	}
	return 1
}
