package main

import (
	"testing"
	"time"
)

func TestCalibratorKernelAllocatesNothing(t *testing.T) {
	c := newCalibrator()
	if n := testing.AllocsPerRun(20, c.kernel); n != 0 {
		t.Errorf("reference kernel allocates %v times per run; it must not touch the heap", n)
	}
	now := time.Now()
	if start := c.tick(now); !start.After(now) {
		t.Errorf("first tick ran the kernel but returned the stale timestamp")
	}
	if soon := c.last.Add(tickEvery / 2); c.tick(soon) != soon || len(c.samples) != 1 {
		t.Errorf("%d samples after two ticks half an interval apart, want 1", len(c.samples))
	}
	c.tick(c.last.Add(2 * tickEvery))
	if len(c.samples) != 2 || c.refUS() <= 0 || c.scale() <= 0 {
		t.Errorf("samples %d ref %v scale %v", len(c.samples), c.refUS(), c.scale())
	}
}

func BenchmarkCalibratorKernel(b *testing.B) {
	c := newCalibrator()
	for i := 0; i < b.N; i++ {
		c.kernel()
	}
}
