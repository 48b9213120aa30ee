package blink

import (
	"math/rand"
	"testing"
)

// TestStoreRoundTripConformance is the cross-process conformance matrix for
// the serialized plan path: for every fabric of the conformance suite
// (DGX-1P/1V/2, pristine and derived-degraded), a first communicator
// compiles all ten data-mode collectives and persists them, then a second
// communicator over the same store — a fresh engine standing in for a fresh
// process — must serve every one of them from disk without compiling a
// single plan, produce elementwise-exact results against the sequential
// references, and replay schedules whose span timeline hashes byte-identical
// to the compiling communicator's warm replays.
func TestStoreRoundTripConformance(t *testing.T) {
	for _, f := range conformanceFabrics(t) {
		f := f
		t.Run(f.name, func(t *testing.T) {
			if f.cluster != nil {
				t.Skip("cluster plans have no serializable form")
			}
			dir := t.TempDir()
			mk := func() *Comm {
				comm, err := f.comm(WithDataMode(), WithPlanStore(dir))
				if err != nil {
					t.Fatal(err)
				}
				return comm
			}
			runAll := func(t *testing.T, comm *Comm, label string) {
				for _, c := range confCells(f, comm.Size(), BackendBlink) {
					t.Run(label+"/"+c.name, func(t *testing.T) {
						if err := c.exact(comm, rand.New(rand.NewSource(int64(c.root)))); err != nil {
							t.Fatal(err)
						}
					})
				}
			}

			// Pass 1: compile everything and persist. Pass 2 on the same
			// communicator replays from memory with the timeline recording —
			// the reference every decoded plan must match.
			warm := mk()
			runAll(t, warm, "compile")
			tl1 := warm.EnableTimeline()
			runAll(t, warm, "replay")

			// The "fresh process": new engine, new store handle, same dir.
			cold := mk()
			tl2 := cold.EnableTimeline()
			runAll(t, cold, "decode")

			if n := cold.Metrics().Counter("blink_plan_compiles_total").Value(); n != 0 {
				t.Fatalf("warm-store communicator compiled %d plans; every op must decode from disk", n)
			}
			st := cold.CacheStats()
			if st.DiskHits == 0 || st.Misses != 0 {
				t.Fatalf("warm-store tier stats = %+v, want all lookups resolved by the disk tier", st)
			}
			if h1, h2 := tl1.Hash(), tl2.Hash(); h1 != h2 {
				t.Fatalf("decoded plans replay a different timeline: compile-process hash %s, decode-process hash %s", h1, h2)
			}
		})
	}
}
