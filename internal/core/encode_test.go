package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"blink/internal/simgpu"
	"blink/internal/topology"
)

// encodeFixture compiles one tree-broadcast plan over the full DGX-1V and
// returns it frozen with its fabric, the unit every encoding test works on.
func encodeFixture(t *testing.T, cfg simgpu.Config) (*FrozenPlan, *simgpu.Fabric) {
	t.Helper()
	ind, err := topology.DGX1V().Induce([]int{0, 1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	g := ind.GPUGraph()
	p, err := GenerateTrees(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := simgpu.NewFabric(ind, g, cfg)
	ir := &PlanIR{
		Kind:     IRTreeBroadcast,
		Fabric:   FabricNVLink,
		Strategy: "trees",
		Root:     2,
		Bytes:    16 << 20,
		Opts:     PlanOptions{ChunkBytes: 1 << 20, DataMode: cfg.DataMode},
		Packings: []*Packing{p},
	}
	plan, err := CodeGen(ir, f)
	if err != nil {
		t.Fatal(err)
	}
	return plan.Freeze(), f
}

// reseal recomputes a mutated blob's CRC trailer so the mutation reaches the
// structural decoder instead of dying at the checksum.
func reseal(blob []byte) []byte {
	body := blob[:len(blob)-4]
	out := append([]byte(nil), body...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(out))
	return append(out, crc[:]...)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	fp, f := encodeFixture(t, simgpu.Config{})
	blob, err := EncodePlan(fp)
	if err != nil {
		t.Fatal(err)
	}
	hdr, ir, err := DecodePlanIR(blob)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Version != PlanFormatVersion || hdr.Fingerprint != f.Topo.Fingerprint() {
		t.Fatalf("decoded header %+v does not match encoder", hdr)
	}
	if ir.Kind != IRTreeBroadcast || ir.Root != 2 || ir.Strategy != "trees" {
		t.Fatalf("decoded IR %+v lost fields", ir)
	}

	dec, err := DecodePlan(blob, func(FabricSel) *simgpu.Fabric { return f })
	if err != nil {
		t.Fatal(err)
	}
	// The decoded plan must replay the identical simulated schedule...
	want, err := fp.Replay()
	if err != nil {
		t.Fatal(err)
	}
	got, err := dec.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan {
		t.Fatalf("decoded plan replays %.12f s, original %.12f s", got.Makespan, want.Makespan)
	}
	// ...and re-encode byte-identically (encode∘decode is the identity).
	blob2, err := EncodePlan(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("re-encoding a decoded plan changed the blob")
	}
}

func TestEncodeRejectsPlanWithoutIR(t *testing.T) {
	f, p := fabricFor(t, topology.DGX1V(), []int{0, 1, 2, 3}, false)
	// Built directly, bypassing CodeGen: no IR, must refuse to encode.
	plan, err := BuildBroadcastPlan(f, p, 1<<20, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EncodePlan(plan.Freeze()); err == nil {
		t.Fatal("plan without IR encoded")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	fp, f := encodeFixture(t, simgpu.Config{})
	blob, err := EncodePlan(fp)
	if err != nil {
		t.Fatal(err)
	}
	resolve := func(FabricSel) *simgpu.Fabric { return f }

	// Every truncation must fail cleanly (the CRC catches all of them).
	for n := 0; n < len(blob); n += 7 {
		if _, _, err := DecodePlanIR(blob[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", n)
		}
	}
	// A bit flip anywhere fails the checksum.
	for i := 0; i < len(blob); i += 11 {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0x40
		if _, _, err := DecodePlanIR(bad); err == nil {
			t.Fatalf("bit flip at %d decoded", i)
		}
	}
	// A resealed bit flip reaches the structural decoder; it may decode (the
	// flip might hit a don't-care float) but must never panic, and a plan it
	// yields must still pass CodeGen's validation or error out.
	for i := len(planMagic); i < len(blob)-4; i++ {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0x01
		if _, err := DecodePlan(reseal(bad), resolve); err != nil {
			continue // rejected, which is fine
		}
	}

	// Version skew, from the future and from the past (format 1 numbered the
	// IR kinds differently, so its blobs must be recompiled, never read):
	// rewrite the version varint and reseal.
	for _, v := range []uint64{PlanFormatVersion + 1, 1} {
		skew := append([]byte(nil), blob[:len(planMagic)]...)
		skew = binary.AppendUvarint(skew, v)
		rest := blob[len(planMagic):]
		_, n := binary.Uvarint(rest)
		skew = append(skew, rest[n:]...)
		if _, _, err := DecodePlanIR(reseal(skew)); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("version-%d blob: %v", v, err)
		}
	}

	// Garbage that is not a plan at all.
	if _, _, err := DecodePlanIR(reseal(append([]byte("NOTAPLAN"), blob[8:]...))); err == nil {
		t.Fatal("bad magic decoded")
	}
}

func TestDecodeValidatesAgainstLiveTopology(t *testing.T) {
	fp, _ := encodeFixture(t, simgpu.Config{})
	blob, err := EncodePlan(fp)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong topology: a 4-GPU induction has a different fingerprint.
	other, err := topology.DGX1V().Induce([]int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	of := simgpu.NewFabric(other, other.GPUGraph(), simgpu.Config{})
	if _, err := DecodePlan(blob, func(FabricSel) *simgpu.Fabric { return of }); err == nil ||
		!strings.Contains(err.Error(), "topology mismatch") {
		t.Fatalf("foreign-topology decode: %v", err)
	}
	// Wrong timing model: same topology, different normalized config.
	ind, err := topology.DGX1V().Induce([]int{0, 1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	cf := simgpu.NewFabric(ind, ind.GPUGraph(), simgpu.Config{OpOverhead: 99e-6})
	if _, err := DecodePlan(blob, func(FabricSel) *simgpu.Fabric { return cf }); err == nil ||
		!strings.Contains(err.Error(), "timing-model mismatch") {
		t.Fatalf("foreign-config decode: %v", err)
	}
	// No fabric for the plane at all.
	if _, err := DecodePlan(blob, func(FabricSel) *simgpu.Fabric { return nil }); err == nil {
		t.Fatal("nil-fabric decode succeeded")
	}
}

// FuzzDecodePlan hammers the structural decoder with arbitrary bytes: it
// must never panic, never allocate unboundedly, and anything it accepts must
// be internally consistent enough for validation to give a clean verdict.
// The seed corpus (testdata/fuzz/FuzzDecodePlan) covers the interesting
// failure classes: a pristine blob, truncations, resealed bit flips, two
// version-skewed headers (one from the future, one a pristine format-1 blob)
// and a wrong-fingerprint header. The seeds added below carry a valid
// checksum around a packing no packer emits: no trees, or a NaN, a zero or a
// denormal tree weight. The plan's chunk is auto, which CodeGen derives from
// the weights: a NaN weight Validate let through, or a denormal one whose
// every modelled cost is infinite, once made CodeGen recurse through its
// chunk trial with chunk 0 until the stack overflowed. One more asks for a
// 1 GiB broadcast in 4-byte chunks, which CodeGen must refuse by its
// compile budget rather than build, and every plan that decodes stays
// within that budget. Another is a 64 B Broadcast that may race the hybrid:
// it carries its root's PCIe packing, and its NVLink packing's rate is
// tiny. Every input is decoded a second time resealed, since
// a mutated blob almost never passes the checksum on its own.
func FuzzDecodePlan(f *testing.F) {
	fab, p := fabricFor(f, topology.DGX1V(), []int{0, 1, 2, 3, 4, 5, 6, 7}, false)
	ir := &PlanIR{Kind: IRTreeBroadcast, Fabric: FabricNVLink, Strategy: "trees",
		Bytes: 4 << 20, Packings: []*Packing{p}}
	plan, err := CodeGen(ir, fab)
	if err != nil {
		f.Fatal(err)
	}
	blob, err := EncodePlan(plan.Freeze())
	if err != nil {
		f.Fatal(err)
	}

	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(blob[:len(planMagic)+1])
	flipped := append([]byte(nil), blob...)
	flipped[len(blob)/2] ^= 0xff
	f.Add(flipped)
	skew := append([]byte(nil), blob[:len(planMagic)]...)
	skew = binary.AppendUvarint(skew, 1<<40)
	f.Add(reseal(append(skew, blob[len(planMagic)+1:]...)))
	wrongFP := bytes.Replace(blob, []byte(fab.Topo.Fingerprint()), []byte("deadbeefdeadbeef"), 1)
	f.Add(reseal(wrongFP))
	f.Add([]byte{})
	f.Add([]byte("BLNKPLAN"))

	f.Add(withIR(f, blob, func(ir *PlanIR, p *Packing) { p.Trees[0].Weight = math.NaN() }))
	f.Add(withIR(f, blob, func(ir *PlanIR, p *Packing) { p.Trees, p.Rate = nil, math.Inf(1) }))
	for _, w := range []float64{0, math.SmallestNonzeroFloat64} {
		// One tree whose weight is the whole rate.
		f.Add(withIR(f, blob, func(ir *PlanIR, p *Packing) { p.Trees, p.Rate = []Tree{{Arbo: p.Trees[0].Arbo, Weight: w}}, w }))
	}

	f.Add(withIR(f, blob, func(ir *PlanIR, p *Packing) { ir.Bytes, ir.Opts.ChunkBytes = 1<<30, 4 }))
	pcie, err := GenerateTrees(fab.Topo.PCIeGraph(), 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(withIR(f, blob, func(ir *PlanIR, p *Packing) {
		for i := range p.Trees {
			p.Trees[i].Weight *= 1e-9
		}
		ir.Bytes, p.Rate, ir.Packings = 64, p.Rate*1e-9, append(ir.Packings, pcie)
	}))

	resolve := func(FabricSel) *simgpu.Fabric { return fab }
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 || len(data) < 4 {
			return
		}
		for _, blob := range [][]byte{data, reseal(data)} {
			hdr, ir, err := DecodePlanIR(blob)
			if err != nil {
				continue
			}
			if hdr.Version != PlanFormatVersion {
				t.Fatalf("decoder accepted version %d", hdr.Version)
			}
			if ir == nil {
				t.Fatal("nil IR without error")
			}
			// Whatever structurally decodes must either fail cleanly or
			// validate, regenerate and replay a schedule that moves its
			// payload, which takes time.
			if fp2, err := DecodePlan(blob, resolve); err == nil {
				if fp2.NumOps() > MaxPlanOps {
					t.Fatalf("decoded a %v plan of %d ops, over the %d-op budget", ir.Kind, fp2.NumOps(), MaxPlanOps)
				}
				r, err := fp2.Replay()
				if err != nil {
					t.Fatalf("decoded plan failed to replay: %v", err)
				}
				if !(r.Makespan > 0) {
					t.Fatalf("decoded %v plan of %d bytes replays in %v s", ir.Kind, ir.Bytes, r.Makespan)
				}
			}
		}
	})
}

// withIR decodes blob, lets edit change its IR and first packing, and encodes
// the result again under a valid checksum.
func withIR(tb testing.TB, blob []byte, edit func(*PlanIR, *Packing)) []byte {
	hdr, ir, err := DecodePlanIR(blob)
	if err != nil {
		tb.Fatal(err)
	}
	edit(ir, ir.Packings[0])
	return encodePlan(hdr, ir)
}
