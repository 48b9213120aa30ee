package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"blink/internal/graph"
	"blink/internal/simgpu"
)

// This file is the versioned binary plan encoding: a frozen plan's IR plus
// a header binding it to the topology fingerprint and timing model it was
// compiled under. The format is deliberately dependency-free (varints,
// float64 bits, length-prefixed strings, a CRC-32 trailer) so any process
// with the same topology can load a plan without trusting the writer:
// DecodePlan never panics on malformed input and validates the header
// against the live fabric before regenerating the schedule.

// PlanFormatVersion is the current wire format version. Decoders reject
// blobs written under any other version — plans are cheap to recompile, so
// cross-version migration is never worth schema tolerance. Version 2
// renumbered the IR kinds when the baseline's plane moved out of the kind
// and into PlanIR.Fabric; version 3 records the winning row (PlanIR.Row);
// version 4 renumbered them again when AllGather and ReduceScatter lost
// their own kinds to the AllReduce and Reduce they compile as.
const PlanFormatVersion = 4

// planMagic brands every encoded plan blob.
var planMagic = [8]byte{'B', 'L', 'N', 'K', 'P', 'L', 'A', 'N'}

// Decode limits: a hostile blob may not allocate more than its own size in
// counted elements, and strings stay human-scale.
const (
	maxEncodedString = 1 << 20
	maxEncodedInt    = 1 << 30
)

// PlanHeader is the validation header of an encoded plan: everything a
// loader checks against its live topology before running codegen.
type PlanHeader struct {
	// Version is the blob's wire format version.
	Version uint64
	// Fingerprint is the compiling topology's schedule-cache identity
	// (topology.Topology.Fingerprint()).
	Fingerprint string
	// Config is the normalized timing model the plan was compiled under.
	Config simgpu.Config
}

// ValidateFor checks the header against a live fabric: the decoding
// process must be on the same induced topology (fingerprint) and timing
// model (normalized config) as the encoder, otherwise the regenerated
// schedule would be silently wrong.
func (h PlanHeader) ValidateFor(f *simgpu.Fabric) error {
	if f == nil || f.Topo == nil {
		return fmt.Errorf("core: cannot validate plan header against a fabric with no topology")
	}
	if fp := f.Topo.Fingerprint(); fp != h.Fingerprint {
		return fmt.Errorf("core: plan topology mismatch: encoded for fingerprint %q, live topology is %q", h.Fingerprint, fp)
	}
	if cfg := f.Cfg.Normalized(); cfg != h.Config {
		return fmt.Errorf("core: plan timing-model mismatch: encoded config %+v, live config %+v", h.Config, cfg)
	}
	return nil
}

// EncodePlan serializes a frozen plan into the versioned binary format. The
// plan must carry its IR (every plan produced by CodeGen does); cluster
// plans have none and return an error.
func EncodePlan(fp *FrozenPlan) ([]byte, error) {
	if fp == nil {
		return nil, fmt.Errorf("core: cannot encode nil plan")
	}
	if fp.ir == nil {
		return nil, fmt.Errorf("core: plan carries no IR (built outside CodeGen) and cannot be encoded")
	}
	if fp.fabric == nil || fp.fabric.Topo == nil {
		return nil, fmt.Errorf("core: plan fabric has no topology; cannot fingerprint")
	}
	return encodePlan(PlanHeader{PlanFormatVersion, fp.fabric.Topo.Fingerprint(), fp.fabric.Cfg.Normalized()}, fp.ir), nil
}

// encodePlan writes a header and an IR as one blob with its CRC trailer.
func encodePlan(h PlanHeader, ir *PlanIR) []byte {
	b := make([]byte, 0, 256)
	b = append(b, planMagic[:]...)
	b = binary.AppendUvarint(b, h.Version)
	b = appendString(b, h.Fingerprint)
	b = appendConfig(b, h.Config)
	b = appendIR(b, ir)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(b))
	return append(b, crc[:]...)
}

// DecodePlanIR structurally decodes a blob into its header and IR without
// touching any live topology: magic, version, checksum and every count or
// length is validated, so arbitrary input yields a clean error, never a
// panic. Callers that want a runnable plan use DecodePlan, which also
// validates the header and reruns codegen.
func DecodePlanIR(data []byte) (PlanHeader, *PlanIR, error) {
	var hdr PlanHeader
	if len(data) < len(planMagic)+4 {
		return hdr, nil, fmt.Errorf("core: encoded plan truncated (%d bytes)", len(data))
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return hdr, nil, fmt.Errorf("core: encoded plan checksum mismatch (torn or corrupt blob)")
	}
	d := &decoder{b: body}
	var magic [8]byte
	d.bytes(magic[:])
	if d.err == nil && magic != planMagic {
		return hdr, nil, fmt.Errorf("core: not an encoded plan (bad magic)")
	}
	hdr.Version = d.uvarint()
	if d.err == nil && hdr.Version != PlanFormatVersion {
		return hdr, nil, fmt.Errorf("core: unsupported plan format version %d (this build reads version %d)", hdr.Version, PlanFormatVersion)
	}
	hdr.Fingerprint = d.str()
	hdr.Config = d.config()
	ir := d.ir()
	if d.err != nil {
		return hdr, nil, fmt.Errorf("core: malformed encoded plan: %w", d.err)
	}
	if d.off != len(d.b) {
		return hdr, nil, fmt.Errorf("core: encoded plan has %d trailing bytes", len(d.b)-d.off)
	}
	return hdr, ir, ir.checkRow()
}

// DecodePlan decodes a blob, validates it against the live topology through
// resolve (which maps the IR's fabric plane to the process's fabric of that
// plane, nil when the plane is unavailable), regenerates the schedule via
// CodeGen and freezes it. Data-mode Exec closures are rebuilt against the
// resolved fabric, so the decoded plan is fully functional in this process.
func DecodePlan(data []byte, resolve func(FabricSel) *simgpu.Fabric) (*FrozenPlan, error) {
	hdr, ir, err := DecodePlanIR(data)
	if err != nil {
		return nil, err
	}
	if resolve == nil {
		return nil, fmt.Errorf("core: nil fabric resolver")
	}
	f := resolve(ir.Fabric)
	if f == nil {
		return nil, fmt.Errorf("core: no %v fabric available to host the decoded plan", ir.Fabric)
	}
	if err := hdr.ValidateFor(f); err != nil {
		return nil, err
	}
	return Compile(ir, f)
}

// ---- encoding primitives ----

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendF64(b []byte, v float64) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	return append(b, buf[:]...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendConfig(b []byte, c simgpu.Config) []byte {
	b = appendF64(b, c.OpOverhead)
	b = appendF64(b, c.ReduceOverhead)
	b = appendF64(b, c.ReduceBW)
	b = appendF64(b, c.CopyEff)
	b = appendF64(b, c.WireLatency)
	b = appendF64(b, c.DisablePeerBase)
	b = appendF64(b, c.DisablePeerPerGPU)
	return appendBool(b, c.DataMode)
}

func appendIR(b []byte, ir *PlanIR) []byte {
	b = append(b, byte(ir.Kind), byte(ir.Fabric))
	b = appendString(b, ir.Strategy)
	b = binary.AppendVarint(b, int64(ir.Root))
	b = binary.AppendVarint(b, ir.Bytes)
	b = binary.AppendVarint(b, ir.Opts.ChunkBytes)
	b = appendBool(b, ir.Opts.NoStreamReuse)
	b = appendBool(b, ir.Opts.DataMode)
	b = binary.AppendVarint(b, int64(ir.Opts.OffsetFloats))
	b = appendBool(b, ir.Opts.BroadcastAcc)
	b = appendList(b, ir.Packings, appendPacking)
	b = appendList(b, ir.Chain, appendInt)
	b = appendList(b, ir.Neighbors, func(b []byte, row []int) []byte { return appendList(b, row, appendInt) })
	b = appendList(b, ir.Pairs, func(b []byte, p IRPair) []byte {
		return binary.AppendVarint(appendInt(appendInt(b, p.Src), p.Dst), p.Bytes)
	})
	b = binary.AppendUvarint(appendBool(b, ir.Chained), uint64(ir.Row.Shape))
	return binary.AppendVarint(b, ir.Row.Chunk)
}

func appendPacking(b []byte, p *Packing) []byte {
	b = appendF64(appendF64(appendInt(b, p.Root), p.Rate), p.Bound)
	return appendList(b, p.Trees, func(b []byte, t Tree) []byte {
		b = appendInt(appendF64(b, t.Weight), t.Arbo.Root)
		return appendList(b, t.Arbo.Edges, func(b []byte, e int) []byte { return binary.AppendUvarint(b, uint64(e)) })
	})
}

// appendList writes the items' count and then each item, the way list
// reads them back.
func appendList[T any](b []byte, items []T, item func([]byte, T) []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(items)))
	for _, it := range items {
		b = item(b, it)
	}
	return b
}

func appendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

// ---- decoding primitives ----

// decoder is a bounds-checked sequential reader over an encoded plan body.
// The first failure latches err; every later read is a no-op returning
// zero values, so decode paths need no per-read error plumbing.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) remaining() int { return len(d.b) - d.off }

func (d *decoder) bytes(dst []byte) {
	if d.err != nil {
		return
	}
	if d.remaining() < len(dst) {
		d.fail("truncated at offset %d (need %d bytes, have %d)", d.off, len(dst), d.remaining())
		return
	}
	copy(dst, d.b[d.off:])
	d.off += len(dst)
}

func (d *decoder) uvarint() uint64 { return readVarint(d, binary.Uvarint) }

func (d *decoder) varint() int64 { return readVarint(d, binary.Varint) }

// readVarint reads one signed or unsigned varint with read.
func readVarint[T int64 | uint64](d *decoder, read func([]byte) (T, int)) T {
	if d.err != nil {
		return 0
	}
	v, n := read(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// intval reads a varint constrained to a sane int range.
func (d *decoder) intval() int {
	v := d.varint()
	if v < -maxEncodedInt || v > maxEncodedInt {
		d.fail("integer %d out of range", v)
		return 0
	}
	return int(v)
}

// count reads a length prefix and bounds it by the remaining input: every
// counted element occupies at least one encoded byte, so a count larger
// than the tail is malformed and must not drive an allocation.
func (d *decoder) count(what string) int {
	v := d.uvarint()
	if v > uint64(d.remaining()) {
		d.fail("%s count %d exceeds remaining input (%d bytes)", what, v, d.remaining())
		return 0
	}
	return int(v)
}

func (d *decoder) f64() float64 {
	var buf [8]byte
	d.bytes(buf[:])
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
}

func (d *decoder) boolval() bool {
	var buf [1]byte
	d.bytes(buf[:])
	return buf[0] != 0
}

func (d *decoder) str() string {
	n := d.uvarint()
	if n > maxEncodedString {
		d.fail("string length %d exceeds limit", n)
		return ""
	}
	if uint64(d.remaining()) < n {
		d.fail("truncated string at offset %d", d.off)
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *decoder) config() simgpu.Config {
	return simgpu.Config{
		OpOverhead:        d.f64(),
		ReduceOverhead:    d.f64(),
		ReduceBW:          d.f64(),
		CopyEff:           d.f64(),
		WireLatency:       d.f64(),
		DisablePeerBase:   d.f64(),
		DisablePeerPerGPU: d.f64(),
		DataMode:          d.boolval(),
	}
}

func (d *decoder) ir() *PlanIR {
	ir := &PlanIR{}
	var kb [2]byte
	d.bytes(kb[:])
	ir.Kind, ir.Fabric = IRKind(kb[0]), FabricSel(kb[1])
	ir.Strategy = d.str()
	ir.Root = d.intval()
	ir.Bytes = d.varint()
	ir.Opts.ChunkBytes = d.varint()
	ir.Opts.NoStreamReuse = d.boolval()
	ir.Opts.DataMode = d.boolval()
	ir.Opts.OffsetFloats = d.intval()
	ir.Opts.BroadcastAcc = d.boolval()
	ir.Packings = list(d, "packing", d.packing)
	ir.Chain = list(d, "chain", d.intval)
	ir.Neighbors = list(d, "neighbor row", func() []int { return list(d, "neighbor", d.intval) })
	ir.Pairs = list(d, "pair", func() IRPair { return IRPair{Src: d.intval(), Dst: d.intval(), Bytes: d.varint()} })
	ir.Chained = d.boolval()
	// A shape past a byte is no shape checkRow accepts either.
	ir.Row = Row{Shape(min(d.uvarint(), 0xff)), d.varint()}
	return ir
}

func (d *decoder) packing() *Packing {
	p := &Packing{Root: d.intval(), Rate: d.f64(), Bound: d.f64()}
	p.Trees = list(d, "tree", func() Tree {
		t := Tree{Weight: d.f64(), Arbo: graph.Arborescence{Root: d.intval()}}
		t.Arbo.Edges = list(d, "tree edge", func() int {
			e := d.uvarint()
			if e > maxEncodedInt {
				d.fail("edge id %d out of range", e)
			}
			return int(e)
		})
		return t
	})
	return p
}

// list reads a count and then that many items, stopping at the first
// failure; an empty list is nil.
func list[T any](d *decoder, what string, item func() T) []T {
	var out []T
	if n := d.count(what); n > 0 {
		out = make([]T, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			out = append(out, item())
		}
	}
	return out
}
