package simgpu

import (
	"slices"
	"sync"
)

// BufferSet is a per-call buffer arena: the device buffers one collective
// call moves data through. Compiled schedules are pure templates — their
// Exec closures resolve buffers through the BufferSet handed to Run — so
// any number of calls may replay one frozen schedule concurrently, each
// against its own private arena. A BufferSet is owned by a single call;
// ownership passes to the replay for its duration and back to the caller
// afterwards. Within one replay the arena is shared by the replay's stripes,
// which is safe because the stripes Reserve every buffer the schedule names
// before any of them resolves one: from then on Buffer only reads the map,
// and each stripe writes only the floats of its own Window.
//
// Buffers are keyed by the full (device, tag) pair, so tags of any
// magnitude (and relay vertices with large IDs) can never alias.
type BufferSet struct {
	buffers map[bufKey][]float32
	// span is the length of the longest buffer the arena has held, in
	// floats.
	span int
	// mu serializes Reserve's map accesses; nothing else takes it.
	mu sync.Mutex
	// sizing, non-nil in RecordManifest's arena only, backs every buffer of
	// it: the Execs that arena serves clip to nothing.
	sizing []float32
}

type bufKey struct {
	v, tag int
}

// NewBufferSet returns an empty arena.
func NewBufferSet() *BufferSet { return NewBufferSetSized(0) }

// NewBufferSetSized returns an empty arena with room for n buffers before
// its map grows.
func NewBufferSetSized(n int) *BufferSet {
	return &BufferSet{buffers: make(map[bufKey][]float32, n)}
}

// Buffer returns (allocating or growing on demand) device v's buffer under
// tag, sized to at least n floats. Buffers are keyed by (device, tag) so a
// collective can address input, output and scratch regions independently.
func (s *BufferSet) Buffer(v, tag, n int) []float32 {
	b := s.buffers[bufKey{v, tag}]
	if len(b) < n {
		b = s.grow(b, n)
		s.SetBuffer(v, tag, b)
	}
	return b[:n]
}

// grow returns an n-float buffer holding b's floats.
func (s *BufferSet) grow(b []float32, n int) []float32 {
	if s.sizing != nil {
		s.sizing = slices.Grow(s.sizing, n)
		return s.sizing[:n]
	}
	nb := make([]float32, n)
	copy(nb, b)
	return nb
}

// SetBuffer installs data as device v's buffer under tag.
func (s *BufferSet) SetBuffer(v, tag int, data []float32) {
	s.buffers[bufKey{v, tag}] = data
	s.span = max(s.span, len(data))
}

// Span is the length, in floats, of the longest buffer the arena has held:
// every float an Exec closure resolved through the arena lies below it.
func (s *BufferSet) Span() int { return s.span }

// Manifest is what a schedule's Exec closures name of an arena: each buffer
// they resolve, at the longest length they resolve it at.
type Manifest struct {
	lens map[bufKey]int
	span int
}

// RecordManifest runs walk, which must call every Exec of a schedule over
// the empty window, against a sizing arena — one that records the length of
// each buffer resolved through it instead of allocating the buffer.
func RecordManifest(walk func(*BufferSet)) Manifest {
	s := &BufferSet{buffers: map[bufKey][]float32{}, sizing: []float32{}}
	walk(s)
	m := Manifest{lens: make(map[bufKey]int, len(s.buffers)), span: s.span}
	for k, b := range s.buffers {
		m.lens[k] = len(b)
	}
	return m
}

// Span is the length, in floats, of the longest buffer m names.
func (m *Manifest) Span() int { return m.span }

// Reserve is stripe `stripe` of k's share of putting m's buffers in place:
// those of every device v with v%k == stripe, allocated — or grown, keeping
// their floats — where the arena lacks them or holds them shorter. A data
// replay's k stripes call it concurrently, so they share the zeroing of
// fresh buffers, and none resolves a buffer before all have returned.
func (s *BufferSet) Reserve(m *Manifest, stripe, k int) {
	for key, n := range m.lens {
		if key.v%k != stripe {
			continue
		}
		s.mu.Lock()
		b := s.buffers[key]
		s.mu.Unlock()
		if len(b) < n {
			b = s.grow(b, n) // outside the lock: the zeroing is the share
			s.mu.Lock()
			s.SetBuffer(key.v, key.tag, b)
			s.mu.Unlock()
		}
	}
}

// Window is the float range [Lo, Hi) of every buffer that one Exec call may
// touch. A data replay splits the floats into disjoint windows and walks the
// launch order once per window, so each float sees the operations one serial
// walk would apply to it, in the same order.
type Window struct{ Lo, Hi int }

// Clip intersects the float range [off, end) with the window. The result is
// a range [lo, hi) inside [off, end], empty (lo == hi) when the two do not
// overlap, so it always slices a buffer that holds [off, end).
func (w Window) Clip(off, end int) (lo, hi int) {
	lo = min(max(off, w.Lo), end)
	return lo, max(min(end, w.Hi), lo)
}
