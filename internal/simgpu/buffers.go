package simgpu

// BufferSet is a per-call buffer arena: the device buffers one collective
// call moves data through. Compiled schedules are pure templates — their
// Exec closures resolve buffers through the BufferSet handed to Run — so
// any number of calls may replay one frozen schedule concurrently, each
// against its own private arena. A BufferSet is owned by a single call;
// ownership passes to the replay for its duration and back to the caller
// afterwards. Within one replay the arena is shared by the replay's stripes,
// which is safe because a resolve walk allocates every buffer first: from
// then on Buffer only reads the map, and each stripe writes only the floats
// of its own Window.
//
// Buffers are keyed by the full (device, tag) pair, so tags of any
// magnitude (and relay vertices with large IDs) can never alias.
type BufferSet struct {
	buffers map[bufKey][]float32
	// span is the length of the longest buffer the arena has held, in
	// floats.
	span int
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
	k := bufKey{v, tag}
	b := s.buffers[k]
	if len(b) < n {
		nb := make([]float32, n)
		copy(nb, b)
		s.SetBuffer(v, tag, nb)
		b = nb
	}
	return b[:n]
}

// SetBuffer installs data as device v's buffer under tag.
func (s *BufferSet) SetBuffer(v, tag int, data []float32) {
	s.buffers[bufKey{v, tag}] = data
	s.span = max(s.span, len(data))
}

// Span is the length, in floats, of the longest buffer the arena has held:
// every float an Exec closure resolved through the arena lies below it.
func (s *BufferSet) Span() int { return s.span }

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
