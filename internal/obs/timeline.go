package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one op's structured timeline: queued -> dispatched -> per-chunk
// progress -> complete, the OTel-like unit of the span dump. Wall-clock
// fields (QueuedAt/DispatchedAt/CompletedAt and event timestamps, seconds
// since the timeline's epoch) describe host-side scheduling and are
// explicitly excluded from the deterministic timeline hash; everything else
// — op identity, payload, strategy, cache attribution, simulated makespan,
// chunk counts — is a pure function of the inputs and is hashed.
type Span struct {
	// Seq is the span's submission order on its timeline (queue order).
	Seq int `json:"seq"`
	// Name is the collective op ("AllReduce", "AllToAll", ...).
	Name string `json:"name"`
	// Backend is the scheduling backend ("Blink", "NCCL").
	Backend string `json:"backend"`
	// Stream is the async worker stream the op ran on (-1 for synchronous
	// dispatches, which never enter the stream scheduler).
	Stream int `json:"stream"`
	// Bytes is the collective payload.
	Bytes int64 `json:"bytes"`
	// Strategy is what the engine actually scheduled ("trees", "rings", ...).
	Strategy string `json:"strategy,omitempty"`
	// CacheHit reports whether the dispatch replayed a cached plan.
	CacheHit bool `json:"cacheHit"`
	// SimSeconds is the schedule's simulated makespan (deterministic).
	SimSeconds float64 `json:"simSeconds"`
	// Chunks is the schedule's total op count (pipelined chunk transfers
	// and reductions), 0 when no chunk hook fired.
	Chunks int `json:"chunks"`
	// Err is the terminal error text ("" on success).
	Err string `json:"err,omitempty"`

	// Wall-clock milestones, seconds since the timeline epoch. QueuedAt is
	// submission, DispatchedAt is when a worker picked the op up (equal to
	// QueuedAt for synchronous calls), CompletedAt is resolution.
	QueuedAt     float64 `json:"queuedAt"`
	DispatchedAt float64 `json:"dispatchedAt"`
	CompletedAt  float64 `json:"completedAt"`
	// Events are chunk-progress milestones: the quarter marks of a data
	// replay, and the single "chunks 4/4" mark of a timing replay, which
	// reports its progress once.
	Events []SpanEvent `json:"events,omitempty"`
}

// SpanEvent is one intra-span progress marker.
type SpanEvent struct {
	Name string `json:"name"`
	// At is the wall-clock offset since the timeline epoch (excluded from
	// the timeline hash, like every wall field).
	At float64 `json:"at"`
	// Done/Total are the chunk-progress numerator/denominator at the mark.
	Done  int `json:"done"`
	Total int `json:"total"`
}

// Timeline collects spans. Recording is concurrency-safe; spans are
// appended at completion. For deterministic evidence, hash timelines
// produced by sequential (single-dispatcher) runs: the hash covers only
// simulation-determined fields, but cross-stream completion interleaving
// can still reorder Seq assignment under concurrent submitters.
type Timeline struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []Span
	nextSeq int
}

// NewTimeline returns an empty timeline anchored at the current wall time.
func NewTimeline() *Timeline { return &Timeline{epoch: time.Now()} }

// now returns seconds since the timeline epoch.
func (t *Timeline) now() float64 { return time.Since(t.epoch).Seconds() }

// SpanRecorder accumulates one op's span until Complete publishes it onto
// the timeline. A recorder is owned by the dispatching goroutine; it is not
// safe for concurrent use (each op has exactly one dispatcher).
type SpanRecorder struct {
	t    *Timeline
	span Span
	// lastQuarter tracks which progress quarter has been marked.
	lastQuarter int
}

// Begin opens a span at queue time. stream is the requested worker stream
// (-1 for synchronous dispatches or round-robin submissions; SetStream
// records the resolved stream at dispatch). Begin on a nil timeline
// returns nil, and every SpanRecorder method is nil-safe, so call sites
// never branch.
func (t *Timeline) Begin(name, backend string, stream int, bytes int64) *SpanRecorder {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	seq := t.nextSeq
	t.nextSeq++
	t.mu.Unlock()
	return &SpanRecorder{t: t, span: Span{
		Seq:      seq,
		Name:     name,
		Backend:  backend,
		Stream:   stream,
		Bytes:    bytes,
		QueuedAt: t.now(),
	}}
}

// SetStream records the worker stream the op was dispatched on.
func (r *SpanRecorder) SetStream(stream int) {
	if r != nil {
		r.span.Stream = stream
	}
}

// Dispatch marks the moment a worker picked the op up.
func (r *SpanRecorder) Dispatch() {
	if r != nil {
		r.span.DispatchedAt = r.t.now()
	}
}

// ChunkHook returns a chunk-progress observer recording quarter-mark
// events, or nil for a nil recorder (composes with core.ReplayHook
// chaining). A report that crosses several quarters records one event, at
// the highest: a timing replay's single (n, n) report is one "chunks 4/4".
func (r *SpanRecorder) ChunkHook() func(done, total int) {
	if r == nil {
		return nil
	}
	return func(done, total int) {
		r.span.Chunks = total
		if total <= 0 {
			return
		}
		q := 4 * done / total
		if q > r.lastQuarter {
			r.lastQuarter = q
			r.span.Events = append(r.span.Events, SpanEvent{
				Name:  fmt.Sprintf("chunks %d/4", q),
				At:    r.t.now(),
				Done:  done,
				Total: total,
			})
		}
	}
}

// Complete publishes the span with its outcome. It must be called exactly
// once, after which the recorder is spent.
func (r *SpanRecorder) Complete(strategy string, hit bool, simSeconds float64, err error) {
	if r == nil {
		return
	}
	r.span.Strategy = strategy
	r.span.CacheHit = hit
	r.span.SimSeconds = simSeconds
	if err != nil {
		r.span.Err = err.Error()
	}
	if r.span.DispatchedAt == 0 {
		r.span.DispatchedAt = r.span.QueuedAt
	}
	r.span.CompletedAt = r.t.now()
	r.t.mu.Lock()
	r.t.spans = append(r.t.spans, r.span)
	r.t.mu.Unlock()
}

// Spans returns a copy of the recorded spans in completion order.
func (t *Timeline) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Len returns the number of completed spans.
func (t *Timeline) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// WriteJSON dumps the spans as an indented JSON array, an OTel-like span
// dump.
func (t *Timeline) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Spans())
}

// Hash returns the deterministic timeline hash: a SHA-256 over every
// span's simulation-determined fields (identity, payload, strategy, cache
// attribution, simulated makespan, chunk count), ordered by Seq, with all
// wall-clock fields excluded. Two runs over identical inputs (same seed,
// topology and fault schedule, sequentially dispatched) produce identical
// hashes; any divergence in what was scheduled or simulated changes it.
func (t *Timeline) Hash() string {
	spans := t.Spans()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Seq < spans[j].Seq })
	h := sha256.New()
	for _, s := range spans {
		fmt.Fprintf(h, "%d|%s|%s|%d|%d|%s|%t|%.12g|%d|%s\n",
			s.Seq, s.Name, s.Backend, s.Stream, s.Bytes, s.Strategy,
			s.CacheHit, s.SimSeconds, s.Chunks, s.Err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Evidence is the deterministic replay-evidence artifact: everything
// needed to reproduce a run byte-for-byte plus the timeline hash proving
// two runs with identical inputs scheduled identically. It carries no
// wall-clock fields, so serializing the same run twice is byte-identical.
type Evidence struct {
	// Tool names the producer (a fault sim, a benchmark, ...).
	Tool string `json:"tool"`
	// Seed is the run's RNG seed (fault schedules, scenarios).
	Seed int64 `json:"seed"`
	// Topology is the pristine allocation's schedule-cache fingerprint.
	Topology string `json:"topology"`
	Backend  string `json:"backend"`
	Model    string `json:"model,omitempty"`
	// FaultSchedule renders every injected fault in iteration order.
	FaultSchedule []string `json:"faultSchedule"`
	Iterations    int      `json:"iterations"`
	// Spans is the number of ops the timeline recorded.
	Spans int `json:"spans"`
	// StepSimSeconds is the per-iteration simulated step time — fully
	// deterministic, unlike the wall-clock trajectory.
	StepSimSeconds []float64 `json:"stepSimSeconds"`
	// TimelineHash is Timeline.Hash over the run's spans.
	TimelineHash string `json:"timelineHash"`
}

// Fingerprint is a short stable digest of the evidence (hash of the
// canonical serialization), convenient for log lines and filenames.
func (e Evidence) Fingerprint() string {
	var sb strings.Builder
	if err := e.WriteJSON(&sb); err != nil {
		return ""
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:8])
}

// WriteJSON serializes the evidence deterministically: identical inputs
// produce byte-identical evidence files.
func (e Evidence) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
}
