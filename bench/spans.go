package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// spanKind names one timed boundary. The library has no spans of its own
// on these boundaries yet, so the traced pass times each layer's exported
// entry point back to back on the same plan and links the spans by parent:
// a layer's self time is its span minus its child spans.
type spanKind uint8

const (
	spComm       spanKind = iota // public Comm / ClusterComm call
	spEngine                     // collective.Engine.Run on the same key
	spCacheGet                   // collective.PlanCache.Get
	spReplay                     // core.FrozenPlan.Replay
	spSimRun                     // simgpu.Run on pre-materialised ops
	spData                       // public Comm.*Data call
	spDataEngine                 // collective.Snapshot.Run on a staged arena
	spDataReplay                 // core.FrozenPlan.ReplayData
	spDataSimRun                 // simgpu.Run with Exec closures
	spDataSimRef                 // simgpu.Run, same schedule, timing only
	numSpanKinds
)

var spanInfo = [numSpanKinds]struct{ name, layer string }{
	spComm:       {"blink.comm", "blink"},
	spEngine:     {"collective.engine.run", "collective.engine"},
	spCacheGet:   {"collective.cache.get", "collective.cache"},
	spReplay:     {"core.frozen.replay", "core.frozen"},
	spSimRun:     {"simgpu.run", "simgpu"},
	spData:       {"blink.data", "blink"},
	spDataEngine: {"collective.engine.run_data", "collective.engine"},
	spDataReplay: {"core.frozen.replay_data", "core.frozen"},
	spDataSimRun: {"simgpu.run_data", "simgpu"},
	spDataSimRef: {"simgpu.run_ref", "simgpu"},
}

// span is one timed call: which boundary, the op it belongs to (spans of one
// op share the id), the span that caused it (-1 for a root), and its start
// and end in nanoseconds since the buffer's epoch.
type span struct {
	kind       spanKind
	op         int32
	parent     int32
	start, end int64
}

// spanBuf keeps spans in memory until the pass ends. It never grows: once
// full, add reports false and the traced loop stops.
type spanBuf struct {
	epoch time.Time
	spans []span
}

func newSpanBuf(capacity int) *spanBuf {
	return &spanBuf{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// room reports whether n more spans fit.
func (b *spanBuf) room(n int) bool { return len(b.spans)+n <= cap(b.spans) }

// add records one span and returns its index for use as a parent.
func (b *spanBuf) add(kind spanKind, op, parent int, start, end time.Time) int {
	b.spans = append(b.spans, span{
		kind: kind, op: int32(op), parent: int32(parent),
		start: int64(start.Sub(b.epoch)), end: int64(end.Sub(b.epoch)),
	})
	return len(b.spans) - 1
}

// durations returns the ascending durations, in microseconds, of every
// span of one kind.
func (b *spanBuf) durations(kind spanKind) []float64 {
	var out []float64
	for _, s := range b.spans {
		if s.kind == kind {
			out = append(out, float64(s.end-s.start)/1e3)
		}
	}
	sort.Float64s(out)
	return out
}

// selfTimes returns, for every span of one kind, its duration minus the
// durations of the spans it directly caused, ascending, in microseconds.
// Children are timed after their parent rather than inside it, so a noisy
// child can exceed its parent; such a self time is kept as measured
// (negative) rather than hidden. Spans with no timed child (cluster ops,
// whose layers are not opened up) say nothing about self time and are left
// out.
func (b *spanBuf) selfTimes(kind spanKind) []float64 {
	child := make([]int64, len(b.spans))
	parent := make([]bool, len(b.spans))
	for _, s := range b.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
			parent[s.parent] = true
		}
	}
	var out []float64
	for i, s := range b.spans {
		if s.kind == kind && parent[i] {
			out = append(out, float64(s.end-s.start-child[i])/1e3)
		}
	}
	sort.Float64s(out)
	return out
}

// diffs pairs the spans of two kinds by op id and returns a − b per op,
// ascending, in microseconds.
func (b *spanBuf) diffs(a, bKind spanKind) []float64 {
	ref := map[int32]int64{}
	for _, s := range b.spans {
		if s.kind == bKind {
			ref[s.op] = s.end - s.start
		}
	}
	var out []float64
	for _, s := range b.spans {
		if s.kind == a {
			if r, ok := ref[s.op]; ok {
				out = append(out, float64(s.end-s.start-r)/1e3)
			}
		}
	}
	sort.Float64s(out)
	return out
}

// writeChromeTrace renders the first limit spans as Chrome trace-event JSON
// (chrome://tracing, Perfetto): one row per layer, the op id and parent span
// in args.
func (b *spanBuf) writeChromeTrace(w io.Writer, limit int) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	n := len(b.spans)
	if n > limit {
		n = limit
	}
	events := make([]event, 0, n)
	for i, s := range b.spans[:n] {
		info := spanInfo[s.kind]
		events = append(events, event{
			Name: info.name, Cat: info.layer, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: int(s.kind),
			Args: map[string]int{"span": i, "op": int(s.op), "parent": int(s.parent)},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}
