// Package obs is the production observability layer: a lock-cheap metrics
// registry (atomic counters, gauges and histograms with Prometheus-text and
// JSON export), per-op structured timelines built from the replay hooks
// (queue -> dispatch -> chunk progress -> complete), and deterministic
// replay evidence (seed + topology fingerprint + fault schedule + a stable
// timeline hash) — the artifacts a fleet operator needs to see cache hit
// rates, per-stream utilization, replan events and op swimlanes without
// attaching a debugger to the planner.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is usable;
// all methods are safe for concurrent use and lock-free.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time value that can move both ways (queue depths,
// in-flight bytes). The zero value is usable; all methods are lock-free.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the value by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed cumulative-style buckets plus a
// running sum, Prometheus histogram semantics. Observation is lock-free:
// one atomic add on the bucket, one CAS loop on the float sum.
type Histogram struct {
	bounds []float64 // sorted upper bounds; implicit +Inf bucket follows
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	count  atomic.Uint64
}

// DefaultLatencyBuckets covers 1us..10s, the spread between a warm plan
// replay and a cold multi-server compile.
var DefaultLatencyBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1, 10,
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the running total of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Registry is a named-metric registry. Metric resolution (Counter, Gauge,
// Histogram) creates on first use and is a sync.Map read afterwards; hot
// paths should resolve once and hold the returned handle, after which every
// update is purely atomic. A nil *Registry is valid and resolves unnamed
// standalone metrics, so instrumented code never branches on "is
// observability on".
//
// Metric names follow Prometheus conventions and may carry a label suffix,
// e.g. `blink_stream_queue_depth{stream="0"}`; series sharing a base name
// are grouped under one TYPE line in the text exposition.
type Registry struct {
	counters   sync.Map // name -> *Counter
	gauges     sync.Map // name -> *Gauge
	histograms sync.Map // name -> *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter resolves (creating if absent) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	if v, ok := r.counters.Load(name); ok {
		return v.(*Counter)
	}
	v, _ := r.counters.LoadOrStore(name, &Counter{})
	return v.(*Counter)
}

// Gauge resolves (creating if absent) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	if v, ok := r.gauges.Load(name); ok {
		return v.(*Gauge)
	}
	v, _ := r.gauges.LoadOrStore(name, &Gauge{})
	return v.(*Gauge)
}

// Histogram resolves (creating if absent) the named histogram. bounds are
// the cumulative bucket upper bounds, used only on first creation; nil
// selects DefaultLatencyBuckets.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	if r == nil {
		return newHistogram(bounds)
	}
	if v, ok := r.histograms.Load(name); ok {
		return v.(*Histogram)
	}
	v, _ := r.histograms.LoadOrStore(name, newHistogram(bounds))
	return v.(*Histogram)
}

// HistogramSnapshot is one histogram's exported state.
type HistogramSnapshot struct {
	// Buckets holds cumulative counts per upper bound, Prometheus `le`
	// semantics; the final entry is the +Inf bucket (== Count).
	Buckets []BucketCount `json:"buckets"`
	Sum     float64       `json:"sum"`
	Count   uint64        `json:"count"`
}

// BucketCount is one cumulative histogram bucket.
type BucketCount struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// Snapshot is a point-in-time copy of every metric in a registry, with
// deterministic (sorted) iteration order in both export formats.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.counters.Range(func(k, v any) bool {
		s.Counters[k.(string)] = v.(*Counter).Value()
		return true
	})
	r.gauges.Range(func(k, v any) bool {
		s.Gauges[k.(string)] = v.(*Gauge).Value()
		return true
	})
	r.histograms.Range(func(k, v any) bool {
		h := v.(*Histogram)
		hs := HistogramSnapshot{Sum: h.Sum(), Count: h.Count()}
		cum := uint64(0)
		for i := range h.counts {
			cum += h.counts[i].Load()
			ub := math.Inf(1)
			if i < len(h.bounds) {
				ub = h.bounds[i]
			}
			hs.Buckets = append(hs.Buckets, BucketCount{UpperBound: ub, Count: cum})
		}
		s.Histograms[k.(string)] = hs
		return true
	})
	return s
}

// WriteJSON serializes the snapshot as indented JSON with sorted keys.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// baseName strips a label suffix: `m{stream="0"}` -> `m`.
func baseName(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// labelSuffix returns the label part including braces ("" if unlabeled).
func labelSuffix(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[i:]
	}
	return ""
}

// histogramSeries renders one labeled sub-series name for the text format:
// base_bucket{labels...,le="x"}.
func histogramSeries(series, suffix, extraLabel string) string {
	base, labels := baseName(series), labelSuffix(series)
	if extraLabel != "" {
		if labels == "" {
			labels = "{" + extraLabel + "}"
		} else {
			labels = strings.TrimSuffix(labels, "}") + "," + extraLabel + "}"
		}
	}
	return base + suffix + labels
}

func formatLe(ub float64) string {
	if math.IsInf(ub, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", ub)
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format, deterministically ordered (series sorted within each type).
func (s Snapshot) WritePrometheus(w io.Writer) error {
	typed := map[string]string{}
	var names []string
	collect := func(series, kind string) {
		names = append(names, series)
		if _, ok := typed[baseName(series)]; !ok {
			typed[baseName(series)] = kind
		}
	}
	for n := range s.Counters {
		collect(n, "counter")
	}
	for n := range s.Gauges {
		collect(n, "gauge")
	}
	for n := range s.Histograms {
		collect(n, "histogram")
	}
	sort.Strings(names)
	// The exposition is built whole and written once.
	var b strings.Builder
	emittedType := map[string]bool{}
	for _, n := range names {
		base := baseName(n)
		if !emittedType[base] {
			emittedType[base] = true
			fmt.Fprintf(&b, "# TYPE %s %s\n", base, typed[base])
		}
		switch typed[base] {
		case "counter":
			fmt.Fprintf(&b, "%s %d\n", n, s.Counters[n])
		case "gauge":
			fmt.Fprintf(&b, "%s %d\n", n, s.Gauges[n])
		case "histogram":
			h := s.Histograms[n]
			for _, bk := range h.Buckets {
				fmt.Fprintf(&b, "%s %d\n", histogramSeries(n, "_bucket", `le="`+formatLe(bk.UpperBound)+`"`), bk.Count)
			}
			fmt.Fprintf(&b, "%s %g\n", histogramSeries(n, "_sum", ""), h.Sum)
			fmt.Fprintf(&b, "%s %d\n", histogramSeries(n, "_count", ""), h.Count)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WritePrometheus snapshots the registry and renders the text exposition.
func (r *Registry) WritePrometheus(w io.Writer) error { return r.Snapshot().WritePrometheus(w) }

// WriteJSON snapshots the registry and renders JSON.
func (r *Registry) WriteJSON(w io.Writer) error { return r.Snapshot().WriteJSON(w) }
