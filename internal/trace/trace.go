// Package trace exports executed schedules as Chrome trace-event JSON
// (chrome://tracing, Perfetto) so a plan's pipelining, link occupancy and
// stream interleaving can be inspected visually — the debugging loop the
// paper's authors describe for CodeGen output.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"blink/internal/core"
	"blink/internal/obs"
	"blink/internal/simgpu"
)

// Event is one Chrome trace event (phase "X": complete event).
type Event struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`  // microseconds
	Dur  float64 `json:"dur"` // microseconds
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
}

// File is the trace-event file wrapper.
type File struct {
	TraceEvents     []Event           `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	Metadata        map[string]string `json:"otherData,omitempty"`
}

// FromPlan times the plan (Simulate) and converts every op into a complete
// event: one "process" per link (so each link renders as a swimlane) with
// the op's stream as the thread ID. The same run's link summary comes with
// it.
func FromPlan(plan *core.Plan) (*File, *Summary, error) {
	sim, err := Simulate(plan)
	if err != nil {
		return nil, nil, err
	}
	return FromOps(plan.Fabric, plan.Ops, sim), Summarize(plan.Fabric, plan.Ops, sim), nil
}

// Simulate runs the plan's schedule for its timing alone: the ops' Exec
// closures are skipped, so tracing a data-mode plan moves no data.
func Simulate(plan *core.Plan) (*simgpu.Sim, error) {
	sim := &simgpu.Sim{SkipExec: true}
	_, err := sim.Run(plan.Fabric.Links, plan.Ops, nil, nil)
	return sim, err
}

// newFile wraps events, ordered by start and then by lane, as a trace file.
func newFile(events []Event) *File {
	sort.Slice(events, func(i, j int) bool {
		if events[i].TS != events[j].TS {
			return events[i].TS < events[j].TS
		}
		return events[i].PID < events[j].PID
	})
	return &File{TraceEvents: events, DisplayTimeUnit: "ns", Metadata: map[string]string{"generator": "blink/internal/trace"}}
}

// FromOps converts ops, timed by sim, into a trace file.
func FromOps(f *simgpu.Fabric, ops []*simgpu.Op, sim *simgpu.Sim) *File {
	var events []Event
	for i, op := range ops {
		start, finish := sim.Start[i], sim.Finish[i]
		if finish <= start {
			continue // zero-duration sync op
		}
		lane, cat := op.Link, "copy"
		if lane >= 0 && f != nil && strings.HasPrefix(f.Links[lane].Label, "reduce") {
			cat = "reduce"
		}
		events = append(events, Event{
			Name: core.OpLabel(op),
			Cat:  cat,
			Ph:   "X",
			TS:   start * 1e6,
			Dur:  (finish - start) * 1e6,
			PID:  lane + 1, // pid 0 is reserved for sync ops
			TID:  op.Stream,
		})
	}
	return newFile(events)
}

// FromSpans converts an op timeline (obs spans) into a trace file where
// every async stream renders as a swimlane: one "process" per stream (sync
// dispatches, stream -1, land on pid 0) with the span's Seq as the thread
// ID so overlapping ops on one stream stack instead of merging. Each span
// yields up to two complete events: a "queued" event covering submission →
// dispatch (when the op actually waited) and the op event covering
// dispatch → completion, named after the collective and labeled with its
// strategy category.
func FromSpans(spans []obs.Span) *File {
	var events []Event
	for _, s := range spans {
		name := s.Name
		if name == "" {
			name = "op"
		}
		cat := s.Strategy
		if cat == "" {
			cat = "op"
		}
		pid := s.Stream + 1
		if wait := s.DispatchedAt - s.QueuedAt; wait > 0 {
			events = append(events, Event{
				Name: name + " (queued)",
				Cat:  "queue",
				Ph:   "X",
				TS:   s.QueuedAt * 1e6,
				Dur:  wait * 1e6,
				PID:  pid,
				TID:  s.Seq,
			})
		}
		dur := max(s.CompletedAt-s.DispatchedAt, 0)
		events = append(events, Event{
			Name: name,
			Cat:  cat,
			Ph:   "X",
			TS:   s.DispatchedAt * 1e6,
			Dur:  dur * 1e6,
			PID:  pid,
			TID:  s.Seq,
		})
	}
	return newFile(events)
}

// Write serializes the trace as JSON.
func (f *File) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// Summary aggregates per-link busy time from executed ops — a quick text
// alternative to the visual trace.
type Summary struct {
	Makespan float64
	Links    []LinkUsage
}

// LinkUsage is one link's aggregate occupancy.
type LinkUsage struct {
	Link     int
	Label    string
	BusySecs float64
	Ops      int
	// Utilization is BusySecs / Makespan.
	Utilization float64
}

// Summarize computes link utilization for ops timed by sim. A link's busy
// time is the union of its ops' windows: ops on different streams may share
// a link at once, and their overlap counts once.
func Summarize(f *simgpu.Fabric, ops []*simgpu.Op, sim *simgpu.Sim) *Summary {
	s := &Summary{}
	busy := map[int]*LinkUsage{}
	windows := map[int][][2]float64{}
	for i, op := range ops {
		s.Makespan = max(s.Makespan, sim.Finish[i])
		l := op.Link
		if l < 0 {
			continue
		}
		u := busy[l]
		if u == nil {
			u = &LinkUsage{Link: l}
			if f != nil && l < len(f.Links) {
				u.Label = f.Links[l].Label
			}
			busy[l] = u
		}
		windows[l] = append(windows[l], [2]float64{sim.Start[i], sim.Finish[i]})
		u.Ops++
	}
	for l, u := range busy {
		ws := windows[l]
		sort.Slice(ws, func(i, j int) bool { return ws[i][0] < ws[j][0] })
		end := 0.0
		for _, w := range ws {
			u.BusySecs += max(w[1]-max(w[0], end), 0)
			end = max(end, w[1])
		}
		if s.Makespan > 0 {
			u.Utilization = u.BusySecs / s.Makespan
		}
		s.Links = append(s.Links, *u)
	}
	sort.Slice(s.Links, func(i, j int) bool { return s.Links[i].BusySecs > s.Links[j].BusySecs })
	return s
}

// Fprint renders the summary.
func (s *Summary) Fprint(w io.Writer, top int) {
	fmt.Fprintf(w, "makespan %.3f ms\n", s.Makespan*1e3)
	for i, u := range s.Links {
		if top > 0 && i >= top {
			break
		}
		fmt.Fprintf(w, "  %-20s busy %7.3f ms (%5.1f%%) over %d ops\n",
			u.Label, u.BusySecs*1e3, 100*u.Utilization, u.Ops)
	}
}
