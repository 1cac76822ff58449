package main

import (
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"
)

// A span is one timed call the benchmark made into a layer (or, for
// server.handler, one the benchmark's middleware saw the server make).
// Spans of one op share its op id; parent names the span of the same op
// that caused this one ("" for the op's root span). Times are offsets from
// the recorder's epoch.
type span struct {
	name, kind, parent string
	op                 int64
	start, end         time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// A recorder keeps spans in memory until the run ends. A nil recorder
// records nothing.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// record adds the span [start, end) of a call into layer name.
func (r *recorder) record(name, kind, parent string, op int64, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{name: name, kind: kind, parent: parent, op: op, start: start.Sub(r.epoch), end: end.Sub(r.epoch)}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// all returns a copy of the spans recorded so far.
func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.spans)
}

// named returns the spans with any of the given names, in recording order.
func (r *recorder) named(names ...string) []span {
	var out []span
	for _, s := range r.all() {
		if slices.Contains(names, s.name) {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns the self time of every span called name: its duration
// minus the part of its interval that its children (spans of the same op
// whose parent is name) cover. Overlapping children are counted once.
func selfTimes(spans []span, name string) []time.Duration {
	type key struct {
		op     int64
		parent string
	}
	children := map[key][]span{}
	for _, s := range spans {
		if s.parent != "" {
			k := key{s.op, s.parent}
			children[k] = append(children[k], s)
		}
	}
	var out []time.Duration
	for _, s := range spans {
		if s.name != name {
			continue
		}
		kids := children[key{s.op, s.name}]
		slices.SortFunc(kids, func(a, b span) int { return cmp.Compare(a.start, b.start) })
		covered, reach := time.Duration(0), s.start
		for _, c := range kids {
			lo, hi := max(c.start, reach), min(c.end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out = append(out, s.dur()-covered)
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace-event JSON ("X"
// complete events, microsecond timestamps), loadable in chrome://tracing
// or Perfetto. Op spans share one track so a request's server.handler span
// nests under its client span; set-up and probe spans (op < 0) get their own.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		name, tid := s.name, 1
		if s.kind != "" {
			name += "." + s.kind
		}
		if s.op < 0 {
			tid = 2
		}
		events = append(events, event{
			Name: name, Cat: s.name, Ph: "X", Pid: 1, Tid: tid,
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.dur()) / 1e3,
			Args: map[string]any{"op": s.op, "parent": s.parent},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
