package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one timed call the benchmark made into the repo. Parent is the
// index of the enclosing span, or -1 for a root.
type span struct {
	Name   string
	Attr   string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
	Parent int
}

func (s span) dur() time.Duration { return s.End - s.Start }

// layer is the part of a span name before its first dot ("sim" for
// "sim.Makespan"): the module the call went into.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer records spans in memory; they are written out once the run ends.
// A nil *tracer records nothing, so untraced code paths call it freely.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.epoch), Parent: parent})
	return len(t.spans) - 1
}

// end closes span id, tagging it with attr when non-empty.
func (t *tracer) end(id int, attr string) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.epoch)
	if attr != "" {
		t.spans[id].Attr = attr
	}
}

// durations returns the durations of every span with the given name (and
// attr, when non-empty), in recording order.
func (t *tracer) durations(name, attr string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && (attr == "" || s.Attr == attr) {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes sums, per layer, each span's duration minus the durations of
// its direct children: the time spent in that layer's own code.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.layer()] += s.dur() - child[i]
	}
	return out
}

// writeChrome writes the spans of every tracer as Chrome trace-event JSON
// (loadable in Perfetto), one complete event per span with its parent in
// args. Tracers share an epoch; each gets its own thread row.
func writeChrome(path string, tracers ...*tracer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var evs []event
	for tid, t := range tracers {
		for i, s := range t.spans {
			evs = append(evs, event{
				Name: s.Name, Ph: "X", Pid: 1, Tid: tid + 1,
				Ts:   float64(s.Start) / float64(time.Microsecond),
				Dur:  float64(s.dur()) / float64(time.Microsecond),
				Args: map[string]any{"id": i, "parent": s.Parent, "attr": s.Attr},
			})
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
