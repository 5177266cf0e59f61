package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// SpanJSON is one span in the internal wire format replicas exchange when
// assembling a distributed trace (GET /debug/traces/{id}?local=1).
type SpanJSON struct {
	SpanID   string         `json:"span_id"`
	ParentID string         `json:"parent_id,omitempty"`
	Name     string         `json:"name"`
	StartUs  int64          `json:"start_unix_micros"`
	DurUs    int64          `json:"duration_micros"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

// TraceJSON is one service's finished trace in the internal wire format.
type TraceJSON struct {
	TraceID      string     `json:"trace_id"`
	Service      string     `json:"service"`
	Root         string     `json:"root"`
	StartUs      int64      `json:"start_unix_micros"`
	DurUs        int64      `json:"duration_micros"`
	DroppedSpans int        `json:"dropped_spans,omitempty"`
	Error        bool       `json:"error,omitempty"`
	Spans        []SpanJSON `json:"spans"`
}

// JSON converts a finished trace to the wire format.
func (tr *Trace) JSON() TraceJSON {
	out := TraceJSON{
		TraceID:      tr.ID.String(),
		Service:      tr.Service,
		Root:         tr.Root,
		StartUs:      tr.Start.UnixMicro(),
		DurUs:        tr.Duration.Microseconds(),
		DroppedSpans: tr.DroppedSpans,
		Error:        tr.Error,
		Spans:        make([]SpanJSON, 0, len(tr.Spans)),
	}
	for _, sp := range tr.Spans {
		sj := SpanJSON{
			SpanID:  sp.SpanID.String(),
			Name:    sp.Name,
			StartUs: sp.Start.UnixMicro(),
			DurUs:   sp.Duration.Microseconds(),
		}
		if !sp.ParentID.IsZero() {
			sj.ParentID = sp.ParentID.String()
		}
		if len(sp.Attrs) > 0 {
			sj.Attrs = make(map[string]any, len(sp.Attrs))
			for _, a := range sp.Attrs {
				sj.Attrs[a.Key] = a.Value
			}
		}
		out.Spans = append(out.Spans, sj)
	}
	return out
}

// FromJSON rebuilds a Trace from the wire format (attribute values become
// whatever encoding/json produced — float64 for numbers — which is fine
// for re-export). It rejects a malformed trace or span ID.
func FromJSON(tj TraceJSON) (*Trace, error) {
	id, ok := ParseTraceID(tj.TraceID)
	if !ok {
		return nil, fmt.Errorf("obs: bad trace_id %q", tj.TraceID)
	}
	tr := &Trace{
		ID:           id,
		Service:      tj.Service,
		Root:         tj.Root,
		Start:        time.UnixMicro(tj.StartUs),
		Duration:     time.Duration(tj.DurUs) * time.Microsecond,
		DroppedSpans: tj.DroppedSpans,
		Error:        tj.Error,
		Spans:        make([]SpanData, 0, len(tj.Spans)),
	}
	for _, sj := range tj.Spans {
		sid, ok := ParseSpanID(sj.SpanID)
		if !ok {
			return nil, fmt.Errorf("obs: bad span_id %q", sj.SpanID)
		}
		sp := SpanData{
			SpanID:   sid,
			Name:     sj.Name,
			Start:    time.UnixMicro(sj.StartUs),
			Duration: time.Duration(sj.DurUs) * time.Microsecond,
		}
		if sj.ParentID != "" {
			pid, ok := ParseSpanID(sj.ParentID)
			if !ok {
				return nil, fmt.Errorf("obs: bad parent_id %q", sj.ParentID)
			}
			sp.ParentID = pid
		}
		if len(sj.Attrs) > 0 {
			keys := make([]string, 0, len(sj.Attrs))
			for k := range sj.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				sp.Attrs = append(sp.Attrs, Attr{Key: k, Value: sj.Attrs[k]})
			}
		}
		tr.Spans = append(tr.Spans, sp)
	}
	return tr, nil
}

// chromeEvent is one entry of the Chrome trace-event format ("JSON Array
// with metadata" flavor) that Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"` // microseconds
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace renders one or more finished traces — typically the same
// trace ID as recorded by each replica it touched — as a Chrome
// trace-event JSON document. Each input trace becomes its own process
// (pid) named after its service; spans are packed into threads (tids) so
// that every thread's spans nest properly by time, which is how the viewer
// infers the flame structure.
func ChromeTrace(traces []*Trace) []byte {
	var events []chromeEvent

	// Normalize timestamps so the viewport starts near zero.
	var base int64
	for _, tr := range traces {
		for _, sp := range tr.Spans {
			if us := sp.Start.UnixMicro(); base == 0 || us < base {
				base = us
			}
		}
	}

	for pi, tr := range traces {
		pid := pi + 1
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]any{"name": tr.Service},
		})
		lanes := assignLanes(tr.Spans)
		seen := map[int]bool{}
		for si, sp := range tr.Spans {
			tid := lanes[si] + 1
			if !seen[tid] {
				seen[tid] = true
				events = append(events, chromeEvent{
					Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
					Args: map[string]any{"name": fmt.Sprintf("lane %d", tid)},
				})
			}
			args := map[string]any{
				"trace_id": tr.ID.String(),
				"span_id":  sp.SpanID.String(),
			}
			if !sp.ParentID.IsZero() {
				args["parent_id"] = sp.ParentID.String()
			}
			for _, a := range sp.Attrs {
				args[a.Key] = a.Value
			}
			ts := sp.Start.UnixMicro() - base
			if ts < 0 {
				ts = 0 // clock skew across replicas; clamp rather than confuse the viewer
			}
			events = append(events, chromeEvent{
				Name: sp.Name, Ph: "X", Ts: ts, Dur: sp.Duration.Microseconds(),
				Pid: pid, Tid: tid, Args: args,
			})
		}
	}

	doc := struct {
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		TraceEvents     []chromeEvent `json:"traceEvents"`
	}{DisplayTimeUnit: "ms", TraceEvents: events}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(doc); err != nil {
		// Only attr values reach the encoder, and constructors restrict
		// them to JSON-safe scalars.
		panic("obs: chrome export: " + err.Error())
	}
	return buf.Bytes()
}

// assignLanes packs spans into the fewest "threads" such that spans
// sharing a lane properly nest by time (the trace-event viewer stacks
// same-tid events by containment). Concurrent siblings — parallel sweep
// cells — spill into fresh lanes instead of rendering as a corrupt flame
// graph.
func assignLanes(spans []SpanData) []int {
	type iv struct{ start, end int64 }
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	at := func(i int) iv {
		s := spans[i].Start.UnixMicro()
		return iv{s, s + spans[i].Duration.Microseconds()}
	}
	// Parents before children: earlier start first; on ties, longer first.
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := at(order[a]), at(order[b])
		if ia.start != ib.start {
			return ia.start < ib.start
		}
		return ia.end > ib.end
	})
	lanes := make([]int, len(spans))
	var stacks [][]iv
	for _, si := range order {
		cur := at(si)
		placed := false
		for li := range stacks {
			st := stacks[li]
			for len(st) > 0 && st[len(st)-1].end <= cur.start {
				st = st[:len(st)-1]
			}
			if len(st) == 0 || (st[len(st)-1].start <= cur.start && cur.end <= st[len(st)-1].end) {
				stacks[li] = append(st, cur)
				lanes[si] = li
				placed = true
				break
			}
			stacks[li] = st
		}
		if !placed {
			stacks = append(stacks, []iv{cur})
			lanes[si] = len(stacks) - 1
		}
	}
	return lanes
}
