package server

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"hybridpart/internal/obs"
)

// Trace inspection endpoints. GET /debug/traces lists the tracer's ring of
// finished traces (newest first); GET /debug/traces/{id} downloads one
// trace as Chrome trace-event JSON, loadable as-is in Perfetto or
// chrome://tracing. In fleet mode the download additionally asks every
// peer for its spans under the same trace ID (?local=1 returns the raw
// local view and guards against recursion), so a forwarded request yields
// one document with the forwarding replica and the owner as separate
// processes on a shared timeline. Peer reads merge data only — they touch
// no span counters, so a forwarded request's spans are counted exactly
// once fleet-wide, each on the replica that recorded them.

// TraceSummaryJSON is one row of GET /debug/traces.
type TraceSummaryJSON struct {
	TraceID    string `json:"trace_id"`
	Root       string `json:"root"`
	Endpoint   string `json:"endpoint"`
	Start      string `json:"start"` // RFC 3339, with sub-second precision
	DurationUs int64  `json:"duration_micros"`
	Spans      int    `json:"spans"`
	Error      bool   `json:"error,omitempty"`
}

// TraceListJSON is the body of GET /debug/traces.
type TraceListJSON struct {
	Service string             `json:"service"`
	Ring    obs.Stats          `json:"ring"`
	Traces  []TraceSummaryJSON `json:"traces"`
}

// TraceStatsJSON is the tracing section of GET /debug/stats, present only
// when a tracer is configured.
type TraceStatsJSON struct {
	RingDepth     int   `json:"ring_depth"`
	RingCapacity  int   `json:"ring_capacity"`
	DroppedTraces int64 `json:"dropped_traces"`
	DroppedSpans  int64 `json:"dropped_spans"`
	Spans         int64 `json:"spans"`
	// Tail-sampling policy counters (hservd -trace-keep-slow).
	KeptError  int64 `json:"kept_error"`
	KeptSlow   int64 `json:"kept_slow"`
	SampledOut int64 `json:"sampled_out"`
}

// handleTraceList lists retained traces, newest first. ?endpoint= keeps
// only traces whose root belongs to that endpoint, ?min_ms= only traces at
// least that many milliseconds long — so an operator chasing "slow
// /v1/partition requests" never downloads the whole ring.
func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		s.writeError(w, notFound("tracing is not enabled (hservd -trace-ring)"))
		return
	}
	q := r.URL.Query()
	endpoint := q.Get("endpoint")
	var minDur time.Duration
	if raw := q.Get("min_ms"); raw != "" {
		ms, err := strconv.ParseFloat(raw, 64)
		if err != nil || ms < 0 {
			s.writeError(w, badRequest("min_ms must be a non-negative number of milliseconds"))
			return
		}
		minDur = time.Duration(ms * float64(time.Millisecond))
	}
	out := TraceListJSON{
		Service: s.tracer.Service(),
		Ring:    s.tracer.Stats(),
		Traces:  []TraceSummaryJSON{},
	}
	for _, tr := range s.tracer.Traces() {
		if endpoint != "" && tr.Endpoint() != endpoint {
			continue
		}
		if tr.Duration < minDur {
			continue
		}
		out.Traces = append(out.Traces, TraceSummaryJSON{
			TraceID:    tr.ID.String(),
			Root:       tr.Root,
			Endpoint:   tr.Endpoint(),
			Start:      tr.Start.UTC().Format(time.RFC3339Nano),
			DurationUs: tr.Duration.Microseconds(),
			Spans:      len(tr.Spans),
			Error:      tr.Error,
		})
	}
	s.writeJSON(w, out)
}

func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		s.writeError(w, notFound("tracing is not enabled (hservd -trace-ring)"))
		return
	}
	id, ok := obs.ParseTraceID(r.PathValue("id"))
	if !ok {
		s.writeError(w, badRequest("trace id must be 32 lowercase hex digits"))
		return
	}
	local := s.tracer.Get(id)
	if r.URL.Query().Get("local") != "" {
		// A peer assembling the distributed view wants this replica's raw
		// spans; never recurse back out to the fleet from here.
		if local == nil {
			s.writeError(w, notFound("trace not found on this replica"))
			return
		}
		s.writeJSON(w, local.JSON())
		return
	}
	var traces []*obs.Trace
	if local != nil {
		traces = append(traces, local)
	}
	traces = append(traces, s.peerTraces(r.Context(), id)...)
	if len(traces) == 0 {
		s.writeError(w, notFound("trace not found (evicted from the ring, or never recorded)"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(obs.ChromeTrace(traces))
}

// peerTraces collects the other replicas' views of trace id. Failures are
// soft: an unreachable peer or a peer without the trace contributes
// nothing, and a slow one costs at most fleetPeerTimeout.
func (s *Server) peerTraces(ctx context.Context, id obs.TraceID) []*obs.Trace {
	cs := s.cluster
	if cs == nil {
		return nil
	}
	var out []*obs.Trace
	for _, peer := range cs.ring.Nodes() {
		if peer == cs.self {
			continue
		}
		var tj obs.TraceJSON
		if s.fetchPeerJSON(ctx, peer+"/debug/traces/"+id.String()+"?local=1", &tj) != nil {
			continue
		}
		if tr, err := obs.FromJSON(tj); err == nil {
			out = append(out, tr)
		}
	}
	return out
}
