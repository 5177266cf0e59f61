package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hybridpart/internal/cluster"
	"hybridpart/internal/obs"
)

// Tracing tests: the traceparent round-trip across a two-replica forward,
// the loop-guard path, engine-depth spans, and the exactly-once span
// accounting that /metrics exposes.

// findSpan returns the first span with the given name, or nil.
func findSpan(tr *obs.Trace, name string) *obs.SpanData {
	for i := range tr.Spans {
		if tr.Spans[i].Name == name {
			return &tr.Spans[i]
		}
	}
	return nil
}

// attrValue returns the named attribute's value, or nil.
func attrValue(sd *obs.SpanData, key string) any {
	for _, a := range sd.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}

// waitTrace polls for a finished trace: the HTTP response races the root
// span's End by microseconds, so reads retry briefly.
func waitTrace(t *testing.T, tracer *obs.Tracer, id obs.TraceID) *obs.Trace {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if tr := tracer.Get(id); tr != nil {
			return tr
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("trace %s never finalized", id)
	return nil
}

// TestFleetTraceRoundTrip is the tracing acceptance scenario: a request
// forwarded between two replicas produces ONE distributed trace — same
// trace ID on both, the owner's root span parented to the forwarder's
// cluster.forward span — downloadable from either replica as a merged
// two-process Chrome trace, with every span counted exactly once on the
// replica that recorded it.
func TestFleetTraceRoundTrip(t *testing.T) {
	n := 2
	swaps := make([]*swapHandler, n)
	urls := make([]string, n)
	for i := range swaps {
		swaps[i] = &swapHandler{}
		ts := httptest.NewServer(swaps[i])
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	tracers := make([]*obs.Tracer, n)
	servers := make([]*Server, n)
	for i := range servers {
		tracers[i] = obs.New(obs.Config{Service: urls[i], RingSize: 8})
		servers[i] = New(Config{Self: urls[i], Peers: urls, Tracer: tracers[i]})
		swaps[i].h.Store(servers[i])
	}
	ring := cluster.NewRing(urls, 0)
	body, _ := modelBodyOwnedBy(t, ring, urls[1])

	resp, respBody := httpPost(t, urls[0], "/v1/partition", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded request: status %d: %s", resp.StatusCode, respBody)
	}
	if resp.Header.Get(clusterHeader) == "" {
		t.Fatal("request was not forwarded; test setup broken")
	}
	id, ok := obs.ParseTraceID(resp.Header.Get("X-Trace-Id"))
	if !ok {
		t.Fatalf("X-Trace-Id %q is not a trace id", resp.Header.Get("X-Trace-Id"))
	}

	// Both replicas finalized a trace under the SAME id: one distributed
	// trace, two local views.
	fwd := waitTrace(t, tracers[0], id)
	own := waitTrace(t, tracers[1], id)

	// Forwarder view: root is the HTTP edge, cluster.forward hangs off it.
	fwdRoot := findSpan(fwd, "POST /v1/partition")
	if fwdRoot == nil || !fwdRoot.ParentID.IsZero() {
		t.Fatalf("forwarder root span missing or not a root: %+v", fwdRoot)
	}
	hop := findSpan(fwd, "cluster.forward")
	if hop == nil {
		t.Fatal("forwarder trace has no cluster.forward span")
	}
	if hop.ParentID != fwdRoot.SpanID {
		t.Fatalf("cluster.forward parent %s, want root %s", hop.ParentID, fwdRoot.SpanID)
	}
	if got := attrValue(hop, "owner"); got != cluster.NormalizeNode(urls[1]) {
		t.Fatalf("cluster.forward owner attr %v, want %s", got, urls[1])
	}
	if got := attrValue(hop, "reached"); got != true {
		t.Fatalf("cluster.forward reached attr %v, want true", got)
	}

	// Owner view: its root joined the forwarder's trace — remote parent is
	// the cluster.forward span, and the hop is recorded in forwarded_from.
	ownRoot := findSpan(own, "POST /v1/partition")
	if ownRoot == nil {
		t.Fatal("owner trace has no root span")
	}
	if ownRoot.ParentID != hop.SpanID {
		t.Fatalf("owner root parent %s, want forwarder's cluster.forward span %s",
			ownRoot.ParentID, hop.SpanID)
	}
	if got := attrValue(ownRoot, "forwarded_from"); got != cluster.NormalizeNode(urls[0]) {
		t.Fatalf("owner root forwarded_from attr %v, want %s", got, urls[0])
	}

	// The owner did the work: cache probe and move loop are under its view.
	for _, name := range []string{"cache.lookup", "store.get", "partition.moveloop"} {
		if findSpan(own, name) == nil {
			t.Fatalf("owner trace missing %q span; have %d spans", name, len(own.Spans))
		}
		if findSpan(fwd, name) != nil {
			t.Fatalf("forwarder trace has a %q span but only proxied", name)
		}
	}

	// Exactly-once accounting, fleet-wide: every span counted on the replica
	// that recorded it, and the distributed read below must not change that.
	spans0, spans1 := tracers[0].Stats().Spans, tracers[1].Stats().Spans
	if total := spans0 + spans1; total != int64(len(fwd.Spans)+len(own.Spans)) {
		t.Fatalf("spans_total %d+%d, want %d local + %d owner",
			spans0, spans1, len(fwd.Spans), len(own.Spans))
	}

	// Either replica serves the merged Perfetto document: two processes on
	// one timeline, with the hop and the work both present.
	hresp, err := http.Get(urls[0] + "/debug/traces/" + id.String())
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces/{id}: status %d", hresp.StatusCode)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&doc); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}
	pids := map[int]bool{}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		pids[ev.Pid] = true
		names[ev.Name] = true
		if ev.Args["trace_id"] != id.String() {
			t.Fatalf("event %q trace_id %v, want %s", ev.Name, ev.Args["trace_id"], id)
		}
	}
	if len(pids) != 2 {
		t.Fatalf("merged trace has %d processes, want 2 (forwarder + owner)", len(pids))
	}
	for _, name := range []string{"POST /v1/partition", "cluster.forward", "cache.lookup", "partition.moveloop"} {
		if !names[name] {
			t.Fatalf("merged trace missing %q; have %v", name, names)
		}
	}

	// The merge was read-only on the counters.
	if got := tracers[0].Stats().Spans; got != spans0 {
		t.Fatalf("merged read changed replica 0 spans_total: %d -> %d", spans0, got)
	}
	if got := tracers[1].Stats().Spans; got != spans1 {
		t.Fatalf("merged read changed replica 1 spans_total: %d -> %d", spans1, got)
	}
}

// TestTraceLoopGuard: a request that arrives already forwarded (loop-guard
// path) still joins the caller's trace via traceparent and is traced
// through local computation.
func TestTraceLoopGuard(t *testing.T) {
	self := "http://127.0.0.1:1"
	other := "http://127.0.0.1:2"
	tracer := obs.New(obs.Config{Service: "guard"})
	s := newTestServer(t, Config{Self: self, Peers: []string{self, other}, Tracer: tracer})
	body, _ := modelBodyOwnedBy(t, cluster.NewRing([]string{self, other}, 0), other)

	const parent = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	rec := postCtx(t, s, "/v1/partition", body, t.Context(), map[string]string{
		forwardHeader: other,
		"traceparent": parent,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Trace-Id"); got != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("X-Trace-Id %q did not adopt the remote trace id", got)
	}
	id, _ := obs.ParseTraceID("0af7651916cd43dd8448eb211c80319c")
	tr := waitTrace(t, tracer, id)
	root := findSpan(tr, "POST /v1/partition")
	if root == nil {
		t.Fatal("no root span")
	}
	if root.ParentID.String() != "b7ad6b7169203331" {
		t.Fatalf("root parent %s, want remote span b7ad6b7169203331", root.ParentID)
	}
	if got := attrValue(root, "forwarded_from"); got != other {
		t.Fatalf("forwarded_from attr %v, want %s", got, other)
	}
	// Pinned local: computed here, so the move loop is in THIS trace and no
	// cluster.forward hop exists.
	if findSpan(tr, "partition.moveloop") == nil {
		t.Fatal("loop-guarded request's computation was not traced")
	}
	if findSpan(tr, "cluster.forward") != nil {
		t.Fatal("loop-guarded request re-forwarded")
	}
}

// TestTraceSimSpans: a simulated-objective request carries the engine-depth
// spans the acceptance scenario names — sim.ScoreBatch with pruned/scored
// attributes, under sim.argmin, under the move loop.
func TestTraceSimSpans(t *testing.T) {
	tracer := obs.New(obs.Config{Service: "sim"})
	s := newTestServer(t, Config{Tracer: tracer})
	rec := post(t, s, "/v1/partition", `{"benchmark":"ofdm","seed":1,"constraint":60000,"objective":"sim"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	id, ok := obs.ParseTraceID(rec.Header().Get("X-Trace-Id"))
	if !ok {
		t.Fatalf("X-Trace-Id %q", rec.Header().Get("X-Trace-Id"))
	}
	tr := waitTrace(t, tracer, id)

	sb := findSpan(tr, "sim.ScoreBatch")
	if sb == nil {
		t.Fatalf("no sim.ScoreBatch span in %d spans", len(tr.Spans))
	}
	for _, key := range []string{"scored", "pruned"} {
		if attrValue(sb, key) == nil {
			t.Fatalf("sim.ScoreBatch missing %q attr: %+v", key, sb.Attrs)
		}
	}
	argmin := findSpan(tr, "sim.argmin")
	if argmin == nil {
		t.Fatal("no sim.argmin span")
	}
	if sb.ParentID != argmin.SpanID {
		t.Fatalf("sim.ScoreBatch parent %s, want sim.argmin %s", sb.ParentID, argmin.SpanID)
	}
	loop := findSpan(tr, "partition.moveloop")
	if loop == nil || argmin.ParentID != loop.SpanID {
		t.Fatal("sim.argmin not parented under partition.moveloop")
	}
	if findSpan(tr, "profile") == nil || findSpan(tr, "cache.lookup") == nil {
		t.Fatal("edge-to-engine spans missing (profile / cache.lookup)")
	}
}

// TestTraceStatsAndMetrics: the ring surfaces in /debug/stats and /metrics
// once a tracer is configured, and /debug/traces lists finished traces.
func TestTraceStatsAndMetrics(t *testing.T) {
	tracer := obs.New(obs.Config{Service: "statsy", RingSize: 4})
	s := newTestServer(t, Config{Tracer: tracer})
	rec := post(t, s, "/v1/partition", firBody())
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	id, _ := obs.ParseTraceID(rec.Header().Get("X-Trace-Id"))
	waitTrace(t, tracer, id)

	var st StatsJSON
	if err := json.Unmarshal(get(t, s, "/debug/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Traces == nil {
		t.Fatal("/debug/stats has no traces section with a tracer configured")
	}
	if st.Traces.RingDepth < 1 || st.Traces.RingCapacity != 4 || st.Traces.Spans < 2 {
		t.Fatalf("trace stats %+v", st.Traces)
	}

	var list TraceListJSON
	if err := json.Unmarshal(get(t, s, "/debug/traces").Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if list.Service != "statsy" || len(list.Traces) < 1 {
		t.Fatalf("trace list %+v", list)
	}
	if list.Traces[0].TraceID != id.String() || list.Traces[0].Spans < 2 {
		t.Fatalf("trace list head %+v, want trace %s", list.Traces[0], id)
	}

	metrics := get(t, s, "/metrics").Body.String()
	for _, want := range []string{"hservd_trace_ring_depth", "hservd_trace_spans_total"} {
		if !strings.Contains(metrics, "# TYPE "+want) {
			t.Fatalf("/metrics missing %s", want)
		}
	}

	// Untracted surfaces never pollute the ring: /debug and /metrics reads
	// above added no traces.
	if got := tracer.Stats().Depth; got != 1 {
		t.Fatalf("ring depth %d after debug reads, want 1", got)
	}
}

// TestTraceDisabled: without a tracer the debug endpoints 404, responses
// carry no X-Trace-Id, and request handling is untouched.
func TestTraceDisabled(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := post(t, s, "/v1/partition", firBody())
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if got := rec.Header().Get("X-Trace-Id"); got != "" {
		t.Fatalf("X-Trace-Id %q with tracing disabled", got)
	}
	if rec := get(t, s, "/debug/traces"); rec.Code != http.StatusNotFound {
		t.Fatalf("/debug/traces status %d, want 404", rec.Code)
	}
	if rec := get(t, s, "/debug/traces/0af7651916cd43dd8448eb211c80319c"); rec.Code != http.StatusNotFound {
		t.Fatalf("/debug/traces/{id} status %d, want 404", rec.Code)
	}
}

// TestTraceGetBadID: a malformed id is a 400, not a panic or a 404.
func TestTraceGetBadID(t *testing.T) {
	s := newTestServer(t, Config{Tracer: obs.New(obs.Config{})})
	if rec := get(t, s, "/debug/traces/not-hex"); rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rec.Code)
	}
}
