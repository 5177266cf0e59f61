package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"hybridpart/internal/cluster"
	"hybridpart/internal/obs"
)

// Flight-recorder tests: span-derived stage histograms (worker-count
// invariance, exemplar resolution), tail-sampled retention under HTTP
// load, trace-list filters, the telemetry endpoint and the fleet health
// document.

// getAccept is get with an Accept header, for OpenMetrics scrapes.
func getAccept(t *testing.T, s *Server, path, accept string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.Header.Set("Accept", accept)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// stageCounts reduces a server's stage aggregate to stage -> observation
// count for one endpoint.
func stageCounts(s *Server, endpoint string) map[string]int64 {
	out := map[string]int64{}
	for _, snap := range s.stages.Snapshot() {
		if snap.Endpoint == endpoint {
			out[snap.Stage] = snap.Count
		}
	}
	return out
}

// TestStageMetricsWorkerInvariance: the per-stage observation totals for
// one request are a property of the workload, not of the worker count —
// scoring the same sim-objective request under a 1-, 2- and 4-worker
// server folds identical span counts into the aggregate.
func TestStageMetricsWorkerInvariance(t *testing.T) {
	const body = `{"benchmark":"ofdm","seed":1,"constraint":60000,"objective":"sim"}`
	counts := make([]map[string]int64, 0, 3)
	for _, workers := range []int{1, 2, 4} {
		tracer := obs.New(obs.Config{Service: fmt.Sprintf("w%d", workers)})
		s := newTestServer(t, Config{Workers: workers, Tracer: tracer})
		if rec := post(t, s, "/v1/partition", body); rec.Code != http.StatusOK {
			t.Fatalf("workers=%d: status %d: %s", workers, rec.Code, rec.Body.String())
		}
		counts = append(counts, stageCounts(s, "/v1/partition"))
	}
	for _, stage := range []string{"profile", "cache.lookup", "store.get", "partition.moveloop", "sim.argmin", "sim.ScoreBatch"} {
		if counts[0][stage] == 0 {
			t.Errorf("stage %q never observed: %v", stage, counts[0])
		}
	}
	for i := 1; i < len(counts); i++ {
		if len(counts[i]) != len(counts[0]) {
			t.Fatalf("worker count changed the stage set: %v vs %v", counts[0], counts[i])
		}
		for stage, want := range counts[0] {
			if got := counts[i][stage]; got != want {
				t.Errorf("stage %q: %d observations at workers=1, %d at variant %d", stage, want, got, i)
			}
		}
	}
}

var exemplarRe = regexp.MustCompile(`# \{trace_id="([0-9a-f]{32})"\} `)

// TestStageExemplarsResolve is the tentpole's acceptance loop: an
// OpenMetrics scrape of /metrics carries exemplar trace IDs on the stage
// histograms, and every one of them resolves against /debug/traces/{id}.
// The default 0.0.4 scrape stays exemplar-free.
func TestStageExemplarsResolve(t *testing.T) {
	tracer := obs.New(obs.Config{Service: "exemplar"})
	s := newTestServer(t, Config{Tracer: tracer})
	if rec := post(t, s, "/v1/partition", firBody()); rec.Code != http.StatusOK {
		t.Fatalf("partition: %d", rec.Code)
	}

	plain := get(t, s, "/metrics")
	if strings.Contains(plain.Body.String(), "# {trace_id=") || strings.Contains(plain.Body.String(), "# EOF") {
		t.Fatal("default 0.0.4 scrape leaked OpenMetrics syntax")
	}
	if !strings.Contains(plain.Body.String(), "# TYPE hservd_stage_duration_seconds histogram") {
		t.Fatal("stage histograms missing from the default scrape")
	}

	om := getAccept(t, s, "/metrics", "application/openmetrics-text")
	if ct := om.Header().Get("Content-Type"); !strings.Contains(ct, "application/openmetrics-text") {
		t.Fatalf("OpenMetrics Content-Type %q", ct)
	}
	text := om.Body.String()
	if !strings.HasSuffix(text, "# EOF\n") {
		t.Fatal("OpenMetrics scrape lacks the # EOF terminator")
	}
	ids := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if !strings.Contains(line, "hservd_stage_duration_seconds_bucket") {
			continue
		}
		if m := exemplarRe.FindStringSubmatch(line); m != nil {
			ids[m[1]] = true
		}
	}
	if len(ids) == 0 {
		t.Fatal("no exemplars on the stage histograms after a traced request")
	}
	for id := range ids {
		if rec := get(t, s, "/debug/traces/"+id); rec.Code != http.StatusOK {
			t.Errorf("exemplar trace %s does not resolve: %d", id, rec.Code)
		}
	}
}

// slowSrc is a source workload whose profiling run executes about 20M
// interpreter steps, so its cache miss is slow by construction: it
// outlasts a cache hit of the same request by orders of magnitude, GC
// pauses and scheduling noise included.
const slowSrc = `int main_fn() {
    int i; int s;
    s = 0;
    for (i = 0; i < 3000000; i++) { s = s ^ (i + 3); }
    return s;
}`

// TestTailSamplingUnderHTTPLoad: with tail sampling armed and the sampled
// ring under flood pressure, the forced-error and the forced-slow trace
// stay retrievable while unremarkable hits are sampled out.
func TestTailSamplingUnderHTTPLoad(t *testing.T) {
	tracer := obs.New(obs.Config{Service: "tail", RingSize: 2, KeepSlow: 1, SampleRate: 0.001})
	s := newTestServer(t, Config{Tracer: tracer})

	// The cache miss is the slow trace for /v1/partition: its profiling run
	// alone is orders of magnitude over a hit.
	body := fmt.Sprintf(firReq, slowSrc)
	slow := post(t, s, "/v1/partition", body)
	if slow.Code != http.StatusOK {
		t.Fatalf("miss: %d", slow.Code)
	}
	slowID := slow.Header().Get("X-Trace-Id")

	errRec := post(t, s, "/v1/partition", "{")
	if errRec.Code != http.StatusBadRequest {
		t.Fatalf("malformed body: %d", errRec.Code)
	}
	errID := errRec.Header().Get("X-Trace-Id")

	for i := 0; i < 40; i++ { // cache hits flooding the sampled ring
		if rec := post(t, s, "/v1/partition", body); rec.Code != http.StatusOK {
			t.Fatalf("hit %d: %d", i, rec.Code)
		}
	}

	for _, id := range []string{slowID, errID} {
		if rec := get(t, s, "/debug/traces/"+id); rec.Code != http.StatusOK {
			t.Fatalf("protected trace %s evicted under ring pressure: %d", id, rec.Code)
		}
	}

	var st StatsJSON
	if err := json.Unmarshal(get(t, s, "/debug/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Traces.KeptError < 1 || st.Traces.KeptSlow < 1 {
		t.Fatalf("policy counters did not move: %+v", st.Traces)
	}
	if st.Traces.SampledOut < 1 {
		t.Fatalf("no flood trace was sampled out: %+v", st.Traces)
	}

	fams := parsePromText(t, get(t, s, "/metrics").Body.String())
	ret := fams["hservd_trace_retention_total"]
	if ret == nil || ret.typ != "counter" {
		t.Fatal("hservd_trace_retention_total missing or mistyped")
	}
	if got := ret.value(t, map[string]string{"policy": "kept_error"}); got < 1 {
		t.Errorf("kept_error on /metrics: %v", got)
	}
	if got := ret.value(t, map[string]string{"policy": "sampled_out"}); got < 1 {
		t.Errorf("sampled_out on /metrics: %v", got)
	}

	// The error trace advertises itself in the list.
	var list TraceListJSON
	if err := json.Unmarshal(get(t, s, "/debug/traces").Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range list.Traces {
		if row.TraceID == errID && row.Error {
			found = true
		}
	}
	if !found {
		t.Fatal("error trace not flagged in /debug/traces")
	}
}

// TestTraceListFilters: ?endpoint= and ?min_ms= narrow the list, and a
// malformed min_ms is a 400.
func TestTraceListFilters(t *testing.T) {
	tracer := obs.New(obs.Config{Service: "filters"})
	s := newTestServer(t, Config{Tracer: tracer})
	if rec := post(t, s, "/v1/partition", firBody()); rec.Code != http.StatusOK {
		t.Fatalf("partition: %d", rec.Code)
	}
	if rec := get(t, s, "/v1/presets"); rec.Code != http.StatusOK {
		t.Fatalf("presets: %d", rec.Code)
	}

	decode := func(rec *httptest.ResponseRecorder) TraceListJSON {
		t.Helper()
		if rec.Code != http.StatusOK {
			t.Fatalf("list: %d: %s", rec.Code, rec.Body.String())
		}
		var list TraceListJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
			t.Fatal(err)
		}
		return list
	}

	all := decode(get(t, s, "/debug/traces"))
	if len(all.Traces) != 2 {
		t.Fatalf("unfiltered list has %d rows, want 2", len(all.Traces))
	}

	part := decode(get(t, s, "/debug/traces?endpoint=/v1/partition"))
	if len(part.Traces) != 1 || part.Traces[0].Endpoint != "/v1/partition" {
		t.Fatalf("endpoint filter: %+v", part.Traces)
	}

	if got := decode(get(t, s, "/debug/traces?min_ms=0")); len(got.Traces) != 2 {
		t.Fatalf("min_ms=0 dropped rows: %d", len(got.Traces))
	}
	if got := decode(get(t, s, "/debug/traces?min_ms=3600000")); len(got.Traces) != 0 {
		t.Fatalf("min_ms=1h kept rows: %+v", got.Traces)
	}
	// Both filters together: the partition miss takes well over a
	// microsecond; the presets read is irrelevant to the endpoint filter.
	both := decode(get(t, s, "/debug/traces?endpoint=/v1/partition&min_ms=0.001"))
	if len(both.Traces) != 1 {
		t.Fatalf("combined filters: %+v", both.Traces)
	}

	if rec := get(t, s, "/debug/traces?min_ms=soon"); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed min_ms: %d, want 400", rec.Code)
	}
	if rec := get(t, s, "/debug/traces?min_ms=-1"); rec.Code != http.StatusBadRequest {
		t.Fatalf("negative min_ms: %d, want 400", rec.Code)
	}
}

// TestTelemetryEndpoint: with a collection interval configured the server
// serves its runtime time series as JSON and as gauges on /metrics;
// without one the endpoint 404s.
func TestTelemetryEndpoint(t *testing.T) {
	s := newTestServer(t, Config{TelemetryInterval: 5 * time.Millisecond})
	t.Cleanup(s.Close)

	rec := get(t, s, "/debug/telemetry")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/telemetry: %d", rec.Code)
	}
	var tel TelemetryJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &tel); err != nil {
		t.Fatal(err)
	}
	if tel.IntervalMs != 5 || tel.Capacity <= 0 {
		t.Fatalf("telemetry config: %+v", tel)
	}
	if len(tel.Samples) < 1 {
		t.Fatal("no samples despite the immediate first sample on Start")
	}
	last := tel.Samples[len(tel.Samples)-1]
	if last.HeapBytes == 0 || last.Goroutines == 0 || last.UnixMs == 0 {
		t.Fatalf("runtime metrics not populated: %+v", last)
	}
	if last.Counters == nil {
		t.Fatal("service-counter deltas missing from the sample")
	}
	for _, key := range []string{"requests", "errors", "cache_hits", "cache_misses"} {
		if _, ok := last.Counters[key]; !ok {
			t.Errorf("counter %q missing: %v", key, last.Counters)
		}
	}

	fams := parsePromText(t, get(t, s, "/metrics").Body.String())
	for name, typ := range map[string]string{
		"hservd_runtime_heap_bytes":           "gauge",
		"hservd_runtime_goroutines":           "gauge",
		"hservd_runtime_gc_cycles_total":      "counter",
		"hservd_telemetry_samples":            "gauge",
		"hservd_runtime_gc_pause_p99_seconds": "gauge",
	} {
		f := fams[name]
		if f == nil {
			t.Errorf("family %s missing from /metrics", name)
			continue
		}
		if f.typ != typ {
			t.Errorf("%s type %q, want %q", name, f.typ, typ)
		}
	}
	if got := fams["hservd_runtime_heap_bytes"].value(t, nil); got <= 0 {
		t.Errorf("heap bytes gauge: %v", got)
	}

	s.Close() // idempotent with the cleanup's Close

	disabled := newTestServer(t, Config{})
	if rec := get(t, disabled, "/debug/telemetry"); rec.Code != http.StatusNotFound {
		t.Fatalf("telemetry disabled: %d, want 404", rec.Code)
	}
}

// TestFleetHealth: /debug/fleet on a two-replica fleet merges both
// replicas' stats and telemetry into one document, with the serving
// replica marked self.
func TestFleetHealth(t *testing.T) {
	n := 2
	swaps := make([]*swapHandler, n)
	urls := make([]string, n)
	for i := range swaps {
		swaps[i] = &swapHandler{}
		ts := httptest.NewServer(swaps[i])
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	servers := make([]*Server, n)
	for i := range servers {
		servers[i] = New(Config{
			Self:              urls[i],
			Peers:             urls,
			Tracer:            obs.New(obs.Config{Service: urls[i]}),
			TelemetryInterval: 5 * time.Millisecond,
		})
		t.Cleanup(servers[i].Close)
		swaps[i].h.Store(servers[i])
	}

	resp, err := http.Get(urls[0] + "/debug/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/fleet: %d", resp.StatusCode)
	}
	var fleet FleetJSON
	if err := json.NewDecoder(resp.Body).Decode(&fleet); err != nil {
		t.Fatal(err)
	}
	if fleet.Self != cluster.NormalizeNode(urls[0]) {
		t.Fatalf("self %q, want %q", fleet.Self, urls[0])
	}
	if len(fleet.Replicas) != 2 || fleet.Healthy != 2 || fleet.Unhealthy != 0 {
		t.Fatalf("fleet shape: %+v", fleet)
	}
	for i, row := range fleet.Replicas {
		if row.Stats == nil {
			t.Fatalf("replica %s has no stats", row.Replica)
		}
		if row.Telemetry == nil || row.Telemetry.HeapBytes == 0 {
			t.Fatalf("replica %s has no telemetry sample", row.Replica)
		}
		if (i == 0) != row.Self {
			t.Fatalf("self flag misplaced: %+v", fleet.Replicas)
		}
	}
	if fleet.Replicas[1].Replica != cluster.NormalizeNode(urls[1]) {
		t.Fatalf("peer row %q, want %q", fleet.Replicas[1].Replica, urls[1])
	}
}

// TestFleetHealthDeadPeer: an unreachable peer is reported unhealthy with
// its error inline; the document still renders.
func TestFleetHealthDeadPeer(t *testing.T) {
	self := "http://127.0.0.1:1"
	dead := "http://127.0.0.1:9"
	s := newTestServer(t, Config{Self: self, Peers: []string{self, dead}})

	var fleet FleetJSON
	if err := json.Unmarshal(get(t, s, "/debug/fleet").Body.Bytes(), &fleet); err != nil {
		t.Fatal(err)
	}
	if fleet.Healthy != 1 || fleet.Unhealthy != 1 {
		t.Fatalf("fleet counts: %+v", fleet)
	}
	if !fleet.Replicas[0].Self || !fleet.Replicas[0].Healthy {
		t.Fatalf("self row: %+v", fleet.Replicas[0])
	}
	if fleet.Replicas[1].Healthy || fleet.Replicas[1].Error == "" {
		t.Fatalf("dead peer row: %+v", fleet.Replicas[1])
	}
	if fleet.Replicas[1].Stats != nil {
		t.Fatalf("dead peer has stats: %+v", fleet.Replicas[1])
	}
}

// TestFleetHealthSolo: outside fleet mode the document holds exactly this
// process.
func TestFleetHealthSolo(t *testing.T) {
	s := newTestServer(t, Config{})
	var fleet FleetJSON
	if err := json.Unmarshal(get(t, s, "/debug/fleet").Body.Bytes(), &fleet); err != nil {
		t.Fatal(err)
	}
	if len(fleet.Replicas) != 1 || fleet.Healthy != 1 || !fleet.Replicas[0].Self {
		t.Fatalf("solo fleet: %+v", fleet)
	}
	if fleet.Replicas[0].Stats == nil {
		t.Fatal("solo replica has no stats")
	}
	if fleet.Replicas[0].Telemetry != nil {
		t.Fatal("telemetry reported without a collector")
	}
}
