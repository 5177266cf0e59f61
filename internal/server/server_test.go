package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"hybridpart"
	"hybridpart/internal/apps"
)

// firSrc is a small FIR filter in the mini-C subset: cheap to compile and
// profile, so handler tests stay fast.
const firSrc = `
const int N = 128;
int TAPS[16] = {1, 2, 3, 4, 5, 6, 7, 8, 8, 7, 6, 5, 4, 3, 2, 1};
int INPUT[N];
int OUTPUT[N];
void prep() {
    int i;
    for (i = 0; i < N; i++) { INPUT[i] = (i * 13 + 5) & 127; }
}
int main_fn() {
    int n;
    int k;
    prep();
    for (n = 16; n < N; n++) {
        int acc = 0;
        for (k = 0; k < 16; k++) { acc += TAPS[k] * INPUT[n - k]; }
        OUTPUT[n] = acc >> 6;
    }
    return OUTPUT[N - 1];
}
`

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	return New(cfg)
}

// post serves one POST with the given JSON body directly through the
// handler (no network), returning the recorder.
func post(t *testing.T, s *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	return postCtx(t, s, path, body, context.Background(), nil)
}

func postCtx(t *testing.T, s *Server, path, body string, ctx context.Context, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// intList renders "1,2,...,n" for building large-axis request bodies.
func intList(n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = fmt.Sprint(i + 1)
	}
	return strings.Join(parts, ",")
}

const firReq = `{"source": ` + "%q" + `, "entry": "main_fn", "constraint": 9000}`

func firBody() string { return fmt.Sprintf(firReq, firSrc) }

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := get(t, s, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	// Golden body: the liveness probe contract.
	if got := rec.Body.String(); got != "{\"status\":\"ok\"}\n" {
		t.Fatalf("healthz body %q", got)
	}
}

func TestPresets(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := get(t, s, "/v1/presets")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var presets []PresetJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &presets); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, p := range presets {
		names[p.Name] = true
		if p.Summary == "" {
			t.Fatalf("preset %q has no summary", p.Name)
		}
	}
	for _, want := range []string{"default", "paper-small", "paper-large", "dsp-rich", "lut-only"} {
		if !names[want] {
			t.Fatalf("preset %q missing from %v", want, names)
		}
	}
}

// TestPartitionParity is the tentpole acceptance test: a /v1/partition
// response must be byte-identical to the library path for the same inputs.
func TestPartitionParity(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := post(t, s, "/v1/partition", firBody())
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}

	// The library path: same workload, same knobs, canonical encoding.
	w, err := hybridpart.NewWorkload(firSrc, "main_fn")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	opts := hybridpart.DefaultOptions()
	opts.Constraint = 9000
	// The service's default objective for plain requests is the simulated
	// one (see applyDefaultObjective); mirror it on the library side.
	opts.Objective = hybridpart.ObjectiveSimulated
	eng, err := hybridpart.NewEngine(hybridpart.WithOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Partition(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Body.String(); got != string(want) {
		t.Fatalf("service response diverges from library path:\n got: %s\nwant: %s", got, want)
	}

	// Decoded sanity: the run consulted the simulator and reported under
	// the service's default objective.
	var rj ResultJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &rj); err != nil {
		t.Fatal(err)
	}
	if rj.InitialCycles == 0 || rj.Objective != "sim" || rj.SimulatedCycles == 0 {
		t.Fatalf("implausible result: %+v", rj)
	}
}

func TestPartitionCacheHit(t *testing.T) {
	s := newTestServer(t, Config{})
	first := post(t, s, "/v1/partition", firBody())
	if first.Code != http.StatusOK || first.Header().Get("X-Cache") != "miss" {
		t.Fatalf("first request: status %d, X-Cache %q", first.Code, first.Header().Get("X-Cache"))
	}
	second := post(t, s, "/v1/partition", firBody())
	if second.Code != http.StatusOK || second.Header().Get("X-Cache") != "hit" {
		t.Fatalf("second request: status %d, X-Cache %q", second.Code, second.Header().Get("X-Cache"))
	}
	if first.Body.String() != second.Body.String() {
		t.Fatal("cache hit served different bytes than the miss")
	}
	if st := s.CacheStats(); st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Fatalf("cache stats: %+v", st)
	}

	// A different knob set is a different content address.
	other := strings.Replace(firBody(), "9000", "8500", 1)
	third := post(t, s, "/v1/partition", other)
	if third.Code != http.StatusOK || third.Header().Get("X-Cache") != "miss" {
		t.Fatalf("changed options still hit: status %d, X-Cache %q", third.Code, third.Header().Get("X-Cache"))
	}
}

func TestPartitionBadRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		name string
		path string
		body string
		want int
	}{
		{"malformed-json", "/v1/partition", "{nope", http.StatusBadRequest},
		{"empty", "/v1/partition", "{}", http.StatusBadRequest},
		{"both-workloads", "/v1/partition", `{"benchmark":"ofdm","source":"int f(){return 0;}"}`, http.StatusBadRequest},
		{"unknown-field", "/v1/partition", `{"benchmark":"ofdm","bogus":1}`, http.StatusBadRequest},
		{"args-with-benchmark", "/v1/partition", `{"benchmark":"ofdm","args":[1]}`, http.StatusBadRequest},
		{"preset-and-options", "/v1/partition", `{"benchmark":"ofdm","preset":"dsp-rich","options":{}}`, http.StatusBadRequest},
		{"negative-constraint", "/v1/partition", `{"benchmark":"ofdm","constraint":-5}`, http.StatusBadRequest},
		{"budget-on-partition", "/v1/partition", `{"benchmark":"ofdm","energy_budget":5}`, http.StatusBadRequest},
		{"no-budget-on-energy", "/v1/partition-energy", `{"benchmark":"ofdm"}`, http.StatusBadRequest},
		{"unknown-benchmark", "/v1/partition", `{"benchmark":"mp3"}`, http.StatusNotFound},
		{"unknown-preset", "/v1/partition", `{"benchmark":"ofdm","preset":"asic"}`, http.StatusNotFound},
		{"sweep-malformed", "/v1/sweep", "[1,2", http.StatusBadRequest},
		{"sweep-no-benchmarks", "/v1/sweep", `{}`, http.StatusBadRequest},
		{"sweep-unknown-benchmark", "/v1/sweep", `{"benchmarks":["mp3"]}`, http.StatusNotFound},
		{"sweep-unknown-preset", "/v1/sweep", `{"benchmarks":["ofdm"],"presets":["asic"]}`, http.StatusNotFound},
		{"sweep-grid-too-large", "/v1/sweep",
			fmt.Sprintf(`{"benchmarks":["ofdm"],"areas":[%s],"cgcs":[%s],"constraints":[%s]}`,
				intList(100), intList(100), intList(100)), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(t, s, tc.path, tc.body)
			if rec.Code != tc.want {
				t.Fatalf("status %d, want %d (body %s)", rec.Code, tc.want, rec.Body)
			}
			var e ErrorJSON
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("error body not ErrorJSON: %s", rec.Body)
			}
		})
	}
	// Source that does not compile is the client's workload problem: 422.
	rec := post(t, s, "/v1/partition", `{"source":"not C at all"}`)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("uncompilable source: status %d, want 422", rec.Code)
	}
	// A flattened block over the compile-time cap is a request over a
	// size limit, like an oversized body: 400, naming the block.
	huge := "int main_fn() { int s = 1; " + strings.Repeat("s += 3; ", hybridpart.MaxBlockInstrs) + "return s; }"
	body, err := json.Marshal(map[string]any{"source": huge, "objective": "model"})
	if err != nil {
		t.Fatal(err)
	}
	rec = post(t, s, "/v1/partition", string(body))
	var e ErrorJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusBadRequest ||
		!strings.Contains(e.Error, "block 0 (entry) of main_fn") {
		t.Fatalf("block over the cap: status %d, body %s; want 400 naming block 0", rec.Code, rec.Body)
	}
}

// TestBodyCap: every POST decoder reads at most maxBodyBytes. A body one
// byte over the cap is a 413; a body of exactly the cap still decodes (its
// unknown benchmark is the 404 that proves the decoder saw the object).
func TestBodyCap(t *testing.T) {
	s := newTestServer(t, Config{})
	padded := func(obj string, size int) string {
		return strings.Repeat(" ", size-len(obj)) + obj
	}
	cases := []struct{ path, obj string }{
		{"/v1/partition", `{"benchmark":"mp3"}`},
		{"/v1/partition-energy", `{"benchmark":"mp3","energy_budget":5}`},
		{"/v1/simulate", `{"benchmark":"mp3"}`},
		{"/v1/sweep", `{"benchmarks":["mp3"]}`},
	}
	for _, tc := range cases {
		t.Run(strings.TrimPrefix(tc.path, "/v1/"), func(t *testing.T) {
			rec := post(t, s, tc.path, padded(tc.obj, maxBodyBytes+1))
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("cap+1 bytes: status %d, want 413 (body %s)", rec.Code, rec.Body)
			}
			var e ErrorJSON
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "exceeds") {
				t.Fatalf("413 body not a size ErrorJSON: %s", rec.Body)
			}
			if rec := post(t, s, tc.path, padded(tc.obj, maxBodyBytes)); rec.Code != http.StatusNotFound {
				t.Fatalf("cap bytes: status %d, want 404 (body %s)", rec.Code, rec.Body)
			}
		})
	}
}

// TestTrailingBody: every POST decoder takes one JSON value as the whole
// body. Trailing garbage or a second object after it is a 400 before the
// request is looked at; trailing whitespace is fine (the unknown benchmark
// is the 404 that proves the decoder saw the object), up to the body cap.
func TestTrailingBody(t *testing.T) {
	s := newTestServer(t, Config{})
	const ofdm = `{"benchmark":"ofdm","seed":1,"constraint":60000}`
	for _, body := range []string{ofdm + ` trailing garbage`, ofdm + ofdm, ofdm + "\n}"} {
		if rec := post(t, s, "/v1/partition", body); rec.Code != http.StatusBadRequest ||
			!strings.Contains(rec.Body.String(), "data after the JSON value") {
			t.Fatalf("%q: status %d, body %s; want 400 naming the trailing data", body, rec.Code, rec.Body)
		}
	}
	cases := []struct{ path, obj string }{
		{"/v1/partition", `{"benchmark":"mp3"}`},
		{"/v1/partition-energy", `{"benchmark":"mp3","energy_budget":5}`},
		{"/v1/simulate", `{"benchmark":"mp3"}`},
		{"/v1/sweep", `{"benchmarks":["mp3"]}`},
	}
	for _, tc := range cases {
		t.Run(strings.TrimPrefix(tc.path, "/v1/"), func(t *testing.T) {
			for _, tail := range []string{` trailing garbage`, tc.obj, `[]`, `0`} {
				if rec := post(t, s, tc.path, tc.obj+tail); rec.Code != http.StatusBadRequest {
					t.Fatalf("tail %q: status %d, want 400 (body %s)", tail, rec.Code, rec.Body)
				}
			}
			if rec := post(t, s, tc.path, tc.obj+" \n\t\r"); rec.Code != http.StatusNotFound {
				t.Fatalf("trailing whitespace: status %d, want 404 (body %s)", rec.Code, rec.Body)
			}
			padded := tc.obj + strings.Repeat(" ", maxBodyBytes+1-len(tc.obj))
			if rec := post(t, s, tc.path, padded); rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("whitespace past the cap: status %d, want 413 (body %s)", rec.Code, rec.Body)
			}
		})
	}
}

// TestPartitionCancellation covers the 499 path: a request whose context is
// already dead reaches the engine, which aborts with context.Canceled; the
// failed run must not poison the cache.
func TestPartitionCancellation(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := postCtx(t, s, "/v1/partition", firBody(), ctx, nil)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("status %d, want 499 (body %s)", rec.Code, rec.Body)
	}
	if st := s.CacheStats(); st.Size != 0 {
		t.Fatalf("cancelled run was cached: %+v", st)
	}
	// The same request on a live context recomputes and succeeds.
	rec = post(t, s, "/v1/partition", firBody())
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "miss" {
		t.Fatalf("retry after cancellation: status %d, X-Cache %q", rec.Code, rec.Header().Get("X-Cache"))
	}
}

func TestPartitionTimeout(t *testing.T) {
	s := newTestServer(t, Config{Timeout: time.Nanosecond})
	rec := post(t, s, "/v1/partition", firBody())
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %s)", rec.Code, rec.Body)
	}
}

// TestPartitionTimeoutStopsRunawaySource: a client program that never
// terminates is abandoned at the request deadline. The interpreter polls
// the request context, so the POST answers 504 promptly instead of holding
// a CPU until the interpreter's step limit (seconds later).
func TestPartitionTimeoutStopsRunawaySource(t *testing.T) {
	s := newTestServer(t, Config{Timeout: 50 * time.Millisecond})
	spin := `int main_fn() { int x; x = 0; while (1) { x = x + 1; } return x; }`
	start := time.Now()
	rec := post(t, s, "/v1/partition", fmt.Sprintf(`{"source": %q, "entry": "main_fn", "constraint": 9000}`, spin))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %s)", rec.Code, rec.Body)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("runaway source held the request for %v after a 50ms deadline", d)
	}
}

// TestSingleflight is the coalescing acceptance test: 50 concurrent
// identical requests must trigger exactly one engine run, and every client
// sees the same bytes. Run under -race this doubles as the
// concurrent-clients test.
func TestSingleflight(t *testing.T) {
	s := newTestServer(t, Config{})
	const n = 50
	var wg sync.WaitGroup
	start := make(chan struct{})
	bodies := make([]string, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			rec := post(t, s, "/v1/partition", firBody())
			bodies[i], codes[i] = rec.Body.String(), rec.Code
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d: status %d", i, codes[i])
		}
		if bodies[i] != bodies[0] {
			t.Fatalf("client %d saw different bytes", i)
		}
	}
	st := s.CacheStats()
	if st.Misses != 1 {
		t.Fatalf("%d engine runs for 50 identical requests, want 1 (stats %+v)", st.Misses, st)
	}
	if st.Hits+st.Coalesced != n-1 {
		t.Fatalf("hits(%d)+coalesced(%d) != %d", st.Hits, st.Coalesced, n-1)
	}
}

func TestPartitionEnergy(t *testing.T) {
	s := newTestServer(t, Config{})
	body := fmt.Sprintf(`{"source": %q, "entry": "main_fn", "energy_budget": 1e12}`, firSrc)
	rec := post(t, s, "/v1/partition-energy", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var rj hybridpart.EnergyResult
	if err := json.Unmarshal(rec.Body.Bytes(), &rj); err != nil {
		t.Fatal(err)
	}
	if rj.InitialEnergy <= 0 || rj.Budget != 1e12 {
		t.Fatalf("implausible energy result: %+v", rj)
	}
	// Identical energy request: served from cache.
	if rec := post(t, s, "/v1/partition-energy", body); rec.Header().Get("X-Cache") != "hit" {
		t.Fatalf("energy result not cached: X-Cache %q", rec.Header().Get("X-Cache"))
	}
	// Energy runs never read the constraint, so an override carrying a
	// zero one is a valid knob set.
	o := hybridpart.DefaultOptions()
	o.Constraint = 0
	raw, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	rec = post(t, s, "/v1/partition-energy",
		fmt.Sprintf(`{"source": %q, "options": %s, "energy_budget": 1e12}`, firSrc, raw))
	if rec.Code != http.StatusOK {
		t.Fatalf("zero-constraint energy override: status %d: %s", rec.Code, rec.Body)
	}
}

func TestSweepJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	s := newTestServer(t, Config{})
	rec := post(t, s, "/v1/sweep", `{"benchmarks":["ofdm"],"constraints":[60000,65000],"seed":1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var rs hybridpart.SweepResult
	if err := json.Unmarshal(rec.Body.Bytes(), &rs); err != nil {
		t.Fatal(err)
	}
	if len(rs.Outcomes) != 2 || rs.Partial {
		t.Fatalf("sweep result: %d outcomes, partial=%v", len(rs.Outcomes), rs.Partial)
	}
	for _, o := range rs.Outcomes {
		if o.Failed() {
			t.Fatalf("cell %d failed: %s", o.Index, o.Err)
		}
	}
}

// TestSweepWorkersClamp: a client cannot request a pool larger than the
// operator's -workers bound; the effective spec is echoed in the result.
func TestSweepWorkersClamp(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	s := newTestServer(t, Config{Workers: 2})
	rec := post(t, s, "/v1/sweep", `{"benchmarks":["ofdm"],"constraints":[60000],"seed":1,"workers":64}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var rs hybridpart.SweepResult
	if err := json.Unmarshal(rec.Body.Bytes(), &rs); err != nil {
		t.Fatal(err)
	}
	if rs.Spec.Workers != 2 {
		t.Fatalf("client worker request not clamped: pool=%d, want 2", rs.Spec.Workers)
	}
}

func TestSweepSSE(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	s := newTestServer(t, Config{})
	// A realistic list-form Accept header must still select streaming.
	rec := postCtx(t, s, "/v1/sweep", `{"benchmarks":["ofdm"],"constraints":[60000,65000],"seed":1}`,
		context.Background(), map[string]string{"Accept": "text/event-stream, */*"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	body := rec.Body.String()
	if got := strings.Count(body, "event: cell\n"); got != 2 {
		t.Fatalf("want 2 cell frames, got %d:\n%s", got, body)
	}
	if !strings.Contains(body, "event: result\n") {
		t.Fatalf("missing terminal result frame:\n%s", body)
	}
	// The terminal frame carries the same ResultSet the JSON path returns.
	idx := strings.Index(body, "event: result\ndata: ")
	payload := body[idx+len("event: result\ndata: "):]
	payload = payload[:strings.Index(payload, "\n")]
	var rs hybridpart.SweepResult
	if err := json.Unmarshal([]byte(payload), &rs); err != nil {
		t.Fatal(err)
	}
	if len(rs.Outcomes) != 2 {
		t.Fatalf("terminal frame has %d outcomes", len(rs.Outcomes))
	}
}

func TestStatsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	post(t, s, "/v1/partition", firBody())
	post(t, s, "/v1/partition", firBody())
	post(t, s, "/v1/partition", "{nope")
	rec := get(t, s, "/debug/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var st StatsJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	ep, ok := st.Endpoints["/v1/partition"]
	if !ok {
		t.Fatalf("no /v1/partition row: %+v", st.Endpoints)
	}
	if ep.Requests != 3 || ep.Errors != 1 || ep.CacheHits != 1 || ep.CacheMisses != 1 {
		t.Fatalf("partition endpoint stats: %+v", ep)
	}
	if ep.AvgLatencyMicros < 0 || ep.MaxLatencyMicros < ep.AvgLatencyMicros {
		t.Fatalf("latency accounting broken: %+v", ep)
	}
	if st.Cache.Capacity != 256 {
		t.Fatalf("cache stats: %+v", st.Cache)
	}
}

// TestCacheHitSpeedup demonstrates the acceptance criterion: a repeated
// identical request is served from cache at least 10x faster than the
// compile+profile+partition miss path.
func TestCacheHitSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	s := newTestServer(t, Config{})
	body := `{"benchmark":"ofdm","seed":7,"constraint":60000}`

	missStart := time.Now()
	if rec := post(t, s, "/v1/partition", body); rec.Code != http.StatusOK {
		t.Fatalf("miss: status %d: %s", rec.Code, rec.Body)
	}
	miss := time.Since(missStart)

	const hits = 20
	hitStart := time.Now()
	for i := 0; i < hits; i++ {
		if rec := post(t, s, "/v1/partition", body); rec.Header().Get("X-Cache") != "hit" {
			t.Fatalf("request %d was not a cache hit", i)
		}
	}
	hit := time.Since(hitStart) / hits

	if hit*10 > miss {
		t.Fatalf("hit path not >=10x faster: miss=%v hit=%v", miss, hit)
	}
	t.Logf("miss=%v hit=%v (%.0fx)", miss, hit, float64(miss)/float64(hit))
}

// TestSimulateParity pins POST /v1/simulate to the library: the response
// bytes are exactly Marshal of Engine.Simulate's report for the
// same workload and knobs — miss and hit alike.
func TestSimulateParity(t *testing.T) {
	s := newTestServer(t, Config{})
	body := `{"benchmark":"ofdm","seed":1,"constraint":60000,"frames":4,"ports":2,"prefetch":true}`
	miss := post(t, s, "/v1/simulate", body)
	if miss.Code != http.StatusOK {
		t.Fatalf("miss: status %d: %s", miss.Code, miss.Body)
	}
	if got := miss.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("first request X-Cache %q, want miss", got)
	}
	hit := post(t, s, "/v1/simulate", body)
	if hit.Code != http.StatusOK || hit.Header().Get("X-Cache") != "hit" {
		t.Fatalf("repeat: status %d, X-Cache %q", hit.Code, hit.Header().Get("X-Cache"))
	}
	if hit.Body.String() != miss.Body.String() {
		t.Fatal("cache hit bytes differ from the miss")
	}

	app, prof, err := hybridpart.ProfileBenchmarkCached("ofdm", 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := hybridpart.NewEngine(hybridpart.WithConstraint(60000),
		hybridpart.WithSimFrames(4), hybridpart.WithSimPorts(2), hybridpart.WithSimPrefetch(true))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.SimulateProfiled(context.Background(), app, prof)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if miss.Body.String() != string(want) {
		t.Fatalf("service bytes != library bytes:\n%s\n%s", miss.Body, want)
	}

	var wire hybridpart.SimReport
	if err := json.Unmarshal(miss.Body.Bytes(), &wire); err != nil {
		t.Fatal(err)
	}
	if wire.Frames != 4 || wire.Ports != 2 || !wire.Prefetch {
		t.Fatalf("knobs not echoed: %+v", wire)
	}
	if wire.TotalCycles <= 0 || wire.BaselineCycles <= wire.TotalCycles {
		t.Fatalf("implausible cycles: %+v", wire)
	}
}

// TestSimulateExactDefaultKnobs checks the wire-level validation verdict on
// the model's own operating point (single frame, one port, no prefetch).
func TestSimulateExactDefaultKnobs(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := post(t, s, "/v1/simulate", `{"benchmark":"ofdm","seed":1,"constraint":60000}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var wire hybridpart.SimReport
	if err := json.Unmarshal(rec.Body.Bytes(), &wire); err != nil {
		t.Fatal(err)
	}
	if !wire.Validation.Exact {
		t.Fatalf("default-knob simulation not exact: %+v", wire.Validation)
	}
	if wire.Validation.SimFinalCycles != wire.Validation.ModelFinalCycles {
		t.Fatalf("final cycles diverge: %+v", wire.Validation)
	}
}

// TestSimulateKeySeparation: a simulate result must never be served for a
// partition request on the same workload, and knob changes miss the cache.
func TestSimulateKeySeparation(t *testing.T) {
	s := newTestServer(t, Config{})
	if rec := post(t, s, "/v1/simulate", `{"benchmark":"ofdm","constraint":60000}`); rec.Code != http.StatusOK {
		t.Fatalf("simulate: %d %s", rec.Code, rec.Body)
	}
	rec := post(t, s, "/v1/partition", `{"benchmark":"ofdm","constraint":60000}`)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "miss" {
		t.Fatalf("partition after simulate: status %d, X-Cache %q (keys collided?)",
			rec.Code, rec.Header().Get("X-Cache"))
	}
	rec = post(t, s, "/v1/simulate", `{"benchmark":"ofdm","constraint":60000,"frames":2}`)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "miss" {
		t.Fatalf("knob change served from cache: status %d, X-Cache %q",
			rec.Code, rec.Header().Get("X-Cache"))
	}
	// Zero knobs are documented as equivalent to 1/1: the explicit form
	// must hit the entry the implicit form stored.
	rec = post(t, s, "/v1/simulate", `{"benchmark":"ofdm","constraint":60000,"frames":1,"ports":1}`)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" {
		t.Fatalf("equivalent knobs missed the cache: status %d, X-Cache %q",
			rec.Code, rec.Header().Get("X-Cache"))
	}
}

func TestSimulateBadRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed-json", "{nope", http.StatusBadRequest},
		{"empty", "{}", http.StatusBadRequest},
		{"both-workloads", `{"benchmark":"ofdm","source":"int f(){return 0;}"}`, http.StatusBadRequest},
		{"unknown-field", `{"benchmark":"ofdm","bogus":1}`, http.StatusBadRequest},
		{"negative-frames", `{"benchmark":"ofdm","frames":-1}`, http.StatusBadRequest},
		{"frames-over-limit", `{"benchmark":"ofdm","frames":2000000000}`, http.StatusBadRequest},
		{"negative-ports", `{"benchmark":"ofdm","ports":-1}`, http.StatusBadRequest},
		{"budget-on-simulate", `{"benchmark":"ofdm","energy_budget":5}`, http.StatusBadRequest},
		{"unknown-benchmark", `{"benchmark":"mp3"}`, http.StatusNotFound},
		{"unknown-preset", `{"benchmark":"ofdm","preset":"asic"}`, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(t, s, "/v1/simulate", tc.body)
			if rec.Code != tc.want {
				t.Fatalf("status %d, want %d (body %s)", rec.Code, tc.want, rec.Body)
			}
			var e ErrorJSON
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("error body not ErrorJSON: %s", rec.Body)
			}
		})
	}
	// Source that does not compile is the client's workload problem: 422.
	if rec := post(t, s, "/v1/simulate", `{"source":"not C at all"}`); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("uncompilable source: status %d, want 422", rec.Code)
	}
}

// TestSimulateCancellation covers the 499 path and cache hygiene for the
// simulate endpoint.
func TestSimulateCancellation(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body := fmt.Sprintf(firReq, firSrc)
	rec := postCtx(t, s, "/v1/simulate", body, ctx, nil)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("status %d, want 499 (body %s)", rec.Code, rec.Body)
	}
	if st := s.CacheStats(); st.Size != 0 {
		t.Fatalf("cancelled run was cached: %+v", st)
	}
	rec = post(t, s, "/v1/simulate", body)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "miss" {
		t.Fatalf("retry after cancellation: status %d, X-Cache %q", rec.Code, rec.Header().Get("X-Cache"))
	}
}

// TestSimulateTimeout covers the 504 path for the simulate endpoint.
func TestSimulateTimeout(t *testing.T) {
	s := newTestServer(t, Config{Timeout: time.Nanosecond})
	rec := post(t, s, "/v1/simulate", fmt.Sprintf(firReq, firSrc))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %s)", rec.Code, rec.Body)
	}
}

// TestStatsProfileMemo checks that /debug/stats surfaces the benchmark
// profile memo's and the compiled-App memo's population and bound.
func TestStatsProfileMemo(t *testing.T) {
	s := newTestServer(t, Config{})
	if rec := post(t, s, "/v1/simulate", `{"benchmark":"ofdm","constraint":60000}`); rec.Code != http.StatusOK {
		t.Fatalf("simulate: %d %s", rec.Code, rec.Body)
	}
	if rec := post(t, s, "/v1/simulate", fmt.Sprintf(firReq, firSrc)); rec.Code != http.StatusOK {
		t.Fatalf("simulate source: %d %s", rec.Code, rec.Body)
	}
	rec := get(t, s, "/debug/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	var st StatsJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.BenchProfiles.Size < 1 {
		t.Fatalf("bench profile memo empty after a benchmark simulate: %+v", st.BenchProfiles)
	}
	if st.BenchProfiles.Bound <= 0 {
		t.Fatalf("bench profile memo bound missing: %+v", st.BenchProfiles)
	}
	if st.SourceApps.Size < 1 || st.SourceApps.Bound < st.SourceApps.Size {
		t.Fatalf("compiled-App memo not reported after a source simulate: %+v", st.SourceApps)
	}
	row, ok := st.Endpoints["/v1/simulate"]
	if !ok || row.Requests < 1 {
		t.Fatalf("no /v1/simulate metrics row: %+v", st.Endpoints)
	}
}

// TestPartitionSourceMemoByteIdentical posts one JPEG source and image to
// two servers with empty result caches. The first request compiles the
// source (a memo miss); the second takes the memoized App (a memo hit) and
// must answer byte-identically.
func TestPartitionSourceMemoByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping JPEG profiling in -short mode")
	}
	src, err := apps.JPEGSource()
	if err != nil {
		t.Fatal(err)
	}
	// A comment no other request carries makes the first compile a miss.
	src += fmt.Sprintf("// %s %d\n", t.Name(), time.Now().UnixNano())
	q, err := json.Marshal(src)
	if err != nil {
		t.Fatal(err)
	}
	img, err := json.Marshal(hybridpart.JPEGImage(1))
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"source":%s,"entry":%q,"constraint":21000000,"inputs":{%q:%s}}`,
		q, hybridpart.JPEGEntryFunc, hybridpart.JPEGImageArray, img)
	var bodies [2][]byte
	var held [2]*hybridpart.App // the memo's App after each request
	for i := range bodies {
		s := newTestServer(t, Config{})
		rec := post(t, s, "/v1/partition", body)
		s.Close()
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "miss" {
			t.Fatalf("request %d: status %d, X-Cache %q: %s", i, rec.Code, rec.Header().Get("X-Cache"), rec.Body)
		}
		bodies[i] = rec.Body.Bytes()
		w, err := hybridpart.NewWorkload(src, hybridpart.JPEGEntryFunc)
		if err != nil {
			t.Fatal(err)
		}
		held[i] = w.App()
	}
	if held[0] != held[1] {
		t.Fatal("the second request compiled the source again")
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("memo miss and memo hit answer differently:\n%s\n%s", bodies[0], bodies[1])
	}
}

// hitWriter is a ResponseWriter that keeps the status and body length of
// the last response and one header map it clears between requests, so an
// allocation count of ServeHTTP holds the handler's allocations only.
type hitWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *hitWriter) Header() http.Header { return w.h }
func (w *hitWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *hitWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.n += len(p)
	return len(p), nil
}

func (w *hitWriter) reset() {
	clear(w.h)
	w.code, w.n = 0, 0
}

// hitAllocCeiling bounds the heap allocations of one warm OFDM ×8 cache hit
// through ServeHTTP: the request is decoded, its options resolved and its
// key built, and the stored bytes are written out. The handler allocates 15
// times per hit (18 while the cache registered an in-flight call before
// probing its store, 107 with the reflective options fingerprint).
const hitAllocCeiling = 15

// TestPartitionHitAllocs gates the allocations of the cache hit path, the
// op that sets the service's median latency. The request and response
// writer are built outside the counted closure, which only rewinds them.
func TestPartitionHitAllocs(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	body := []byte(`{"benchmark":"ofdm","frames":8,"constraint":60000}`)
	rdr := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/partition", rdr)
	w := &hitWriter{h: http.Header{}}
	serve := func() {
		rdr.Reset(body)
		w.reset()
		s.ServeHTTP(w, req)
	}
	serve()
	if w.code != http.StatusOK || w.h.Get("X-Cache") != "miss" {
		t.Fatalf("warm-up: status %d, X-Cache %q", w.code, w.h.Get("X-Cache"))
	}
	n := testing.AllocsPerRun(50, serve)
	if w.code != http.StatusOK || w.h.Get("X-Cache") != "hit" || w.n == 0 {
		t.Fatalf("hit: status %d, X-Cache %q, %d body bytes", w.code, w.h.Get("X-Cache"), w.n)
	}
	t.Logf("%v allocations per hit", n)
	if n > hitAllocCeiling {
		t.Errorf("an OFDM ×8 cache hit allocates %v times, ceiling %d", n, hitAllocCeiling)
	}
}

// BenchmarkPartitionCacheHit measures the steady-state hit path (serving
// stored response bytes).
func BenchmarkPartitionCacheHit(b *testing.B) {
	s := New(Config{})
	body := `{"benchmark":"ofdm","seed":7,"constraint":60000}`
	warm := httptest.NewRequest(http.MethodPost, "/v1/partition", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, warm)
	if rec.Code != http.StatusOK {
		b.Fatalf("warmup failed: %d %s", rec.Code, rec.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/partition", strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatal(rec.Code)
		}
	}
}

// BenchmarkPartitionCacheMiss measures the full compile+profile+partition
// path by making every request a distinct content address: a trailing
// comment makes each iteration's source distinct, so the compiled-App memo
// never serves it and every iteration compiles.
func BenchmarkPartitionCacheMiss(b *testing.B) {
	s := New(Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := fmt.Sprintf("%s// %d\n", firSrc, i)
		body := fmt.Sprintf(`{"source": %q, "entry": "main_fn", "constraint": %d}`, src, 30000+i)
		req := httptest.NewRequest(http.MethodPost, "/v1/partition", strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatal(rec.Code)
		}
	}
}

// TestSweepSimAxesGolden is the /v1/sweep regression golden for the
// co-simulation axes: a fixed small grid returns byte-identical bodies
// across repeated runs and across worker counts, with every cell carrying
// its simulated makespan and speedup.
func TestSweepSimAxesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	s := newTestServer(t, Config{})
	body := func(workers int) string {
		return fmt.Sprintf(`{"benchmarks":["ofdm"],"frames":[1,4],"objectives":["model","sim"],"seed":1,"workers":%d}`, workers)
	}
	var golden []byte
	for i, workers := range []int{1, 4, 1} {
		rec := post(t, s, "/v1/sweep", body(workers))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		var rs hybridpart.SweepResult
		if err := json.Unmarshal(rec.Body.Bytes(), &rs); err != nil {
			t.Fatal(err)
		}
		// The echoed spec repeats the requested worker count; the data must
		// not depend on it.
		rs.Spec.Workers = 0
		norm, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			golden = norm
			if len(rs.Outcomes) != 4 {
				t.Fatalf("grid has %d cells, want 4", len(rs.Outcomes))
			}
			for _, o := range rs.Outcomes {
				if !o.Simulated || o.SimCycles == 0 || o.SimSpeedup == 0 {
					t.Fatalf("cell %d lacks simulation results: %+v", o.Index, o)
				}
			}
			// The simulated objective must beat the model objective at 4
			// frames (cells 2 and 3 of the fixed expansion order).
			if rs.Outcomes[3].SimCycles >= rs.Outcomes[2].SimCycles {
				t.Fatalf("sim objective (%d) not below model objective (%d) at 4 frames",
					rs.Outcomes[3].SimCycles, rs.Outcomes[2].SimCycles)
			}
			continue
		}
		if string(norm) != string(golden) {
			t.Fatalf("workers=%d: sweep body diverged:\n%s\nvs\n%s", workers, norm, golden)
		}
	}
}

// TestSweepSimCostCap: the grid cap accounts cells x frames (weighted for
// sim-objective cells), not cells — a small grid with a big frames axis is
// unprocessable (422) and the message names the computed cost.
func TestSweepSimCostCap(t *testing.T) {
	s := newTestServer(t, Config{})
	// 200 cells x 1024 frames = 204800 replays > the 100000 cap.
	rec := post(t, s, "/v1/sweep",
		`{"benchmarks":["ofdm"],"areas":[`+intList(200)+`],"frames":[1024],"seed":1}`)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (body %s)", rec.Code, rec.Body)
	}
	var e ErrorJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "204800") || !strings.Contains(e.Error, "limit") {
		t.Fatalf("422 message does not carry the computed cost: %q", e.Error)
	}
	// Sim-objective cells are weighted by the trajectory factor: 4 cells x
	// 1024 frames x 32 = 131072 replays, over the cap even though the same
	// grid under the model objective (4096 replays) is fine.
	rec = post(t, s, "/v1/sweep",
		`{"benchmarks":["ofdm"],"areas":[1500,2000,3000,5000],"frames":[1024],"objectives":["sim"],"seed":1}`)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("sim-objective weighting: status %d, want 422 (body %s)", rec.Code, rec.Body)
	}
	// A single frames axis value beyond the per-cell limit is malformed.
	rec = post(t, s, "/v1/sweep", `{"benchmarks":["ofdm"],"frames":[200000],"seed":1}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("per-cell frames cap: status %d, want 400 (body %s)", rec.Code, rec.Body)
	}
	// The plain cell cap stays a 400 and is checked first.
	rec = post(t, s, "/v1/sweep",
		`{"benchmarks":["ofdm"],"areas":[`+intList(400)+`],"cgcs":[`+intList(300)+`],"seed":1}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("cell-cap status %d, want 400 (body %s)", rec.Code, rec.Body)
	}
	// An unknown objective axis entry is a malformed request (spec
	// validation, shared with the library path).
	rec = post(t, s, "/v1/sweep", `{"benchmarks":["ofdm"],"objectives":["fastest"],"seed":1}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad objective status %d, want 400 (body %s)", rec.Code, rec.Body)
	}
}

// TestSweepSimSSE: a streamed sim-axis sweep carries per-cell "sim" frames
// tagged with their cell index, each run arriving right before its cell.
func TestSweepSimSSE(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	s := newTestServer(t, Config{})
	rec := postCtx(t, s, "/v1/sweep", `{"benchmarks":["ofdm"],"frames":[2],"seed":1,"workers":2}`,
		context.Background(), map[string]string{"Accept": "text/event-stream"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	body := rec.Body.String()
	if got := strings.Count(body, "event: sim\n"); got != 2 {
		t.Fatalf("want 2 sim frames (2 frames x 1 cell), got %d:\n%s", got, body)
	}
	if !strings.Contains(body, `"cell":0`) {
		t.Fatalf("sim frames not tagged with their cell:\n%s", body)
	}
	if simIdx, cellIdx := strings.Index(body, "event: sim\n"), strings.Index(body, "event: cell\n"); simIdx > cellIdx {
		t.Fatalf("sim frames must precede their cell frame:\n%s", body)
	}
}

// TestSimKnobCacheCollision is the satellite collision test: with the sim
// knobs unified into the fingerprinted Options, requests that differ only
// in one knob must occupy distinct cache entries on every endpoint.
func TestSimKnobCacheCollision(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	s := newTestServer(t, Config{})
	// The first body pins the objective explicitly: a plain /v1/partition
	// request flips to the service default ("sim") and would legitimately
	// share the fourth body's entry — TestPartitionDefaultObjective covers
	// that sharing; this test wants five distinct knob sets.
	bodies := []string{
		`{"benchmark":"ofdm","constraint":60000,"frames":4,"objective":"model"}`,
		`{"benchmark":"ofdm","constraint":60000,"frames":4,"prefetch":true,"objective":"model"}`,
		`{"benchmark":"ofdm","constraint":60000,"frames":4,"ports":2,"objective":"model"}`,
		`{"benchmark":"ofdm","constraint":60000,"frames":4,"objective":"sim"}`,
		`{"benchmark":"ofdm","constraint":60000,"frames":4,"rerank":3}`,
	}
	for _, path := range []string{"/v1/simulate", "/v1/partition"} {
		seen := map[string]string{}
		for _, body := range bodies {
			rec := post(t, s, path, body)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", path, body, rec.Code, rec.Body)
			}
			if got := rec.Header().Get("X-Cache"); got != "miss" {
				t.Fatalf("%s %s: X-Cache %q — collided with a differently-knobbed entry", path, body, got)
			}
			// The simulate wire echoes every knob, so distinct knob sets must
			// also produce distinct bodies there. (Partition results may
			// legitimately coincide — e.g. prefetch that hides zero cycles.)
			if path == "/v1/simulate" {
				if prev, dup := seen[rec.Body.String()]; dup {
					t.Fatalf("%s: %s and %s returned identical bodies", path, body, prev)
				}
				seen[rec.Body.String()] = body
			}
			// The repeat must hit its own entry.
			if rec := post(t, s, path, body); rec.Header().Get("X-Cache") != "hit" {
				t.Fatalf("%s %s: repeat missed its own entry", path, body)
			}
		}
	}
}

// TestPartitionObjectiveWire: /v1/partition surfaces the objective and the
// simulated makespan through the wire type, and the simulated objective's
// choice beats the model's on simulated makespan at 8 frames.
func TestPartitionObjectiveWire(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	s := newTestServer(t, Config{})
	decode := func(body string) ResultJSON {
		rec := post(t, s, "/v1/partition", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		var res ResultJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		return res
	}
	// The service default: a request with no objective field runs the
	// simulated objective and carries the simulated_* fields.
	plain := decode(`{"benchmark":"ofdm","constraint":60000}`)
	if plain.Objective != "sim" || plain.SimulatedCycles == 0 {
		t.Fatalf("plain partition: objective %q, simulated_cycles %d", plain.Objective, plain.SimulatedCycles)
	}
	// An explicit "model" opts out of the default and, without sim knobs,
	// never consults the simulator.
	modelPlain := decode(`{"benchmark":"ofdm","constraint":60000,"objective":"model"}`)
	if modelPlain.Objective != "model" || modelPlain.SimulatedCycles != 0 {
		t.Fatalf("explicit model partition: objective %q, simulated_cycles %d", modelPlain.Objective, modelPlain.SimulatedCycles)
	}
	model := decode(`{"benchmark":"ofdm","constraint":60000,"frames":8,"objective":"model"}`)
	if model.Objective != "model" || model.SimulatedCycles == 0 || model.SimulatedSpeedup == 0 {
		t.Fatalf("frames=8 model partition lacks simulated fields: %+v", model)
	}
	sim := decode(`{"benchmark":"ofdm","constraint":60000,"frames":8,"objective":"sim"}`)
	if sim.Objective != "sim" {
		t.Fatalf("objective not echoed: %+v", sim)
	}
	if sim.SimulatedCycles >= model.SimulatedCycles {
		t.Fatalf("simulated objective (%d) not below model objective (%d)", sim.SimulatedCycles, model.SimulatedCycles)
	}
	// Sim knobs on the energy endpoint are a shape error.
	if rec := post(t, s, "/v1/partition-energy",
		`{"benchmark":"ofdm","energy_budget":5,"frames":2}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("energy with sim knobs: status %d, want 400", rec.Code)
	}
}

// TestSimulateOptionsOverrideFrames: a full Options override carrying
// SimFrames must be honored by /v1/simulate — the zero-knob normalization
// runs on the resolved Options, so it must never clobber an explicit
// override with the default of 1.
func TestSimulateOptionsOverrideFrames(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	s := newTestServer(t, Config{})
	opts := hybridpart.DefaultOptions()
	opts.SimFrames = 8
	optsJSON, err := json.Marshal(opts)
	if err != nil {
		t.Fatal(err)
	}
	rec := post(t, s, "/v1/simulate",
		fmt.Sprintf(`{"benchmark":"ofdm","seed":1,"options":%s}`, optsJSON))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var wire hybridpart.SimReport
	if err := json.Unmarshal(rec.Body.Bytes(), &wire); err != nil {
		t.Fatal(err)
	}
	if wire.Frames != 8 {
		t.Fatalf("Options.SimFrames=8 simulated %d frame(s)", wire.Frames)
	}
	// The resolved-knob frames cap catches overrides too.
	opts.SimFrames = 1_000_000
	optsJSON, _ = json.Marshal(opts)
	rec = post(t, s, "/v1/simulate",
		fmt.Sprintf(`{"benchmark":"ofdm","seed":1,"options":%s}`, optsJSON))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized Options.SimFrames: status %d, want 400", rec.Code)
	}
}

// TestPartitionDefaultObjective pins the service's default-objective flip:
// a /v1/partition request with no objective field runs the simulated
// objective and — because the flip happens before fingerprinting — shares
// one cache entry, byte for byte, with the explicit {"objective":"sim"}
// spelling. Explicit objectives, rerank requests and full options overrides
// are never flipped, and the trajectory-factor cost guard rejects
// sim-scored frame counts the model objective would accept.
func TestPartitionDefaultObjective(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	s := newTestServer(t, Config{})

	miss := post(t, s, "/v1/partition", `{"benchmark":"ofdm","seed":1,"constraint":60000}`)
	if miss.Code != http.StatusOK || miss.Header().Get("X-Cache") != "miss" {
		t.Fatalf("plain request: status %d, X-Cache %q: %s", miss.Code, miss.Header().Get("X-Cache"), miss.Body)
	}
	var rj ResultJSON
	if err := json.Unmarshal(miss.Body.Bytes(), &rj); err != nil {
		t.Fatal(err)
	}
	if rj.Objective != "sim" || rj.SimulatedCycles == 0 {
		t.Fatalf("plain request did not run the default objective: %+v", rj)
	}

	// The explicit spelling hits the default's entry with identical bytes.
	hit := post(t, s, "/v1/partition", `{"benchmark":"ofdm","seed":1,"constraint":60000,"objective":"sim"}`)
	if hit.Header().Get("X-Cache") != "hit" {
		t.Fatalf("explicit \"sim\" missed the default's cache entry (X-Cache %q)", hit.Header().Get("X-Cache"))
	}
	if hit.Body.String() != miss.Body.String() {
		t.Fatalf("default and explicit \"sim\" bytes diverge:\n%s\nvs\n%s", miss.Body, hit.Body)
	}

	// Rerank requests keep the model move loop: flipping them would make
	// the request invalid (rerank and the simulated objective are mutually
	// exclusive), so the flip must leave them alone.
	rr := post(t, s, "/v1/partition", `{"benchmark":"ofdm","seed":1,"constraint":60000,"frames":4,"rerank":2}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("rerank without objective: status %d: %s", rr.Code, rr.Body)
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &rj); err != nil {
		t.Fatal(err)
	}
	if rj.Objective != "model" {
		t.Fatalf("rerank request was flipped to %q", rj.Objective)
	}

	// Cost accounting: a sim-scored run is charged the trajectory factor
	// per frame, so a frame count the model objective replays happily is
	// over budget once the default flip makes the run sim-scored.
	deny := post(t, s, "/v1/partition", `{"benchmark":"ofdm","seed":1,"constraint":60000,"frames":256}`)
	if deny.Code != http.StatusUnprocessableEntity {
		t.Fatalf("sim-scored frames=256: status %d, want 422: %s", deny.Code, deny.Body)
	}
	allow := post(t, s, "/v1/partition", `{"benchmark":"ofdm","seed":1,"constraint":60000,"frames":256,"objective":"model"}`)
	if allow.Code != http.StatusOK {
		t.Fatalf("model frames=256: status %d: %s", allow.Code, allow.Body)
	}

	// The scoring work feeds the /debug/stats aggregate.
	stats := get(t, s, "/debug/stats")
	var st StatsJSON
	if err := json.Unmarshal(stats.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.SimScoring.Scored == 0 || st.SimScoring.Replays == 0 {
		t.Fatalf("sim scoring stats empty after sim-scored runs: %+v", st.SimScoring)
	}
	var raw struct {
		SimScoring map[string]int64 `json:"sim_scoring"`
	}
	if err := json.Unmarshal(stats.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(raw.SimScoring))
	for k := range raw.SimScoring {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got, want := strings.Join(keys, ","), "memo_hits,pruned,replays,scored"; got != want {
		t.Fatalf("sim_scoring rows %s, want %s", got, want)
	}
}
