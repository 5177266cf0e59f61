// Package server exposes the hybridpart Engine over HTTP/JSON — the
// partitioning-as-a-service subsystem. The methodology is a pure function
// from (source, profile inputs, platform config) to a partition, so the
// service fronts the Engine with a bounded content-addressed result cache
// (internal/cache) keyed by a canonical request fingerprint: repeated
// requests are served from stored response bytes without recompiling, and
// identical in-flight requests are coalesced into a single
// compile+profile+partition run.
//
// Endpoints:
//
//	POST /v1/partition         timing-constrained partitioning -> ResultJSON
//	POST /v1/partition-energy  energy-constrained partitioning -> EnergyResultJSON
//	POST /v1/sweep             design-space sweep -> ResultSet JSON, or SSE
//	                           cell-by-cell progress when the client sends
//	                           Accept: text/event-stream
//	POST /v1/simulate          discrete-event co-simulation of the computed
//	                           partitioning -> SimReportJSON
//	GET  /healthz              liveness probe
//	GET  /v1/presets           registered platform variants
//	GET  /debug/stats          per-endpoint counters + cache statistics
//	GET  /metrics              Prometheus text exposition of the same
//	GET  /debug/traces         finished request traces (Config.Tracer),
//	                           filterable by ?endpoint= and ?min_ms=
//	GET  /debug/traces/{id}    one trace as Chrome trace-event JSON,
//	                           fleet-merged in fleet mode
//	GET  /debug/telemetry      runtime-telemetry time series
//	                           (Config.TelemetryInterval)
//	GET  /debug/fleet          merged health document for every replica
//
// The result store behind the cache is pluggable (internal/store): the
// bounded in-memory LRU by default, or a disk-backed store so a restarted
// replica serves its first repeat request as a hit. With Config.Self and
// Config.Peers set the server runs in fleet mode (internal/cluster):
// fingerprint-keyed requests are routed over a consistent-hash ring and
// forwarded to the owning replica, with a loop-guard header and local
// fallback when the owner is unreachable. Config.MaxSimCost arms
// cost-based admission control: sim-scored cache misses draw from a
// token bucket and bursts over the budget are shed with 429 + Retry-After.
// Config.Tracer arms request tracing (internal/obs): every /v1/* request
// runs under a root span — joined across fleet forwards via the W3C
// traceparent header — and finished traces are served by /debug/traces.
//
// Error contract: malformed bodies, knob sets that Options.Validate refuses
// (an invalid "options" override included) and source over a front-end
// size limit (hybridpart.ErrBlockTooLarge) are 400, all refused before any
// cache, admission, compile or profile work; unknown presets/benchmarks
// 404, workloads that fail to compile/profile/partition 422, admission-shed
// requests 429 (with Retry-After), client-cancelled runs 499 (nginx
// convention), deadline-exceeded runs 504. Every non-2xx body is
// ErrorJSON.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"hybridpart"
	"hybridpart/internal/cache"
	"hybridpart/internal/obs"
	"hybridpart/internal/platform"
	"hybridpart/internal/store"
)

// StatusClientClosedRequest is the 499 status (nginx convention) returned
// when a run is abandoned because the client's context was cancelled.
const StatusClientClosedRequest = 499

// maxBodyBytes caps every POST body. The largest legitimate body, inline
// JPEG source with its image input, is about 250 KB; a larger body is
// refused with 413 before it is buffered.
const maxBodyBytes = 8 << 20

// maxSweepPoints bounds the expanded grid of one /v1/sweep request.
const maxSweepPoints = 100000

// maxSweepCost bounds one /v1/sweep request's simulation cost in whole-trace
// replays (Spec.SimulationCost: cells × frames). Counting cells alone would
// let a modest grid with a frames axis multiply the work arbitrarily — each
// frame replays the entire profiled trace.
const maxSweepCost = maxSweepPoints

// Config parameterizes a Server.
type Config struct {
	// CacheCapacity bounds the result cache in entries (default 256).
	// Ignored when Store is set.
	CacheCapacity int
	// Workers bounds each sweep's worker pool: client-requested pools are
	// clamped to it, and it is the default when a request names none
	// (0 = no bound, GOMAXPROCS default).
	Workers int
	// Timeout bounds each partition/sweep run (0 = unbounded).
	Timeout time.Duration
	// Store overrides the default in-memory LRU result store — e.g. a
	// store.Disk so the replica restarts warm. The caller keeps ownership:
	// closing it (to flush the on-disk index) is the caller's job.
	Store store.Backend
	// Self and Peers enable fingerprint-sharded peer routing: Peers is the
	// full replica set (base URLs, Self included) hashed onto a consistent
	// ring, and requests whose cache key another replica owns are
	// forwarded there. Self must be a ring member; validation is the
	// operator frontend's job (hservd exits 2 on a malformed fleet).
	Self  string
	Peers []string
	// ForwardTimeout bounds each peer-forward hop in fleet mode (0 = a
	// built-in few-second default, defaultForwardTimeout). It must stay well
	// under Timeout: a black-holed owner then trips the local-fallback path
	// quickly instead of holding the request until the global 504.
	ForwardTimeout time.Duration
	// MaxSimCost arms cost-based admission control: the budget of
	// simulated-cost units (trace replays, the sweep grid's accounting)
	// this replica spends per second on sim-scored cache misses. 0
	// disables admission control.
	MaxSimCost int
	// Tracer, when non-nil, records a span tree per /v1 request into its
	// bounded ring: the HTTP edge, peer forwards, cache/store probes,
	// admission decisions, and the engine layers below (move loop,
	// ScoreBatch, replays). Traces are served by GET /debug/traces and
	// /debug/traces/{id} (Chrome trace-event JSON, Perfetto-loadable).
	// nil disables tracing at near-zero cost.
	Tracer *obs.Tracer
	// Logger receives the server's structured log lines (slow requests,
	// forward fallbacks), each carrying the request's trace ID and
	// endpoint. nil means slog.Default().
	Logger *slog.Logger
	// SlowThreshold, when positive, logs one structured summary line for
	// every request that takes longer than it.
	SlowThreshold time.Duration
	// TelemetryInterval, when positive, runs a runtime-telemetry collector
	// (internal/obs) sampling heap/GC/goroutine/sched health plus
	// service-counter deltas every interval into a bounded ring, served by
	// GET /debug/telemetry and as gauges on /metrics. 0 disables it. A
	// server with telemetry enabled owns a goroutine; release it with Close.
	TelemetryInterval time.Duration
}

// Server is the HTTP front end. Construct with New; it implements
// http.Handler and is safe for concurrent use.
type Server struct {
	cfg     Config
	results *cache.Cache
	mux     *http.ServeMux
	metrics map[string]*endpointMetrics
	cluster *clusterState // nil outside fleet mode
	admit   *tokenBucket  // nil without an admission budget
	tracer  *obs.Tracer   // nil disables tracing
	logger  *slog.Logger  // never nil after New

	// stages folds every finished trace's stage spans into per-endpoint
	// latency histograms for /metrics (nil without a tracer); telemetry is
	// the runtime-health collector behind /debug/telemetry (nil unless
	// Config.TelemetryInterval is set).
	stages    *obs.StageAgg
	telemetry *obs.Collector

	// simScoring aggregates the engine's SimScoreStats over every
	// /v1/partition run that consulted the co-simulator. Only cache misses
	// contribute — a hit serves stored bytes and scores nothing.
	simScoring simScoringMetrics
}

// simScoringMetrics is the candidate-scoring counter set behind
// /debug/stats: how the simulation-scored runs paid for their candidate
// evaluations (distinct mappings scored, full replays, branch-and-bound
// prunes, memo hits).
type simScoringMetrics struct {
	scored   atomic.Int64
	replays  atomic.Int64
	pruned   atomic.Int64
	memoHits atomic.Int64
}

// recordSimStats folds one run's scoring breakdown into the /debug/stats
// aggregate. Model-objective runs without sim knobs contribute all zeros.
func (s *Server) recordSimStats(st hybridpart.SimScoreStats) {
	s.simScoring.scored.Add(int64(st.Scored))
	s.simScoring.replays.Add(int64(st.Replays))
	s.simScoring.pruned.Add(int64(st.Pruned))
	s.simScoring.memoHits.Add(int64(st.MemoHits))
}

// New returns a ready-to-serve Server.
func New(cfg Config) *Server {
	if cfg.CacheCapacity <= 0 {
		cfg.CacheCapacity = 256
	}
	be := cfg.Store
	if be == nil {
		be = store.NewMemory(cfg.CacheCapacity)
	}
	s := &Server{
		cfg:     cfg,
		results: cache.NewBacked(be),
		mux:     http.NewServeMux(),
		metrics: map[string]*endpointMetrics{},
		tracer:  cfg.Tracer,
		logger:  cfg.Logger,
	}
	if s.logger == nil {
		s.logger = slog.Default()
	}
	if len(cfg.Peers) > 0 {
		s.cluster = newClusterState(cfg.Self, cfg.Peers)
	}
	if cfg.MaxSimCost > 0 {
		s.admit = newTokenBucket(float64(cfg.MaxSimCost))
	}
	if s.tracer != nil {
		s.stages = obs.NewStageAgg(nil, nil)
		s.tracer.SetOnFinalize(s.stages.Observe)
	}
	s.route("GET /healthz", "/healthz", s.handleHealthz)
	s.route("GET /v1/presets", "/v1/presets", s.handlePresets)
	s.route("GET /debug/stats", "/debug/stats", s.handleStats)
	s.route("GET /metrics", "/metrics", s.handleMetrics)
	s.route("GET /debug/traces", "/debug/traces", s.handleTraceList)
	s.route("GET /debug/traces/{id}", "/debug/traces/{id}", s.handleTraceGet)
	s.route("GET /debug/telemetry", "/debug/telemetry", s.handleTelemetry)
	s.route("GET /debug/fleet", "/debug/fleet", s.handleFleet)
	s.route("POST /v1/partition", "/v1/partition", s.handlePartition)
	s.route("POST /v1/partition-energy", "/v1/partition-energy", s.handlePartitionEnergy)
	s.route("POST /v1/sweep", "/v1/sweep", s.handleSweep)
	s.route("POST /v1/simulate", "/v1/simulate", s.handleSimulate)
	// The collector's ticks read s.metrics, so it starts only after the
	// last route is registered.
	if cfg.TelemetryInterval > 0 {
		s.telemetry = obs.NewCollector(obs.CollectorConfig{
			Interval: cfg.TelemetryInterval,
			Counters: s.telemetryCounters,
		})
		s.telemetry.Start()
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close releases background resources (the telemetry collector's
// goroutine). Idempotent; the server keeps serving afterwards, minus
// telemetry updates.
func (s *Server) Close() { s.telemetry.Stop() }

// telemetryCounters is the service-counter snapshot the telemetry
// collector diffs between samples, derived from the /debug/stats
// snapshot: request/error totals over all endpoints, cache traffic, and
// the shed/forward counters when armed.
func (s *Server) telemetryCounters() map[string]int64 {
	st := s.statsJSON()
	var requests, errorsTotal int64
	for _, e := range st.Endpoints {
		requests += e.Requests
		errorsTotal += e.Errors
	}
	out := map[string]int64{
		"requests":     requests,
		"errors":       errorsTotal,
		"cache_hits":   int64(st.Cache.Hits),
		"cache_misses": int64(st.Cache.Misses),
	}
	if a := st.Admission; a != nil {
		out["admission_shed"] = a.Shed
	}
	if cl := st.Cluster; cl != nil {
		out["cluster_forwards"] = cl.Forwards
	}
	return out
}

// CacheStats snapshots the result-cache counters (exposed for tests and
// operational tooling), read from the /debug/stats snapshot.
func (s *Server) CacheStats() cache.Stats { return s.statsJSON().Cache }

// endpointMetrics is the per-endpoint counter set behind /debug/stats and
// /metrics. latencyBucket holds per-bucket (non-cumulative) observation
// counts for the /metrics histogram, one slot per latencyBuckets bound
// plus the +Inf overflow slot; /metrics renders them cumulatively.
type endpointMetrics struct {
	requests      atomic.Int64
	errors        atomic.Int64
	inFlight      atomic.Int64
	cacheHits     atomic.Int64
	cacheMisses   atomic.Int64
	latencySum    atomic.Int64 // microseconds
	latencyMax    atomic.Int64 // microseconds
	latencyBucket [16]atomic.Int64
}

// EndpointStatsJSON is one endpoint's row of GET /debug/stats.
type EndpointStatsJSON struct {
	Requests         int64 `json:"requests"`
	Errors           int64 `json:"errors"`
	InFlight         int64 `json:"in_flight"`
	CacheHits        int64 `json:"cache_hits"`
	CacheMisses      int64 `json:"cache_misses"`
	AvgLatencyMicros int64 `json:"avg_latency_micros"`
	MaxLatencyMicros int64 `json:"max_latency_micros"`
	// latencySumMicros feeds the /metrics histogram's _sum; the JSON body
	// reports only the average.
	latencySumMicros int64
}

// ProfileMemoJSON reports the process-wide benchmark profile memo behind
// ProfileBenchmarkCached (bound 0 = unbounded; hservd -profile-memo).
type ProfileMemoJSON struct {
	Size  int `json:"size"`
	Bound int `json:"bound"`
}

// SimScoringStatsJSON is the candidate-scoring section of GET /debug/stats:
// SimScoreStats summed over every /v1/partition engine run (cache hits
// score nothing and contribute nothing).
type SimScoringStatsJSON struct {
	Scored   int64 `json:"scored"`
	Replays  int64 `json:"replays"`
	Pruned   int64 `json:"pruned"`
	MemoHits int64 `json:"memo_hits"`
}

// ClusterStatsJSON is the fleet section of GET /debug/stats, present only
// in peer mode.
type ClusterStatsJSON struct {
	Self           string `json:"self"`
	Peers          int    `json:"peers"`
	Forwards       int64  `json:"forwards"`
	Fallbacks      int64  `json:"fallbacks"`
	Received       int64  `json:"received"`
	RelayTruncated int64  `json:"relay_truncated"`
}

// AdmissionStatsJSON is the admission-control section of GET /debug/stats,
// present only when a cost budget is configured.
type AdmissionStatsJSON struct {
	Budget int     `json:"budget"`
	Tokens float64 `json:"tokens"`
	Shed   int64   `json:"shed"`
}

// StatsJSON is the body of GET /debug/stats.
type StatsJSON struct {
	Cache         cache.Stats                  `json:"cache"`
	BenchProfiles ProfileMemoJSON              `json:"bench_profiles"`
	SimScoring    SimScoringStatsJSON          `json:"sim_scoring"`
	Cluster       *ClusterStatsJSON            `json:"cluster,omitempty"`
	Admission     *AdmissionStatsJSON          `json:"admission,omitempty"`
	Traces        *TraceStatsJSON              `json:"traces,omitempty"`
	Endpoints     map[string]EndpointStatsJSON `json:"endpoints"`
}

// route registers pattern on the mux wrapped in the counting middleware;
// name keys the endpoint's metrics row. /v1 endpoints additionally get a
// root span per request: a W3C traceparent header on the way in joins the
// caller's trace (the cross-replica forward case), and the trace ID is
// echoed as an X-Trace-Id response header so clients can fetch their trace
// from /debug/traces/{id}.
func (s *Server) route(pattern, name string, h http.HandlerFunc) {
	m := &endpointMetrics{}
	s.metrics[name] = m
	traced := strings.HasPrefix(name, "/v1/")
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		m.requests.Add(1)
		m.inFlight.Add(1)
		defer m.inFlight.Add(-1)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		var span *obs.Span
		if traced && s.tracer != nil {
			remote, _ := obs.ParseTraceparent(r.Header.Get("traceparent"))
			ctx, root := s.tracer.StartRoot(r.Context(), r.Method+" "+name, remote,
				obs.String("endpoint", name))
			span = root
			if from := r.Header.Get(forwardHeader); from != "" {
				// The loop-guard path: this request was forwarded to us by
				// a peer, so the root records who.
				span.Set(obs.String("forwarded_from", from))
			}
			sw.Header().Set("X-Trace-Id", span.TraceID())
			r = r.WithContext(ctx)
		}
		h(sw, r)
		dur := time.Since(start)
		if span != nil {
			span.Set(obs.Int("status", sw.code))
			if sw.code >= 400 {
				// Error traces are always retained under tail sampling.
				span.MarkError()
			}
			span.End()
		}
		us := dur.Microseconds()
		m.latencySum.Add(us)
		m.latencyBucket[bucketIndex(float64(us)/1e6)].Add(1)
		for {
			prev := m.latencyMax.Load()
			if us <= prev || m.latencyMax.CompareAndSwap(prev, us) {
				break
			}
		}
		if sw.code >= 400 {
			m.errors.Add(1)
		}
		if s.cfg.SlowThreshold > 0 && dur >= s.cfg.SlowThreshold {
			s.logger.Warn("slow request",
				"endpoint", name,
				"trace", span.TraceID(),
				"method", r.Method,
				"status", sw.code,
				"duration_ms", dur.Milliseconds(),
				"threshold_ms", s.cfg.SlowThreshold.Milliseconds())
		}
	})
}

// statusWriter captures the response status for the metrics middleware
// while passing Flush through so SSE streaming keeps working.
type statusWriter struct {
	http.ResponseWriter
	code        int
	wroteHeader bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wroteHeader {
		w.code = code
		w.wroteHeader = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wroteHeader = true
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// httpError pairs a status code with a client-facing message.
// retryAfter, when positive, becomes a Retry-After header (admission
// sheds).
type httpError struct {
	status     int
	msg        string
	retryAfter time.Duration
}

func (e *httpError) Error() string { return e.msg }

func badRequest(msg string) *httpError { return &httpError{status: http.StatusBadRequest, msg: msg} }
func notFound(msg string) *httpError   { return &httpError{status: http.StatusNotFound, msg: msg} }

// runError maps an engine failure to its transport status: cancellation is
// the client's doing (499), deadline expiry the server's bound (504), an
// admission shed is overload (429 + Retry-After), source with a block over
// the compile-time size cap is a bad request (400), everything else is a
// workload the engine cannot process (422).
func runError(err error) *httpError {
	var shed *admissionError
	switch {
	case errors.Is(err, hybridpart.ErrBlockTooLarge):
		return badRequest(err.Error())
	case errors.As(err, &shed):
		return &httpError{status: http.StatusTooManyRequests, msg: shed.Error(), retryAfter: shed.retryAfter}
	case errors.Is(err, context.Canceled):
		return &httpError{status: StatusClientClosedRequest, msg: "request cancelled: " + err.Error()}
	case errors.Is(err, context.DeadlineExceeded):
		return &httpError{status: http.StatusGatewayTimeout, msg: "request timed out: " + err.Error()}
	default:
		return &httpError{status: http.StatusUnprocessableEntity, msg: err.Error()}
	}
}

func (s *Server) writeError(w http.ResponseWriter, e *httpError) {
	w.Header().Set("Content-Type", "application/json")
	if e.retryAfter > 0 {
		secs := int64(e.retryAfter / time.Second)
		if e.retryAfter%time.Second != 0 {
			secs++
		}
		w.Header().Set("Retry-After", fmt.Sprint(secs))
	}
	w.WriteHeader(e.status)
	json.NewEncoder(w).Encode(ErrorJSON{Error: e.msg})
}

func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// runCtx applies the configured per-request timeout to the client context.
func (s *Server) runCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.Timeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.Timeout)
	}
	return context.WithCancel(r.Context())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, "{\"status\":\"ok\"}\n")
}

func (s *Server) handlePresets(w http.ResponseWriter, r *http.Request) {
	names := platform.Names()
	out := make([]PresetJSON, 0, len(names)+1)
	out = append(out, PresetJSON{Name: "default", Summary: "the paper's baseline platform"})
	for _, n := range names {
		cfg, ok := platform.Lookup(n)
		if !ok {
			continue
		}
		out = append(out, PresetJSON{Name: cfg.Name, Summary: cfg.Summary})
	}
	s.writeJSON(w, out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, s.statsJSON())
}

// statsJSON assembles the /debug/stats document. /metrics, the telemetry
// collector, CacheStats and the self entry of /debug/fleet render this
// snapshot rather than loading the cache, cluster, admission, tracer,
// sim-scoring and per-endpoint counters themselves.
func (s *Server) statsJSON() StatsJSON {
	out := StatsJSON{Cache: s.results.Stats(), Endpoints: map[string]EndpointStatsJSON{}}
	out.BenchProfiles.Size, out.BenchProfiles.Bound = hybridpart.ProfileMemoStats()
	out.SimScoring = SimScoringStatsJSON{
		Scored:   s.simScoring.scored.Load(),
		Replays:  s.simScoring.replays.Load(),
		Pruned:   s.simScoring.pruned.Load(),
		MemoHits: s.simScoring.memoHits.Load(),
	}
	if cl := s.cluster; cl != nil {
		out.Cluster = &ClusterStatsJSON{
			Self:           cl.self,
			Peers:          len(cl.ring.Nodes()),
			Forwards:       cl.forwards.Load(),
			Fallbacks:      cl.fallbacks.Load(),
			Received:       cl.received.Load(),
			RelayTruncated: cl.relayTruncated.Load(),
		}
	}
	if b := s.admit; b != nil {
		out.Admission = &AdmissionStatsJSON{
			Budget: s.cfg.MaxSimCost,
			Tokens: b.level(),
			Shed:   b.shed.Load(),
		}
	}
	if t := s.tracer; t != nil {
		ts := t.Stats()
		out.Traces = &TraceStatsJSON{
			RingDepth:     ts.Depth,
			RingCapacity:  ts.Capacity,
			DroppedTraces: ts.DroppedTraces,
			DroppedSpans:  ts.DroppedSpans,
			Spans:         ts.Spans,
			KeptError:     ts.KeptError,
			KeptSlow:      ts.KeptSlow,
			SampledOut:    ts.SampledOut,
		}
	}
	for name, m := range s.metrics {
		row := EndpointStatsJSON{
			Requests:         m.requests.Load(),
			Errors:           m.errors.Load(),
			InFlight:         m.inFlight.Load(),
			CacheHits:        m.cacheHits.Load(),
			CacheMisses:      m.cacheMisses.Load(),
			MaxLatencyMicros: m.latencyMax.Load(),
			latencySumMicros: m.latencySum.Load(),
		}
		if row.Requests > 0 {
			row.AvgLatencyMicros = row.latencySumMicros / row.Requests
		}
		out.Endpoints[name] = row
	}
	return out
}

// decodeBody strictly decodes r's JSON body into v, reading at most
// maxBodyBytes: a longer body is a 413, a malformed one a 400. The body is
// one JSON value: anything after it but whitespace is malformed.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) *httpError {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return nil
		}
		if err == nil || !errors.As(err, new(*http.MaxBytesError)) {
			err = errors.New("data after the JSON value")
		}
	}
	// Declared past the success path: errors.As makes it escape, and a
	// heap allocation per request would be wasted on bodies that decode.
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return &httpError{status: http.StatusRequestEntityTooLarge,
			msg: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)}
	}
	return badRequest("malformed request body: " + err.Error())
}

// decodePartitionRequest parses and shape-checks a partition body.
func decodePartitionRequest(w http.ResponseWriter, r *http.Request, energy bool) (*PartitionRequest, *httpError) {
	var req PartitionRequest
	if e := decodeBody(w, r, &req); e != nil {
		return nil, e
	}
	if e := req.validate(energy); e != nil {
		return nil, e
	}
	return &req, nil
}

// requestProfile returns the request's compiled app and its profile. A
// benchmark comes from the process-wide ProfileBenchmarkCached, so a cache
// miss on a new knob set reuses the benchmark's one compile+profile;
// inline source is compiled and profiled afresh.
func requestProfile(ctx context.Context, req *PartitionRequest) (*hybridpart.App, *hybridpart.RunProfile, error) {
	if req.Benchmark == "" {
		return buildSourceWorkload(ctx, req)
	}
	// A memo hit shows up as a near-zero-width "profile" span.
	_, ps := obs.Start(ctx, "profile", obs.String("benchmark", req.Benchmark))
	app, prof, err := hybridpart.ProfileBenchmarkCached(req.Benchmark, req.Seed)
	ps.End()
	return app, prof, err
}

// buildSourceWorkload compiles the request's inline source, feeds it its
// inputs (in sorted name order, for determinism) and profiles it with one
// run.
func buildSourceWorkload(ctx context.Context, req *PartitionRequest) (*hybridpart.App, *hybridpart.RunProfile, error) {
	_, cs := obs.Start(ctx, "compile", obs.Int("source_bytes", len(req.Source)))
	w, err := hybridpart.NewWorkload(req.Source, req.entryOrDefault())
	cs.End()
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, 0, len(req.Inputs))
	for n := range req.Inputs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := w.SetInput(n, req.Inputs[n]); err != nil {
			return nil, nil, err
		}
	}
	_, ps := obs.Start(ctx, "profile")
	_, err = w.RunContext(ctx, req.Args...)
	ps.End()
	if err != nil {
		return nil, nil, fmt.Errorf("profiling run failed: %w", err)
	}
	return w.App(), w.Profile(), nil
}

// serveCached is the cache-fronted tail shared by every fingerprint-keyed
// endpoint: serve the stored bytes for key, or compute-and-store them under
// singleflight, with hit/miss counters, X-Cache headers and the
// cancellation/timeout error contract applied uniformly.
//
// In fleet mode the key is routed first: a key another replica owns is
// forwarded there (fwdReq re-marshals as the forwarded body) and the
// owner's response relayed verbatim, so the fleet keeps one copy of each
// result and coalesces identical requests globally. An unreachable owner
// degrades to local computation. cost is the request's admission price in
// simulated-cost units, charged only when the engine actually runs here.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, endpoint, key string,
	fwdReq any, cost int, compute func(ctx context.Context) ([]byte, error)) {
	if owner := s.routeOwner(r, key); owner != "" {
		if s.tryForward(w, r, endpoint, owner, fwdReq) {
			return
		}
		s.cluster.fallbacks.Add(1) // owner unreachable: serve locally
		s.logger.Warn("forward fallback: owner unreachable, serving locally",
			"endpoint", endpoint,
			"trace", obs.SpanFrom(r.Context()).TraceID(),
			"owner", owner)
	}
	ctx, cancel := s.runCtx(r)
	defer cancel()
	body, hit, err := s.results.GetOrCompute(ctx, key, func() ([]byte, error) {
		if err := s.admitCost(ctx, cost); err != nil {
			return nil, err
		}
		return compute(ctx)
	})
	// hit means "served without running the engine here" — a stored entry
	// or a joined in-flight call — on the error path too.
	m := s.metrics[endpoint]
	if hit {
		m.cacheHits.Add(1)
	} else {
		m.cacheMisses.Add(1)
	}
	if err != nil {
		s.writeError(w, runError(err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if hit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	w.Write(body)
}

// servePartition is the shared run path of /v1/partition and
// /v1/partition-energy: decode, resolve and validate the knob set (a 400
// before any other work when it is invalid), fingerprint the request and
// hand the run to serveCached.
func (s *Server) servePartition(w http.ResponseWriter, r *http.Request, energy bool,
	run func(ctx context.Context, req *PartitionRequest, opts hybridpart.Options) ([]byte, error)) {
	endpoint := "/v1/partition"
	kind := "partition"
	if energy {
		endpoint, kind = "/v1/partition-energy", "energy"
	}
	req, httpErr := decodePartitionRequest(w, r, energy)
	if httpErr == nil {
		if !energy {
			// The service default: requests that leave the objective
			// dimension untouched run the simulated objective. Applied
			// before fingerprinting, so the default and an explicit
			// "objective": "sim" share one cache entry.
			req.applyDefaultObjective()
		}
		var opts hybridpart.Options
		if opts, httpErr = req.resolveOptions(); httpErr == nil {
			cost := simCost(kind, opts)
			if !energy {
				httpErr = checkScoringCost(cost)
			}
			if httpErr == nil {
				s.serveCached(w, r, endpoint, req.fingerprint(kind, opts), req, cost,
					func(ctx context.Context) ([]byte, error) {
						return run(ctx, req, opts)
					})
				return
			}
		}
	}
	s.writeError(w, httpErr)
}

func (s *Server) handlePartition(w http.ResponseWriter, r *http.Request) {
	s.servePartition(w, r, false, func(ctx context.Context, req *PartitionRequest, opts hybridpart.Options) ([]byte, error) {
		eng, err := hybridpart.NewEngine(hybridpart.WithOptions(opts))
		if err != nil {
			return nil, err
		}
		app, prof, err := requestProfile(ctx, req)
		if err != nil {
			return nil, err
		}
		res, err := eng.PartitionProfiled(ctx, app, prof)
		if err != nil {
			return nil, err
		}
		s.recordSimStats(res.SimStats)
		return MarshalResult(res)
	})
}

func (s *Server) handlePartitionEnergy(w http.ResponseWriter, r *http.Request) {
	s.servePartition(w, r, true, func(ctx context.Context, req *PartitionRequest, opts hybridpart.Options) ([]byte, error) {
		eng, err := hybridpart.NewEngine(
			hybridpart.WithOptions(opts),
			hybridpart.WithEnergyBudget(req.EnergyBudget),
		)
		if err != nil {
			return nil, err
		}
		app, prof, err := requestProfile(ctx, req)
		if err != nil {
			return nil, err
		}
		res, err := eng.PartitionEnergyProfiled(ctx, app, prof)
		if err != nil {
			return nil, err
		}
		return MarshalEnergyResult(res)
	})
}

// handleSimulate runs the discrete-event co-simulator: the request's
// workload is partitioned with the resolved knob set (the analytical
// model), then its profiled trace replays against both the all-FPGA
// baseline and the partitioned mapping under the requested frames/ports/
// prefetch. Responses are fingerprint-cached and coalesced exactly like
// /v1/partition, and a cache hit is byte-identical to Engine.Simulate's
// wire encoding of the same run.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if httpErr := decodeBody(w, r, &req); httpErr != nil {
		s.writeError(w, httpErr)
		return
	}
	if httpErr := req.validate(); httpErr != nil {
		s.writeError(w, httpErr)
		return
	}
	opts, httpErr := req.resolveOptions()
	if httpErr != nil {
		s.writeError(w, httpErr)
		return
	}
	normalizeSimOptions(&opts)
	// The sim knobs were folded into opts by resolveOptions (the one
	// fingerprinted location), so the engine's configuration already is the
	// requested operating point — no per-call SimOptions needed.
	cost := simCost("simulate", opts)
	if httpErr := checkScoringCost(cost); httpErr != nil {
		s.writeError(w, httpErr)
		return
	}
	s.serveCached(w, r, "/v1/simulate", req.fingerprint(opts), &req, cost,
		func(ctx context.Context) ([]byte, error) {
			eng, err := hybridpart.NewEngine(hybridpart.WithOptions(opts))
			if err != nil {
				return nil, err
			}
			app, prof, err := requestProfile(ctx, &req.PartitionRequest)
			if err != nil {
				return nil, err
			}
			rep, err := eng.SimulateProfiled(ctx, app, prof)
			if err != nil {
				return nil, err
			}
			return MarshalSimReport(rep)
		})
}

// handleSweep evaluates a design-space sweep. The plain path runs the grid
// and returns the full ResultSet as JSON; when the client sends
// Accept: text/event-stream the response is an SSE stream of "cell" frames
// (hybridpart.CellEvent, in expansion order) terminated by one "result"
// frame carrying the ResultSet — or an "error" frame, since the SSE status
// line is already committed when a mid-grid failure surfaces. Sweeps are
// not cached: grids are arbitrarily large and already amortize
// compile+profile through the process-wide benchmark profile cache.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var spec hybridpart.SweepSpec
	if httpErr := decodeBody(w, r, &spec); httpErr != nil {
		s.writeError(w, httpErr)
		return
	}
	if err := spec.Validate(); err != nil {
		s.writeError(w, badRequest(err.Error()))
		return
	}
	// The grid is allocated up front by the exploration engine, so its size
	// must be bounded before expansion — a kilobyte of axes can otherwise
	// demand gigabytes of outcome storage.
	if n := spec.NumPoints(); n > maxSweepPoints {
		s.writeError(w, badRequest(fmt.Sprintf("sweep grid has %d cells, limit is %d", n, maxSweepPoints)))
		return
	}
	// Per-cell frame counts are capped like /v1/simulate's — each frame
	// replays the whole profiled trace.
	for _, f := range spec.Frames {
		if f > maxSimFrames {
			s.writeError(w, badRequest(fmt.Sprintf("frames axis value %d exceeds the per-cell limit %d", f, maxSimFrames)))
			return
		}
	}
	// Sim-aware accounting: cells × frames (× a trajectory factor for
	// sim-objective cells), not cells — the sim axes are work multipliers,
	// so a grid that fits the cell cap can still be unprocessable.
	if c := spec.SimulationCost(); c > maxSweepCost {
		s.writeError(w, &httpError{status: http.StatusUnprocessableEntity,
			msg: fmt.Sprintf("sweep costs %d trace replays (cells x frames, sim-objective cells weighted), limit is %d", c, maxSweepCost)})
		return
	}
	for _, b := range spec.Benchmarks {
		if !hybridpart.IsBenchmark(b) {
			s.writeError(w, notFound(fmt.Sprintf("unknown benchmark %q (have %v)", b, hybridpart.Benchmarks())))
			return
		}
	}
	for _, p := range spec.Presets {
		if _, err := hybridpart.OptionsFor(p); err != nil {
			s.writeError(w, notFound(err.Error()))
			return
		}
	}
	// The operator's -workers flag is an upper bound on every sweep's pool:
	// a client may ask for fewer workers, never more (and silence means
	// "the server's bound").
	if s.cfg.Workers > 0 && (spec.Workers <= 0 || spec.Workers > s.cfg.Workers) {
		spec.Workers = s.cfg.Workers
	}
	ctx, cancel := s.runCtx(r)
	defer cancel()

	// Accept headers routinely carry lists and parameters
	// ("text/event-stream, */*", ";charset=..."), so match the media type
	// anywhere in the header rather than exactly.
	stream := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	var engineOpts []hybridpart.Option
	// The metrics middleware always wraps the writer in a statusWriter,
	// whose Flush no-ops when the underlying writer cannot flush (frames
	// then arrive buffered, which is still a valid SSE body).
	flush := func() {
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}
	if stream {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-store")
		w.WriteHeader(http.StatusOK)
		engineOpts = append(engineOpts, hybridpart.WithObserver(func(ev hybridpart.Event) {
			// Observer delivery is serialized by the engine, so writes to
			// the response cannot interleave. Cells stream as "cell" frames;
			// simulated cells additionally stream their per-frame progress
			// as "sim" frames (tagged with the cell index), each run
			// arriving in expansion order right before its cell.
			switch ev.(type) {
			case hybridpart.CellEvent, hybridpart.SimEvent:
			default:
				return
			}
			if err := hybridpart.WriteSSE(w, ev); err != nil {
				cancel() // client went away: abandon the sweep
				return
			}
			flush()
		}))
	}
	eng, err := hybridpart.NewEngine(engineOpts...)
	if err != nil {
		s.writeError(w, runError(err))
		return
	}
	rs, err := eng.Sweep(ctx, spec)
	if stream {
		if err != nil {
			data, _ := json.Marshal(ErrorJSON{Error: err.Error()})
			fmt.Fprintf(w, "event: error\ndata: %s\n\n", data)
		} else {
			data, _ := json.Marshal(rs)
			fmt.Fprintf(w, "event: result\ndata: %s\n\n", data)
		}
		flush()
		return
	}
	if err != nil {
		s.writeError(w, runError(err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	rs.WriteJSON(w)
}
