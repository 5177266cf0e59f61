package server

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// GET /metrics — Prometheus text exposition, rendered without any
// dependency: the /debug/stats snapshot (statsJSON) shaped for a scraper,
// plus the histograms and runtime gauges it does not carry. Cache
// hit/miss/coalesce/eviction counters, entry and byte gauges, per-endpoint
// request/error/in-flight series and latency histograms, per-endpoint ×
// per-stage histograms derived from finished traces, cluster
// forward/fallback counters, admission shed/token series, trace-retention
// counters and runtime-telemetry gauges.
//
// The default scrape is format 0.0.4. A client sending
// Accept: application/openmetrics-text gets the OpenMetrics flavor
// instead: the same families plus bucket exemplars on the stage
// histograms — each populated bucket carries the trace ID of a request
// that landed in it, resolvable at /debug/traces/{id} — and a trailing
// # EOF marker.

// latencyBuckets are the histogram upper bounds in seconds. The spread
// covers both regimes the service sees: microsecond cache hits and
// multi-second sim-objective misses. +Inf is implicit (the overflow slot
// in endpointMetrics).
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// bucketIndex maps one observation to its latencyBucket slot: the first
// bound >= secs, or the trailing +Inf slot. The endpointMetrics array is
// sized len(latencyBuckets)+1 for exactly this.
func bucketIndex(secs float64) int {
	return sort.SearchFloat64s(latencyBuckets, secs)
}

// openMetricsType is the Accept media type that switches the scrape to
// the OpenMetrics flavor (exemplars, trailing # EOF).
const openMetricsType = "application/openmetrics-text"

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), openMetricsType) {
		w.Header().Set("Content-Type", openMetricsType+"; version=1.0.0; charset=utf-8")
		s.writeMetrics(w, true)
		io.WriteString(w, "# EOF\n")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(w, false)
}

// promFloat renders a sample value the way Prometheus expects.
func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// promMetric emits one full metric family: HELP, TYPE, then each
// (labels, value) sample. Labels render in the order given. A sample's
// exemplar (OpenMetrics scrapes only) is appended after the value.
func promMetric(w io.Writer, name, typ, help string, samples []promSample) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for _, s := range samples {
		if s.labels == "" {
			fmt.Fprintf(w, "%s %s%s\n", name+s.suffix, s.value, s.exemplar)
		} else {
			fmt.Fprintf(w, "%s{%s} %s%s\n", name+s.suffix, s.labels, s.value, s.exemplar)
		}
	}
}

type promSample struct {
	suffix   string // "", "_bucket", "_sum", "_count"
	labels   string // rendered label pairs, no braces
	value    string
	exemplar string // rendered " # {trace_id=...} v ts", or ""
}

func one(value string) []promSample { return []promSample{{value: value}} }

// writeMetrics renders every family. The scalar families all come from one
// statsJSON snapshot, so a scrape agrees with /debug/stats taken at the
// same moment; the latency buckets, stage histograms and runtime gauges,
// which /debug/stats does not carry, keep their own sources. openMetrics
// additionally attaches exemplars to the stage-histogram buckets (0.0.4
// scrapers reject them).
func (s *Server) writeMetrics(w io.Writer, openMetrics bool) {
	st := s.statsJSON()
	cs := st.Cache
	promMetric(w, "hservd_cache_hits_total", "counter",
		"Result-cache lookups served from a stored entry.", one(fmt.Sprint(cs.Hits)))
	promMetric(w, "hservd_cache_misses_total", "counter",
		"Result-cache lookups that ran the engine.", one(fmt.Sprint(cs.Misses)))
	promMetric(w, "hservd_cache_coalesced_total", "counter",
		"Lookups that joined an in-flight computation (singleflight savings).", one(fmt.Sprint(cs.Coalesced)))
	promMetric(w, "hservd_cache_evictions_total", "counter",
		"Entries dropped to enforce the store's capacity bound.", one(fmt.Sprint(cs.Evictions)))
	promMetric(w, "hservd_cache_entries", "gauge",
		"Entries currently stored.", one(fmt.Sprint(cs.Size)))
	if cs.Capacity > 0 {
		promMetric(w, "hservd_cache_capacity_entries", "gauge",
			"Entry-count bound of the store (entry-bounded stores only).", one(fmt.Sprint(cs.Capacity)))
	}
	if cs.CapacityBytes > 0 {
		promMetric(w, "hservd_store_size_bytes", "gauge",
			"Bytes currently stored (byte-bounded stores only).", one(fmt.Sprint(cs.SizeBytes)))
		promMetric(w, "hservd_store_capacity_bytes", "gauge",
			"Byte bound of the store (byte-bounded stores only).", one(fmt.Sprint(cs.CapacityBytes)))
		promMetric(w, "hservd_store_corrupt_total", "counter",
			"Stored entries dropped after failing verification on read.", one(fmt.Sprint(cs.Corrupt)))
	}

	// Per-endpoint series, endpoints in sorted order so scrapes are
	// deterministic and diffable.
	names := make([]string, 0, len(st.Endpoints))
	for name := range st.Endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	row := func(get func(e EndpointStatsJSON) int64) []promSample {
		out := make([]promSample, 0, len(names))
		for _, name := range names {
			out = append(out, promSample{labels: `endpoint="` + name + `"`, value: fmt.Sprint(get(st.Endpoints[name]))})
		}
		return out
	}
	promMetric(w, "hservd_requests_total", "counter", "Requests received, by endpoint.",
		row(func(e EndpointStatsJSON) int64 { return e.Requests }))
	promMetric(w, "hservd_errors_total", "counter", "Non-2xx/3xx responses, by endpoint.",
		row(func(e EndpointStatsJSON) int64 { return e.Errors }))
	promMetric(w, "hservd_in_flight", "gauge", "Requests currently being served, by endpoint.",
		row(func(e EndpointStatsJSON) int64 { return e.InFlight }))
	promMetric(w, "hservd_endpoint_cache_hits_total", "counter",
		"Requests served from the result cache, by endpoint.",
		row(func(e EndpointStatsJSON) int64 { return e.CacheHits }))
	promMetric(w, "hservd_endpoint_cache_misses_total", "counter",
		"Requests that ran the engine, by endpoint.",
		row(func(e EndpointStatsJSON) int64 { return e.CacheMisses }))

	var hist []promSample
	for _, name := range names {
		m := s.metrics[name]
		cum := int64(0)
		for i, le := range latencyBuckets {
			cum += m.latencyBucket[i].Load()
			hist = append(hist, promSample{
				suffix: "_bucket",
				labels: fmt.Sprintf(`endpoint=%q,le=%q`, name, promFloat(le)),
				value:  fmt.Sprint(cum),
			})
		}
		cum += m.latencyBucket[len(latencyBuckets)].Load()
		hist = append(hist,
			promSample{suffix: "_bucket", labels: fmt.Sprintf(`endpoint=%q,le="+Inf"`, name), value: fmt.Sprint(cum)},
			promSample{suffix: "_sum", labels: fmt.Sprintf(`endpoint=%q`, name),
				value: promFloat(float64(st.Endpoints[name].latencySumMicros) / 1e6)},
			promSample{suffix: "_count", labels: fmt.Sprintf(`endpoint=%q`, name), value: fmt.Sprint(cum)},
		)
	}
	promMetric(w, "hservd_request_duration_seconds", "histogram",
		"Request latency, by endpoint.", hist)

	s.writeStageMetrics(w, openMetrics)

	if cl := st.Cluster; cl != nil {
		promMetric(w, "hservd_cluster_peers", "gauge",
			"Replicas in the consistent-hash ring.", one(fmt.Sprint(cl.Peers)))
		promMetric(w, "hservd_cluster_forwards_total", "counter",
			"Requests forwarded to their owning replica.", one(fmt.Sprint(cl.Forwards)))
		promMetric(w, "hservd_cluster_forward_fallbacks_total", "counter",
			"Forwards that failed over to local computation (owner unreachable).", one(fmt.Sprint(cl.Fallbacks)))
		promMetric(w, "hservd_cluster_forwarded_received_total", "counter",
			"Forwarded requests served here as the owner.", one(fmt.Sprint(cl.Received)))
		promMetric(w, "hservd_cluster_relay_truncated_total", "counter",
			"Relayed responses cut short by a mid-response peer disconnect.", one(fmt.Sprint(cl.RelayTruncated)))
	}
	if a := st.Admission; a != nil {
		promMetric(w, "hservd_admission_shed_total", "counter",
			"Requests shed with 429 by cost-based admission control.", one(fmt.Sprint(a.Shed)))
		promMetric(w, "hservd_admission_tokens", "gauge",
			"Simulated-cost units currently available.", one(promFloat(a.Tokens)))
		promMetric(w, "hservd_admission_budget_units", "gauge",
			"Configured simulated-cost units per second (bucket capacity).", one(promFloat(float64(a.Budget))))
	}

	if ts := st.Traces; ts != nil {
		promMetric(w, "hservd_trace_ring_depth", "gauge",
			"Finished traces currently held in the in-memory ring.", one(fmt.Sprint(ts.RingDepth)))
		promMetric(w, "hservd_trace_ring_capacity", "gauge",
			"Bound of the finished-trace ring.", one(fmt.Sprint(ts.RingCapacity)))
		promMetric(w, "hservd_trace_dropped_total", "counter",
			"Finished traces evicted from the ring to admit newer ones.", one(fmt.Sprint(ts.DroppedTraces)))
		promMetric(w, "hservd_trace_spans_dropped_total", "counter",
			"Spans discarded by the per-trace span bound.", one(fmt.Sprint(ts.DroppedSpans)))
		promMetric(w, "hservd_trace_spans_total", "counter",
			"Spans recorded locally (peer-merged reads never count).", one(fmt.Sprint(ts.Spans)))
		promMetric(w, "hservd_trace_retention_total", "counter",
			"Tail-sampling retention decisions by policy (kept_error, kept_slow, sampled_out).",
			[]promSample{
				{labels: `policy="kept_error"`, value: fmt.Sprint(ts.KeptError)},
				{labels: `policy="kept_slow"`, value: fmt.Sprint(ts.KeptSlow)},
				{labels: `policy="sampled_out"`, value: fmt.Sprint(ts.SampledOut)},
			})
	}

	if c := s.telemetry; c != nil {
		if sample, ok := c.Latest(); ok {
			promMetric(w, "hservd_runtime_heap_bytes", "gauge",
				"Live heap bytes at the latest telemetry sample.", one(fmt.Sprint(sample.HeapBytes)))
			promMetric(w, "hservd_runtime_heap_objects", "gauge",
				"Live heap objects at the latest telemetry sample.", one(fmt.Sprint(sample.HeapObjects)))
			promMetric(w, "hservd_runtime_goroutines", "gauge",
				"Goroutines at the latest telemetry sample.", one(fmt.Sprint(sample.Goroutines)))
			promMetric(w, "hservd_runtime_gc_cycles_total", "counter",
				"Completed GC cycles since process start.", one(fmt.Sprint(sample.GCCycles)))
			promMetric(w, "hservd_runtime_gc_pause_p99_seconds", "gauge",
				"p99 GC stop-the-world pause over the latest telemetry interval.", one(promFloat(sample.GCPauseP99)))
			promMetric(w, "hservd_runtime_sched_latency_p99_seconds", "gauge",
				"p99 goroutine scheduling latency over the latest telemetry interval.", one(promFloat(sample.SchedLatencyP99)))
		}
		promMetric(w, "hservd_telemetry_samples", "gauge",
			"Telemetry samples currently retained.", one(fmt.Sprint(len(c.Samples()))))
	}

	sim := st.SimScoring
	promMetric(w, "hservd_sim_scoring_total", "counter",
		"Simulated-objective candidate-scoring counters, summed over engine runs.",
		[]promSample{
			{labels: `kind="scored"`, value: fmt.Sprint(sim.Scored)},
			{labels: `kind="replays"`, value: fmt.Sprint(sim.Replays)},
			{labels: `kind="pruned"`, value: fmt.Sprint(sim.Pruned)},
			{labels: `kind="memo_hits"`, value: fmt.Sprint(sim.MemoHits)},
		})
}

// writeStageMetrics renders the span-derived per-endpoint × per-stage
// latency histograms. On OpenMetrics scrapes each populated bucket carries
// an exemplar linking it to a retained trace.
func (s *Server) writeStageMetrics(w io.Writer, openMetrics bool) {
	if s.stages == nil {
		return
	}
	bounds := s.stages.Buckets()
	var hist []promSample
	for _, snap := range s.stages.Snapshot() {
		labels := func(extra string) string {
			return fmt.Sprintf(`endpoint=%q,stage=%q%s`, snap.Endpoint, snap.Stage, extra)
		}
		cum := int64(0)
		for i := range snap.Counts {
			cum += snap.Counts[i]
			le := "+Inf"
			if i < len(bounds) {
				le = promFloat(bounds[i])
			}
			sp := promSample{
				suffix: "_bucket",
				labels: labels(fmt.Sprintf(`,le=%q`, le)),
				value:  fmt.Sprint(cum),
			}
			if openMetrics && snap.Counts[i] > 0 && snap.Exemplars[i].TraceID != "" {
				ex := snap.Exemplars[i]
				sp.exemplar = fmt.Sprintf(` # {trace_id=%q} %s %.3f`, ex.TraceID, promFloat(ex.Value), ex.Unix)
			}
			hist = append(hist, sp)
		}
		hist = append(hist,
			promSample{suffix: "_sum", labels: labels(""), value: promFloat(snap.Sum)},
			promSample{suffix: "_count", labels: labels(""), value: fmt.Sprint(snap.Count)},
		)
	}
	promMetric(w, "hservd_stage_duration_seconds", "histogram",
		"Stage-span latency derived from finished traces, by endpoint and stage.", hist)
}
