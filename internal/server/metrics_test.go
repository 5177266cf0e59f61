package server

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"hybridpart/internal/obs"
)

// promFamily is one parsed metric family from a /metrics scrape.
type promFamily struct {
	typ     string
	help    string
	samples []parsedSample
}

type parsedSample struct {
	name   string // including _bucket/_sum/_count suffix
	labels map[string]string
	value  float64
}

// parsePromText is a strict-enough parser for the text exposition format
// 0.0.4: it fails the test on malformed lines, samples without a preceding
// TYPE, or unescaped label values — the things a real scraper would reject.
func parsePromText(t *testing.T, text string) map[string]*promFamily {
	t.Helper()
	families := map[string]*promFamily{}
	var current string
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || help == "" {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			families[name] = &promFamily{help: help}
			current = name
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			name, typ := fields[0], fields[1]
			if name != current {
				t.Fatalf("line %d: TYPE %s does not follow its HELP (current family %s)", ln+1, name, current)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: invalid type %q", ln+1, typ)
			}
			families[name].typ = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment %q", ln+1, line)
		}
		name, labels, value := parsePromSample(t, ln+1, line)
		family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		f := families[family]
		if f == nil {
			f = families[name] // plain sample of a family without suffix
		}
		if f == nil || f.typ == "" {
			t.Fatalf("line %d: sample %q without HELP/TYPE", ln+1, name)
		}
		f.samples = append(f.samples, parsedSample{name: name, labels: labels, value: value})
	}
	return families
}

func parsePromSample(t *testing.T, ln int, line string) (string, map[string]string, float64) {
	t.Helper()
	labels := map[string]string{}
	rest := line
	if open := strings.IndexByte(line, '{'); open >= 0 {
		closeIdx := strings.LastIndexByte(line, '}')
		if closeIdx < open {
			t.Fatalf("line %d: unbalanced braces: %q", ln, line)
		}
		for _, pair := range strings.Split(line[open+1:closeIdx], ",") {
			k, v, ok := strings.Cut(pair, "=")
			if !ok || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				t.Fatalf("line %d: malformed label %q", ln, pair)
			}
			labels[k] = v[1 : len(v)-1]
		}
		rest = line[:open] + line[closeIdx+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) != 2 {
		t.Fatalf("line %d: want 'name value', got %q", ln, line)
	}
	val, err := strconv.ParseFloat(fields[1], 64)
	if err != nil && fields[1] != "+Inf" {
		t.Fatalf("line %d: bad value %q: %v", ln, fields[1], err)
	}
	return fields[0], labels, val
}

func (f *promFamily) value(t *testing.T, want map[string]string) float64 {
	t.Helper()
	for _, s := range f.samples {
		if len(s.labels) != len(want) {
			continue
		}
		match := true
		for k, v := range want {
			if s.labels[k] != v {
				match = false
			}
		}
		if match {
			return s.value
		}
	}
	t.Fatalf("no sample with labels %v", want)
	return 0
}

// TestMetricsExposition drives traffic through a budgeted, traced
// fleet-mode server and checks the scrape: well-formed families, every
// scalar agreeing with the /debug/stats document, and coherent histograms.
func TestMetricsExposition(t *testing.T) {
	self := "http://127.0.0.1:1"
	s := newTestServer(t, Config{
		Self:       self,
		Peers:      []string{self},
		MaxSimCost: 100000,
		Tracer:     obs.New(obs.Config{Service: "metrics"}),
	})
	// The default objective is sim: one miss that feeds the scoring counters.
	if rec := post(t, s, "/v1/partition", fmt.Sprintf(`{"source": %q, "constraint": 9000}`, firSrc)); rec.Code != 200 {
		t.Fatalf("sim partition: %d", rec.Code)
	}
	body := fmt.Sprintf(`{"source": %q, "objective": "model", "constraint": 9000}`, firSrc)
	for i := 0; i < 4; i++ { // 1 miss + 3 hits
		if rec := post(t, s, "/v1/partition", body); rec.Code != 200 {
			t.Fatalf("partition: %d", rec.Code)
		}
	}
	if rec := post(t, s, "/v1/partition", "{"); rec.Code != 400 {
		t.Fatalf("malformed body: %d", rec.Code)
	}
	if rec := get(t, s, "/healthz"); rec.Code != 200 {
		t.Fatalf("healthz: %d", rec.Code)
	}
	// Distinct values on the counters this traffic leaves at zero, so a
	// family rendering the wrong field shows.
	for i, c := range []*atomic.Int64{&s.cluster.forwards, &s.cluster.fallbacks, &s.cluster.received,
		&s.cluster.relayTruncated, &s.admit.shed, &s.simScoring.replays, &s.simScoring.pruned} {
		c.Add(int64(101 + i))
	}

	var st StatsJSON
	if err := json.Unmarshal(get(t, s, "/debug/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Cluster == nil || st.Admission == nil || st.Traces == nil {
		t.Fatalf("/debug/stats lacks a section: %+v", st)
	}
	if st.SimScoring.Scored == 0 || st.Traces.KeptError == 0 || st.Traces.Spans == 0 {
		t.Fatalf("traffic left counters at zero: %+v %+v", st.SimScoring, *st.Traces)
	}

	rec := get(t, s, "/metrics")
	if rec.Code != 200 {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "0.0.4") {
		t.Fatalf("Content-Type %q", ct)
	}
	fams := parsePromText(t, rec.Body.String())

	for name, wantType := range map[string]string{
		"hservd_cache_hits_total":                 "counter",
		"hservd_cache_misses_total":               "counter",
		"hservd_cache_coalesced_total":            "counter",
		"hservd_cache_evictions_total":            "counter",
		"hservd_cache_entries":                    "gauge",
		"hservd_requests_total":                   "counter",
		"hservd_errors_total":                     "counter",
		"hservd_in_flight":                        "gauge",
		"hservd_request_duration_seconds":         "histogram",
		"hservd_cluster_peers":                    "gauge",
		"hservd_cluster_forwards_total":           "counter",
		"hservd_admission_shed_total":             "counter",
		"hservd_admission_tokens":                 "gauge",
		"hservd_admission_budget_units":           "gauge",
		"hservd_sim_scoring_total":                "counter",
		"hservd_endpoint_cache_hits_total":        "counter",
		"hservd_endpoint_cache_misses_total":      "counter",
		"hservd_cluster_forwarded_received_total": "counter",
	} {
		f := fams[name]
		if f == nil {
			t.Errorf("family %s missing", name)
			continue
		}
		if f.typ != wantType {
			t.Errorf("%s: type %q, want %q", name, f.typ, wantType)
		}
		if f.help == "" {
			t.Errorf("%s: empty HELP", name)
		}
	}

	// Every scalar of /debug/stats equals its /metrics sample. Nothing ran
	// between the two reads but the scrape itself, which counts its own
	// request.
	type check struct {
		family string
		labels map[string]string
		want   float64
	}
	lbl := func(k, v string) map[string]string { return map[string]string{k: v} }
	checks := []check{
		{"hservd_cache_hits_total", nil, float64(st.Cache.Hits)},
		{"hservd_cache_misses_total", nil, float64(st.Cache.Misses)},
		{"hservd_cache_coalesced_total", nil, float64(st.Cache.Coalesced)},
		{"hservd_cache_evictions_total", nil, float64(st.Cache.Evictions)},
		{"hservd_cache_entries", nil, float64(st.Cache.Size)},
		{"hservd_cache_capacity_entries", nil, float64(st.Cache.Capacity)},
		{"hservd_cluster_peers", nil, float64(st.Cluster.Peers)},
		{"hservd_cluster_forwards_total", nil, float64(st.Cluster.Forwards)},
		{"hservd_cluster_forward_fallbacks_total", nil, float64(st.Cluster.Fallbacks)},
		{"hservd_cluster_forwarded_received_total", nil, float64(st.Cluster.Received)},
		{"hservd_cluster_relay_truncated_total", nil, float64(st.Cluster.RelayTruncated)},
		{"hservd_admission_shed_total", nil, float64(st.Admission.Shed)},
		{"hservd_admission_budget_units", nil, float64(st.Admission.Budget)},
		{"hservd_sim_scoring_total", lbl("kind", "scored"), float64(st.SimScoring.Scored)},
		{"hservd_sim_scoring_total", lbl("kind", "replays"), float64(st.SimScoring.Replays)},
		{"hservd_sim_scoring_total", lbl("kind", "pruned"), float64(st.SimScoring.Pruned)},
		{"hservd_sim_scoring_total", lbl("kind", "memo_hits"), float64(st.SimScoring.MemoHits)},
		{"hservd_trace_ring_depth", nil, float64(st.Traces.RingDepth)},
		{"hservd_trace_ring_capacity", nil, float64(st.Traces.RingCapacity)},
		{"hservd_trace_dropped_total", nil, float64(st.Traces.DroppedTraces)},
		{"hservd_trace_spans_dropped_total", nil, float64(st.Traces.DroppedSpans)},
		{"hservd_trace_spans_total", nil, float64(st.Traces.Spans)},
		{"hservd_trace_retention_total", lbl("policy", "kept_error"), float64(st.Traces.KeptError)},
		{"hservd_trace_retention_total", lbl("policy", "kept_slow"), float64(st.Traces.KeptSlow)},
		{"hservd_trace_retention_total", lbl("policy", "sampled_out"), float64(st.Traces.SampledOut)},
	}
	for name, e := range st.Endpoints {
		requests := e.Requests
		if name == "/metrics" {
			requests++
		}
		ep := lbl("endpoint", name)
		checks = append(checks,
			check{"hservd_requests_total", ep, float64(requests)},
			check{"hservd_errors_total", ep, float64(e.Errors)},
			check{"hservd_endpoint_cache_hits_total", ep, float64(e.CacheHits)},
			check{"hservd_endpoint_cache_misses_total", ep, float64(e.CacheMisses)},
		)
	}
	for _, c := range checks {
		f := fams[c.family]
		if f == nil {
			t.Errorf("family %s missing", c.family)
			continue
		}
		if got := f.value(t, c.labels); got != c.want {
			t.Errorf("%s%v: scrape %v, /debug/stats %v", c.family, c.labels, got, c.want)
		}
	}

	part := map[string]string{"endpoint": "/v1/partition"}
	if got := fams["hservd_requests_total"].value(t, part); got != 6 {
		t.Errorf("partition requests: %v, want 6", got)
	}
	if got := fams["hservd_errors_total"].value(t, part); got != 1 {
		t.Errorf("partition errors: %v, want 1", got)
	}
	if got := fams["hservd_endpoint_cache_hits_total"].value(t, part); got != 3 {
		t.Errorf("partition cache hits: %v, want 3", got)
	}
	if got := fams["hservd_admission_budget_units"].value(t, nil); got != 100000 {
		t.Errorf("budget units: %v", got)
	}
	if got := fams["hservd_cluster_peers"].value(t, nil); got != 1 {
		t.Errorf("peers: %v", got)
	}

	// The scoring family carries exactly the deterministic SimScoreStats rows.
	var kinds []string
	for _, smp := range fams["hservd_sim_scoring_total"].samples {
		kinds = append(kinds, smp.labels["kind"])
	}
	if got, want := strings.Join(kinds, ","), "scored,replays,pruned,memo_hits"; got != want {
		t.Errorf("sim scoring kinds %s, want %s", got, want)
	}

	// Histogram coherence per endpoint: buckets sorted and cumulative,
	// +Inf present and equal to _count.
	hist := fams["hservd_request_duration_seconds"]
	type agg struct {
		bounds []float64
		counts []float64
		count  float64
		hasCnt bool
	}
	byEndpoint := map[string]*agg{}
	ep := func(labels map[string]string) *agg {
		a := byEndpoint[labels["endpoint"]]
		if a == nil {
			a = &agg{}
			byEndpoint[labels["endpoint"]] = a
		}
		return a
	}
	for _, smp := range hist.samples {
		switch {
		case strings.HasSuffix(smp.name, "_bucket"):
			a := ep(smp.labels)
			le := smp.labels["le"]
			bound := math.Inf(1)
			if le != "+Inf" {
				var err error
				if bound, err = strconv.ParseFloat(le, 64); err != nil {
					t.Fatalf("bad le %q", le)
				}
			}
			a.bounds = append(a.bounds, bound)
			a.counts = append(a.counts, smp.value)
		case strings.HasSuffix(smp.name, "_count"):
			a := ep(smp.labels)
			a.count, a.hasCnt = smp.value, true
		}
	}
	for endpoint, a := range byEndpoint {
		if !a.hasCnt {
			t.Errorf("%s: no _count", endpoint)
			continue
		}
		if len(a.bounds) == 0 || !math.IsInf(a.bounds[len(a.bounds)-1], 1) {
			t.Errorf("%s: no +Inf bucket", endpoint)
			continue
		}
		for i := 1; i < len(a.bounds); i++ {
			if a.bounds[i] <= a.bounds[i-1] {
				t.Errorf("%s: bucket bounds not increasing at %d", endpoint, i)
			}
			if a.counts[i] < a.counts[i-1] {
				t.Errorf("%s: bucket counts not cumulative at le=%v", endpoint, a.bounds[i])
			}
		}
		if inf := a.counts[len(a.counts)-1]; inf != a.count {
			t.Errorf("%s: +Inf bucket %v != _count %v", endpoint, inf, a.count)
		}
	}
	if a := byEndpoint["/v1/partition"]; a == nil || a.count != 6 {
		t.Errorf("partition histogram count: %+v", byEndpoint["/v1/partition"])
	}
}

// TestMetricsEvictions: filling a tiny store past capacity surfaces in the
// eviction counter and the entries gauge on the scrape.
func TestMetricsEvictions(t *testing.T) {
	s := newTestServer(t, Config{CacheCapacity: 1})
	for _, c := range []int{9000, 9001, 9002} {
		body := fmt.Sprintf(`{"source": %q, "objective": "model", "constraint": %d}`, firSrc, c)
		if rec := post(t, s, "/v1/partition", body); rec.Code != 200 {
			t.Fatalf("partition %d: %d", c, rec.Code)
		}
	}
	fams := parsePromText(t, get(t, s, "/metrics").Body.String())
	if got := fams["hservd_cache_evictions_total"].value(t, nil); got != 2 {
		t.Errorf("evictions: %v, want 2", got)
	}
	if got := fams["hservd_cache_entries"].value(t, nil); got != 1 {
		t.Errorf("entries: %v, want 1", got)
	}
	if got := fams["hservd_cache_capacity_entries"].value(t, nil); got != 1 {
		t.Errorf("capacity: %v, want 1", got)
	}
}
