package obs

import (
	"context"
	"testing"
	"time"
)

// fakeTrace pushes one synthetic finished trace through finalize with a
// chosen endpoint, duration, and error flag — retention policy tests need
// exact durations, which real spans (monotonic clocks) can't provide.
func fakeTrace(t *Tracer, endpoint string, d time.Duration, isErr bool) TraceID {
	id := newTraceID()
	root := SpanData{
		SpanID:   newSpanID(),
		Name:     "request",
		Start:    time.Now(),
		Duration: d,
		Attrs:    []Attr{String("endpoint", endpoint)},
	}
	at := &activeTrace{spans: []SpanData{root}, err: isErr}
	t.finalize(id, at, root)
	return id
}

func TestTailSamplingKeepsErrorsAndSlow(t *testing.T) {
	tr := New(Config{RingSize: 2, KeepSlow: 1, SampleRate: 0.5})
	tr.randFloat = func() float64 { return 0.99 } // never admit once full

	slowID := fakeTrace(tr, "/v1/partition", 500*time.Millisecond, false)
	errID := fakeTrace(tr, "/v1/partition", time.Millisecond, true)
	var lastID TraceID
	for i := 0; i < 10; i++ {
		lastID = fakeTrace(tr, "/v1/partition", time.Millisecond, false)
	}

	if tr.Get(slowID) == nil {
		t.Fatalf("slowest trace evicted under pressure")
	}
	if tr.Get(errID) == nil {
		t.Fatalf("error trace evicted under pressure")
	}
	st := tr.Stats()
	if st.KeptError != 1 {
		t.Fatalf("kept_error = %d, want 1", st.KeptError)
	}
	if st.KeptSlow != 1 {
		t.Fatalf("kept_slow = %d, want 1", st.KeptSlow)
	}
	// Ring size 2: the fast floods fill it, then every further one is
	// sampled out (randFloat pinned above the rate).
	if st.SampledOut != 8 {
		t.Fatalf("sampled_out = %d, want 8", st.SampledOut)
	}
	if tr.Get(lastID) != nil {
		t.Fatalf("sampled-out trace still retrievable")
	}
	if st.Depth != 4 { // 2 sampled + 1 error + 1 slow
		t.Fatalf("depth = %d, want 4", st.Depth)
	}
	if st.Capacity != 2 {
		t.Fatalf("capacity = %d, want 2", st.Capacity)
	}
	if got := len(tr.Traces()); got != 4 {
		t.Fatalf("Traces() returned %d, want 4", got)
	}
}

func TestTailSamplingSlowKDisplacement(t *testing.T) {
	tr := New(Config{RingSize: 1, KeepSlow: 2, SampleRate: 0.5})
	tr.randFloat = func() float64 { return 0.99 }

	aID := fakeTrace(tr, "/v1/energy", 10*time.Millisecond, false)
	bID := fakeTrace(tr, "/v1/energy", 20*time.Millisecond, false)
	cID := fakeTrace(tr, "/v1/energy", 30*time.Millisecond, false) // displaces a
	dID := fakeTrace(tr, "/v1/simulate", 1*time.Millisecond, false)

	if tr.Get(bID) == nil || tr.Get(cID) == nil {
		t.Fatalf("slowest-2 for /v1/energy not both retained")
	}
	if tr.Get(dID) == nil {
		t.Fatalf("first trace for a fresh endpoint not retained in its slow pool")
	}
	if got := tr.Stats().KeptSlow; got != 4 {
		t.Fatalf("kept_slow = %d, want 4", got)
	}
	if tr.Get(aID) != nil {
		t.Fatalf("displaced slow trace still retrievable")
	}
}

func TestTraceEndpointAndError(t *testing.T) {
	tr := New(Config{RingSize: 4})
	ctx, root := tr.StartRoot(context.Background(), "GET /thing", SpanContext{}, String("endpoint", "/v1/thing"))
	_, child := Start(ctx, "compile")
	child.End()
	root.MarkError()
	root.End()

	got := tr.Traces()[0]
	if !got.Error {
		t.Fatalf("MarkError not reflected on finished trace")
	}
	if ep := got.Endpoint(); ep != "/v1/thing" {
		t.Fatalf("Endpoint() = %q, want /v1/thing", ep)
	}

	// Without the attribute the root span name is the fallback.
	_, root2 := tr.StartRoot(context.Background(), "hsweep sweep", SpanContext{})
	root2.End()
	if ep := tr.Traces()[0].Endpoint(); ep != "hsweep sweep" {
		t.Fatalf("Endpoint() fallback = %q, want root name", ep)
	}
}

func TestOnFinalizeHook(t *testing.T) {
	tr := New(Config{RingSize: 1, KeepSlow: 1, SampleRate: 0.5})
	tr.randFloat = func() float64 { return 0.99 }
	type obsv struct {
		id   TraceID
		kept bool
	}
	var seen []obsv
	tr.SetOnFinalize(func(trc *Trace, kept bool) { seen = append(seen, obsv{trc.ID, kept}) })

	a := fakeTrace(tr, "/v1/partition", 10*time.Millisecond, false) // slow-kept
	b := fakeTrace(tr, "/v1/partition", time.Millisecond, false)    // fills ring
	c := fakeTrace(tr, "/v1/partition", time.Millisecond, false)    // sampled out

	want := []obsv{{a, true}, {b, true}, {c, false}}
	if len(seen) != len(want) {
		t.Fatalf("hook ran %d times, want %d", len(seen), len(want))
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("hook call %d = %+v, want %+v", i, seen[i], want[i])
		}
	}
}

func TestStageAggObserve(t *testing.T) {
	agg := NewStageAgg(nil, nil)
	tr := New(Config{RingSize: 4})
	ctx, root := tr.StartRoot(context.Background(), "GET /v1/partition", SpanContext{}, String("endpoint", "/v1/partition"))
	_, lookup := Start(ctx, "cache.lookup")
	lookup.End()
	cctx, compile := Start(ctx, "compile")
	_, move := Start(cctx, "move") // not a stage; must not aggregate
	move.End()
	compile.End()
	root.End()
	trace := tr.Traces()[0]

	agg.Observe(trace, true)
	agg.Observe(trace, true)

	snaps := agg.Snapshot()
	if len(snaps) != 2 {
		t.Fatalf("got %d stage histograms, want 2 (cache.lookup, compile): %+v", len(snaps), snaps)
	}
	for _, s := range snaps {
		if s.Endpoint != "/v1/partition" {
			t.Fatalf("endpoint = %q", s.Endpoint)
		}
		if s.Stage != "cache.lookup" && s.Stage != "compile" {
			t.Fatalf("unexpected stage %q", s.Stage)
		}
		if s.Count != 2 {
			t.Fatalf("stage %s count = %d, want 2", s.Stage, s.Count)
		}
		if len(s.Counts) != len(DefaultStageBuckets)+1 || len(s.Exemplars) != len(s.Counts) {
			t.Fatalf("bucket/exemplar slot mismatch")
		}
		var total int64
		sawEx := false
		for i, c := range s.Counts {
			total += c
			if c > 0 && s.Exemplars[i].TraceID == trace.ID.String() {
				sawEx = true
			}
		}
		if total != 2 {
			t.Fatalf("stage %s bucket counts sum to %d, want 2", s.Stage, total)
		}
		if !sawEx {
			t.Fatalf("stage %s has no exemplar in its populated bucket", s.Stage)
		}
	}
}

func TestStageAggUnkeptTraceLeavesNoExemplar(t *testing.T) {
	agg := NewStageAgg(nil, nil)
	tr := New(Config{RingSize: 4})
	ctx, root := tr.StartRoot(context.Background(), "r", SpanContext{}, String("endpoint", "/v1/x"))
	_, c := Start(ctx, "compile")
	c.End()
	root.End()
	agg.Observe(tr.Traces()[0], false)

	snaps := agg.Snapshot()
	if len(snaps) != 1 || snaps[0].Count != 1 {
		t.Fatalf("unkept trace not counted: %+v", snaps)
	}
	for _, ex := range snaps[0].Exemplars {
		if ex.TraceID != "" {
			t.Fatalf("unkept trace left exemplar %q", ex.TraceID)
		}
	}
}

func TestStageAggNilSafety(t *testing.T) {
	var agg *StageAgg
	agg.Observe(&Trace{}, true)
	if agg.Snapshot() != nil || agg.Buckets() != nil {
		t.Fatalf("nil StageAgg not inert")
	}
}

func TestCollectorSamples(t *testing.T) {
	calls := 0
	col := NewCollector(CollectorConfig{
		Interval: time.Hour,
		RingSize: 3,
		Counters: func() map[string]int64 {
			calls++
			return map[string]int64{"requests": int64(10 * calls)}
		},
	})
	if col.Capacity() != 3 {
		t.Fatalf("capacity = %d", col.Capacity())
	}
	for i := 0; i < 5; i++ {
		col.SampleNow()
	}
	samples := col.Samples()
	if len(samples) != 3 {
		t.Fatalf("ring kept %d samples, want 3", len(samples))
	}
	last := samples[len(samples)-1]
	if last.HeapBytes == 0 || last.Goroutines == 0 {
		t.Fatalf("runtime metrics not populated: %+v", last)
	}
	if last.Counters["requests"] != 10 {
		t.Fatalf("counter delta = %d, want 10", last.Counters["requests"])
	}
	latest, ok := col.Latest()
	if !ok || latest.UnixMs != last.UnixMs {
		t.Fatalf("Latest() disagrees with Samples()")
	}
	if samples[0].UnixMs > last.UnixMs {
		t.Fatalf("samples not oldest-first")
	}
}

func TestCollectorStartStop(t *testing.T) {
	col := NewCollector(CollectorConfig{Interval: time.Millisecond, RingSize: 8})
	col.Start()
	col.Start() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for len(col.Samples()) < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	col.Stop()
	col.Stop() // idempotent
	n := len(col.Samples())
	if n < 2 {
		t.Fatalf("collector took %d samples, want >= 2", n)
	}
	time.Sleep(5 * time.Millisecond)
	if len(col.Samples()) != n {
		t.Fatalf("collector still sampling after Stop")
	}

	var nilCol *Collector
	nilCol.Start()
	nilCol.Stop()
	if nilCol.Samples() != nil || nilCol.Capacity() != 0 {
		t.Fatalf("nil collector not inert")
	}
	if _, ok := nilCol.Latest(); ok {
		t.Fatalf("nil collector has a latest sample")
	}
}
