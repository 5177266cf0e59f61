package obs

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	ctx, root := tr.StartRoot(context.Background(), "root", SpanContext{})
	if root != nil {
		t.Fatalf("nil tracer StartRoot returned a span")
	}
	if SpanFrom(ctx) != nil {
		t.Fatalf("nil tracer StartRoot attached a span to ctx")
	}
	ctx2, child := Start(ctx, "child")
	if child != nil || ctx2 != ctx {
		t.Fatalf("Start on span-less ctx must return (ctx, nil)")
	}
	// All methods must be no-ops on nil.
	child.Set(String("k", "v"))
	child.End()
	if got := child.TraceID(); got != "" {
		t.Fatalf("nil span TraceID = %q", got)
	}
	if tp := child.Traceparent(); tp != "" {
		t.Fatalf("nil span Traceparent = %q", tp)
	}
	if st := tr.Stats(); st != (Stats{}) {
		t.Fatalf("nil tracer Stats = %+v", st)
	}
	if tr.Get(TraceID{1}) != nil || tr.Traces() != nil {
		t.Fatalf("nil tracer Get/Traces must be empty")
	}
}

func TestSpanTreeAndRing(t *testing.T) {
	// Hour-long traces fill both endpoints' slow pools first, so every real
	// trace below lands in the sampled ring, which SampleRate 1 makes plain
	// overwrite-oldest.
	tr := New(Config{Service: "svc", RingSize: 2, KeepSlow: 1, SampleRate: 1})
	for _, ep := range []string{"/v1/x", "later"} {
		fakeTrace(tr, ep, time.Hour, false)
	}
	ctx, root := tr.StartRoot(context.Background(), "req", SpanContext{}, String("endpoint", "/v1/x"))
	cctx, child := Start(ctx, "compute")
	_, grand := Start(cctx, "score", Int("candidates", 7))
	grand.End()
	child.Set(Bool("hit", false))
	child.End()
	root.End()

	traces := tr.Traces()
	if len(traces) != 3 {
		t.Fatalf("want 1 sampled + 2 slow traces, got %d", len(traces))
	}
	got := traces[0]
	if got.Root != "req" || got.Service != "svc" || len(got.Spans) != 3 {
		t.Fatalf("trace = root %q service %q spans %d", got.Root, got.Service, len(got.Spans))
	}
	byName := map[string]SpanData{}
	for _, sp := range got.Spans {
		byName[sp.Name] = sp
	}
	if byName["compute"].ParentID != byName["req"].SpanID {
		t.Fatalf("compute's parent is not the root")
	}
	if byName["score"].ParentID != byName["compute"].SpanID {
		t.Fatalf("score's parent is not compute")
	}
	if tr.Get(got.ID) != got {
		t.Fatalf("Get(%s) did not find the trace", got.ID)
	}
	st := tr.Stats()
	if st.Depth != 3 || st.Capacity != 2 || st.Spans != 3 || st.DroppedTraces != 0 || st.KeptSlow != 2 {
		t.Fatalf("stats = %+v", st)
	}

	// Two more traces overflow the 2-slot ring and evict the first.
	for i := 0; i < 2; i++ {
		_, r := tr.StartRoot(context.Background(), "later", SpanContext{})
		r.End()
	}
	st = tr.Stats()
	if st.Depth != 4 || st.DroppedTraces != 1 || st.KeptSlow != 2 {
		t.Fatalf("after overflow: %+v", st)
	}
	if tr.Get(got.ID) != nil {
		t.Fatalf("evicted trace still retrievable")
	}
	if list := tr.Traces(); len(list) != 4 || list[0].Root != "later" || list[1].Root != "later" {
		t.Fatalf("Traces() after overflow = %d entries", len(list))
	}
}

func TestMaxSpansBound(t *testing.T) {
	tr := New(Config{RingSize: 1, MaxSpans: 3})
	ctx, root := tr.StartRoot(context.Background(), "r", SpanContext{})
	for i := 0; i < 5; i++ {
		_, s := Start(ctx, "c")
		s.End()
	}
	root.End()
	got := tr.Traces()[0]
	if len(got.Spans) != 3 || got.DroppedSpans != 3 {
		// 5 children + 1 root = 6 ends; 3 recorded, 3 dropped (root among
		// the dropped — the bound is strict).
		t.Fatalf("spans %d dropped %d", len(got.Spans), got.DroppedSpans)
	}
	if st := tr.Stats(); st.DroppedSpans != 3 || st.Spans != 3 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDoubleEndAndLateAttrs(t *testing.T) {
	tr := New(Config{RingSize: 4})
	_, root := tr.StartRoot(context.Background(), "r", SpanContext{})
	root.End()
	root.Set(String("late", "x"))
	root.End()
	if st := tr.Stats(); st.Depth != 1 || st.Spans != 1 {
		t.Fatalf("double End recorded twice: %+v", st)
	}
	if attrs := tr.Traces()[0].Spans[0].Attrs; len(attrs) != 0 {
		t.Fatalf("late attr recorded: %+v", attrs)
	}
}

func TestRemoteParentJoinsTrace(t *testing.T) {
	tr := New(Config{RingSize: 4, Service: "b"})
	remote := SpanContext{TraceID: TraceID{1, 2}, SpanID: SpanID{3, 4}}
	_, root := tr.StartRoot(context.Background(), "fwd", remote)
	sc := root.Context()
	if sc.TraceID != remote.TraceID {
		t.Fatalf("root did not adopt remote trace ID")
	}
	if sc.SpanID == remote.SpanID || sc.SpanID.IsZero() {
		t.Fatalf("root must mint its own span ID")
	}
	root.End()
	got := tr.Get(remote.TraceID)
	if got == nil || got.Spans[0].ParentID != remote.SpanID {
		t.Fatalf("root's parent is not the remote span")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: TraceID{0xab, 1: 0xcd, 15: 0x01}, SpanID: SpanID{0x12, 7: 0x34}}
	h := sc.Traceparent()
	if !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") || len(h) != 55 {
		t.Fatalf("traceparent %q", h)
	}
	back, ok := ParseTraceparent(h)
	if !ok || back != sc {
		t.Fatalf("round trip: %q -> %+v ok=%v", h, back, ok)
	}
	if tp := (SpanContext{}).Traceparent(); tp != "" {
		t.Fatalf("zero context traceparent = %q", tp)
	}

	bad := []string{
		"",
		"00",
		"00-xyz-0000000000000001-01",
		"00-" + strings.Repeat("0", 32) + "-1234567890abcdef-01",                // zero trace id
		"00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("0", 16) + "-01", // zero span id
		"ff-" + strings.Repeat("a", 32) + "-1234567890abcdef-01",                // invalid version
		"00-" + strings.Repeat("a", 31) + "-1234567890abcdef-01",                // short trace id
		"00-" + strings.Repeat("a", 32) + "-1234567890abcdef-zz",                // bad flags
		"00-" + strings.Repeat("A", 32) + "-1234567890abcdef-01",                // uppercase hex is invalid
	}
	for _, h := range bad {
		if _, ok := ParseTraceparent(h); ok {
			t.Fatalf("ParseTraceparent(%q) accepted", h)
		}
	}
	// Future versions with extra fields are accepted.
	if _, ok := ParseTraceparent("01-" + strings.Repeat("a", 32) + "-1234567890abcdef-01-extra"); !ok {
		t.Fatalf("future version rejected")
	}
}

func TestWireJSONRoundTrip(t *testing.T) {
	tr := New(Config{Service: "svc", RingSize: 1})
	ctx, root := tr.StartRoot(context.Background(), "r", SpanContext{}, String("endpoint", "/v1/x"), Int("status", 200))
	_, c := Start(ctx, "child", Bool("hit", true), Int64("bytes", 42))
	c.End()
	root.End()
	orig := tr.Traces()[0]

	raw, err := json.Marshal(orig.JSON())
	if err != nil {
		t.Fatal(err)
	}
	var tj TraceJSON
	if err := json.Unmarshal(raw, &tj); err != nil {
		t.Fatal(err)
	}
	back, err := FromJSON(tj)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != orig.ID || back.Service != "svc" || back.Root != "r" || len(back.Spans) != 2 {
		t.Fatalf("round trip mangled trace: %+v", back)
	}
	for i, sp := range back.Spans {
		if sp.SpanID != orig.Spans[i].SpanID || sp.ParentID != orig.Spans[i].ParentID {
			t.Fatalf("span %d ids mangled", i)
		}
	}
	if _, err := FromJSON(TraceJSON{TraceID: "nope"}); err == nil {
		t.Fatalf("bad trace_id accepted")
	}
	if _, err := FromJSON(TraceJSON{TraceID: strings.Repeat("a", 32), Spans: []SpanJSON{{SpanID: "short"}}}); err == nil {
		t.Fatalf("bad span_id accepted")
	}
}

func TestChromeTrace(t *testing.T) {
	tr := New(Config{Service: "replica-a", RingSize: 1})
	ctx, root := tr.StartRoot(context.Background(), "POST /v1/partition", SpanContext{})
	_, c := Start(ctx, "cache.lookup", String("role", "leader"))
	time.Sleep(time.Millisecond)
	c.End()
	root.End()
	a := tr.Traces()[0]

	// A second service's view of the same trace.
	tr2 := New(Config{Service: "replica-b", RingSize: 1})
	_, root2 := tr2.StartRoot(context.Background(), "POST /v1/partition", SpanContext{TraceID: a.ID, SpanID: a.Spans[len(a.Spans)-1].SpanID})
	root2.End()
	b := tr2.Traces()[0]

	out := ChromeTrace([]*Trace{a, b})
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("export is not JSON: %v\n%s", err, out)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q", doc.DisplayTimeUnit)
	}
	pids := map[int]bool{}
	names := map[string]int{}
	var procNames []string
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				procNames = append(procNames, ev.Args["name"].(string))
			}
		case "X":
			pids[ev.Pid] = true
			names[ev.Name]++
			if ev.Ts < 0 || ev.Dur < 0 {
				t.Fatalf("negative ts/dur: %+v", ev)
			}
			if ev.Args["trace_id"] != a.ID.String() {
				t.Fatalf("event missing trace_id arg: %+v", ev)
			}
		default:
			t.Fatalf("unexpected ph %q", ev.Ph)
		}
	}
	if len(pids) != 2 {
		t.Fatalf("want 2 pids, got %v", pids)
	}
	if len(procNames) != 2 || procNames[0] != "replica-a" || procNames[1] != "replica-b" {
		t.Fatalf("process names %v", procNames)
	}
	if names["POST /v1/partition"] != 2 || names["cache.lookup"] != 1 {
		t.Fatalf("span events %v", names)
	}
}

func TestAssignLanesNestsOverlaps(t *testing.T) {
	mk := func(startUs, durUs int64) SpanData {
		return SpanData{Start: time.UnixMicro(startUs), Duration: time.Duration(durUs) * time.Microsecond}
	}
	// root [0,100]; child A [10,40]; child B [20,60] overlaps A -> new
	// lane; child C [50,90] fits back after A ended... A's lane top is
	// root (A popped at 50), so C nests under root in lane 0.
	spans := []SpanData{mk(0, 100), mk(10, 30), mk(20, 40), mk(50, 40)}
	lanes := assignLanes(spans)
	if lanes[0] != 0 || lanes[1] != 0 {
		t.Fatalf("root/A lanes = %v", lanes)
	}
	if lanes[2] == 0 {
		t.Fatalf("overlapping B shares lane 0: %v", lanes)
	}
	if lanes[3] != 0 {
		t.Fatalf("C should nest in lane 0 after A: %v", lanes)
	}
}
