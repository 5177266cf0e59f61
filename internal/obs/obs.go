// Package obs is a dependency-free tracing subsystem: request-scoped span
// trees with monotonic timestamps and attributes, carried via
// context.Context so call signatures below the instrumented facade do not
// change. Finished traces are tail-sampled into bounded in-memory pools;
// export.go renders them as Chrome trace-event JSON loadable in Perfetto.
//
// The design keeps the disabled path near-free: obs.Start on a context
// without a span is one context.Value lookup returning a nil *Span, and
// every *Span method is nil-safe, so instrumented code never branches on
// "is tracing on". W3C traceparent parsing/formatting lets a fleet of
// replicas stitch one request's spans into a single distributed trace.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	mrand "math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one end-to-end request across services (16 bytes,
// rendered as 32 lowercase hex digits per W3C trace-context).
type TraceID [16]byte

// SpanID identifies one span within a trace (8 bytes, 16 hex digits).
type SpanID [8]byte

func (id TraceID) String() string { return hex.EncodeToString(id[:]) }
func (id TraceID) IsZero() bool   { return id == TraceID{} }
func (id SpanID) String() string  { return hex.EncodeToString(id[:]) }
func (id SpanID) IsZero() bool    { return id == SpanID{} }

// ParseTraceID decodes 32 lowercase hex digits (uppercase is invalid per
// W3C trace-context); ok is false for anything else or for the all-zero ID.
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if len(s) != 32 || !isHex(s) {
		return id, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return TraceID{}, false
	}
	return id, !id.IsZero()
}

// ParseSpanID decodes 16 lowercase hex digits; ok is false otherwise or
// for all-zero.
func ParseSpanID(s string) (SpanID, bool) {
	var id SpanID
	if len(s) != 16 || !isHex(s) {
		return id, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return SpanID{}, false
	}
	return id, !id.IsZero()
}

// SpanContext is the wire-visible identity of a span: what crosses a
// process boundary in a traceparent header.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// Attr is one key/value annotation on a span. Values are restricted to
// string, bool, int64, and float64 by the constructors below so every
// attribute survives a JSON round trip between replicas.
type Attr struct {
	Key   string
	Value any
}

func String(k, v string) Attr      { return Attr{Key: k, Value: v} }
func Bool(k string, v bool) Attr   { return Attr{Key: k, Value: v} }
func Int(k string, v int) Attr     { return Attr{Key: k, Value: int64(v)} }
func Int64(k string, v int64) Attr { return Attr{Key: k, Value: v} }

// SpanData is one finished span as recorded into its trace.
type SpanData struct {
	SpanID   SpanID
	ParentID SpanID // zero for a root with no parent (local or remote)
	Name     string
	Start    time.Time     // wall clock at Start (carries monotonic reading)
	Duration time.Duration // monotonic Start→End
	Attrs    []Attr
}

// Trace is one finished trace: every span this service recorded under one
// trace ID, finalized when the root span ended.
type Trace struct {
	ID      TraceID
	Service string
	Root    string // root span name
	Start   time.Time
	// Duration is the root span's duration.
	Duration time.Duration
	// Spans holds every recorded span, root included, in end order.
	Spans []SpanData
	// DroppedSpans counts spans discarded because the per-trace bound was
	// hit; the trace is still coherent, just truncated.
	DroppedSpans int
	// Error is set when any span in the trace called MarkError (the server
	// marks 4xx/5xx responses); tail-sampled retention always keeps error
	// traces.
	Error bool
}

// Endpoint returns the trace's grouping key for per-endpoint aggregation:
// the root span's "endpoint" attribute when present, else the root span
// name. The root span is recorded last, so the scan walks backwards.
func (tr *Trace) Endpoint() string {
	for i := len(tr.Spans) - 1; i >= 0; i-- {
		sp := &tr.Spans[i]
		if sp.Name != tr.Root {
			continue
		}
		for _, a := range sp.Attrs {
			if a.Key == "endpoint" {
				if s, ok := a.Value.(string); ok {
					return s
				}
			}
		}
		break
	}
	return tr.Root
}

// Span is one live timed operation. A nil *Span is valid and inert: every
// method returns immediately, which is the disabled-tracing fast path.
type Span struct {
	tracer *Tracer
	at     *activeTrace
	sc     SpanContext
	parent SpanID
	name   string
	start  time.Time
	root   bool

	mu    sync.Mutex
	attrs []Attr
	ended bool
}

// Context returns the span's identity; zero for a nil span.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// TraceID returns the span's trace ID string, or "" for a nil span —
// convenient for log attributes.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.sc.TraceID.String()
}

// Set appends attributes. Safe on a nil span and after End (late attrs on
// an ended span are dropped).
func (s *Span) Set(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.attrs = append(s.attrs, attrs...)
	}
	s.mu.Unlock()
}

// MarkError flags the span's whole trace as an error (the server calls it
// for 4xx/5xx responses). Under tail-sampled retention error traces are
// always kept. Safe on a nil span and after End.
func (s *Span) MarkError() {
	if s == nil {
		return
	}
	s.at.mu.Lock()
	s.at.err = true
	s.at.mu.Unlock()
}

// End records the span into its trace with a monotonic duration. The first
// End wins; later calls are no-ops. Ending a root span finalizes the whole
// trace into the tracer's ring, so instrument synchronously: children end
// before their root (a child still live at root End is simply not
// recorded).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()

	data := SpanData{
		SpanID:   s.sc.SpanID,
		ParentID: s.parent,
		Name:     s.name,
		Start:    s.start,
		Duration: time.Since(s.start),
		Attrs:    attrs,
	}
	s.tracer.record(s.at, data)
	if s.root {
		s.tracer.finalize(s.sc.TraceID, s.at, data)
	}
}

// activeTrace accumulates spans for one in-flight trace.
type activeTrace struct {
	mu      sync.Mutex
	spans   []SpanData
	dropped int
	err     bool
}

// Config sizes a Tracer.
type Config struct {
	// Service names this process in exported traces (e.g. the replica's
	// -self URL, or "hpart"). Defaults to "hybridpart".
	Service string
	// RingSize bounds the sampled ring of finished traces kept for
	// /debug/traces (the error and slow pools are extra). Default 256.
	RingSize int
	// MaxSpans bounds spans recorded per trace (sweeps can emit one span
	// per move per cell). Default 4096.
	MaxSpans int
	// KeepSlow sizes tail-sampled retention: error traces are always kept
	// (in a side pool of max(1, RingSize/4) slots), the KeepSlow slowest
	// traces per endpoint are always kept, and the rest go to the sampled
	// ring — admitted unconditionally while it has room, then with
	// probability SampleRate. Values <= 0 default to 4 (hservd's
	// -trace-keep-slow default).
	KeepSlow int
	// SampleRate is the admission probability for unremarkable traces once
	// the sampled ring is full. Values <= 0 default to 0.25; >= 1 always
	// admits, making the sampled ring plain overwrite-oldest.
	SampleRate float64
}

// Stats is a point-in-time summary of the tracer for /debug/stats and
// /metrics.
type Stats struct {
	Depth         int   `json:"depth"`          // finished traces currently retained (all pools)
	Capacity      int   `json:"capacity"`       // sampled-ring bound (error/slow pools are extra)
	DroppedTraces int64 `json:"dropped_traces"` // finished traces evicted to admit newer ones
	DroppedSpans  int64 `json:"dropped_spans"`  // spans discarded by the per-trace bound
	Spans         int64 `json:"spans"`          // spans recorded locally, ever (never counts peer-merged spans)
	// Tail-sampling policy counters.
	KeptError  int64 `json:"kept_error"`  // traces retained because they carried an error
	KeptSlow   int64 `json:"kept_slow"`   // traces retained as slowest-K for their endpoint
	SampledOut int64 `json:"sampled_out"` // unremarkable traces dropped by probabilistic sampling
}

// Tracer records span trees into bounded pools of finished traces. The
// zero value is not usable; construct with New. A nil *Tracer is valid:
// StartRoot on it returns a nil span, disabling tracing for the request.
type Tracer struct {
	service    string
	maxSpans   int
	keepSlow   int
	sampleRate float64
	randFloat  func() float64 // admission coin; swappable in tests

	// onFinalize, when set, observes every finished trace (see
	// SetOnFinalize). Written once before serving, read per finalize.
	onFinalize func(tr *Trace, kept bool)

	// spans/droppedSpans are atomics: they are bumped per span from
	// whatever goroutine ends it (sweep scoring pools included), while mu
	// guards only the finished-trace ring.
	spans        atomic.Int64
	droppedSpans atomic.Int64

	mu            sync.Mutex
	ring          []*Trace // sampled pool; ring[next] is the oldest once full
	next          int
	count         int
	droppedTraces int64

	// Tail-sampling pools beside the sampled ring.
	errRing           []*Trace // always-kept error traces, overwrite-oldest among themselves
	errNext, errCount int
	slow              map[string][]*Trace // per-endpoint slowest-K, sorted fastest-first
	keptError         int64
	keptSlow          int64
	sampledOut        int64
}

// New builds a Tracer; zero config fields take the documented defaults.
func New(cfg Config) *Tracer {
	if cfg.Service == "" {
		cfg.Service = "hybridpart"
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 256
	}
	if cfg.MaxSpans <= 0 {
		cfg.MaxSpans = 4096
	}
	if cfg.KeepSlow <= 0 {
		cfg.KeepSlow = 4
	}
	if cfg.SampleRate <= 0 {
		cfg.SampleRate = 0.25
	}
	return &Tracer{
		service:    cfg.Service,
		maxSpans:   cfg.MaxSpans,
		keepSlow:   cfg.KeepSlow,
		sampleRate: cfg.SampleRate,
		randFloat:  mrand.Float64,
		ring:       make([]*Trace, cfg.RingSize),
		errRing:    make([]*Trace, max(1, cfg.RingSize/4)),
		slow:       make(map[string][]*Trace),
	}
}

// SetOnFinalize registers fn to observe every finished trace right after
// it has been offered to the ring; kept reports whether retention kept it.
// fn runs outside the tracer's lock, on the goroutine that ended the root
// span. Set it once before the tracer sees traffic; nil disables. Nil-safe.
func (t *Tracer) SetOnFinalize(fn func(tr *Trace, kept bool)) {
	if t == nil {
		return
	}
	t.onFinalize = fn
}

// Service returns the tracer's service name ("" for nil).
func (t *Tracer) Service() string {
	if t == nil {
		return ""
	}
	return t.service
}

// StartRoot opens a new trace (or joins remote's trace when remote carries
// a nonzero TraceID, recording remote.SpanID as the root's parent — the
// cross-replica forward case) and returns a context carrying the root
// span. On a nil tracer it returns ctx unchanged and a nil span.
func (t *Tracer) StartRoot(ctx context.Context, name string, remote SpanContext, attrs ...Attr) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	sc := SpanContext{TraceID: remote.TraceID, SpanID: newSpanID()}
	if sc.TraceID.IsZero() {
		sc.TraceID = newTraceID()
	}
	s := &Span{
		tracer: t,
		at:     &activeTrace{},
		sc:     sc,
		parent: remote.SpanID,
		name:   name,
		start:  time.Now(),
		root:   true,
		attrs:  attrs,
	}
	return ContextWith(ctx, s), s
}

// Start opens a child of the span carried by ctx. When ctx carries no span
// (tracing disabled, or an uninstrumented entry point) it returns ctx
// unchanged and a nil span — one context.Value lookup, no allocation.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	parent := SpanFrom(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := &Span{
		tracer: parent.tracer,
		at:     parent.at,
		sc:     SpanContext{TraceID: parent.sc.TraceID, SpanID: newSpanID()},
		parent: parent.sc.SpanID,
		name:   name,
		start:  time.Now(),
		attrs:  attrs,
	}
	return ContextWith(ctx, s), s
}

type ctxKey struct{}

// ContextWith returns ctx carrying s; ctx itself when s is nil.
func ContextWith(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// SpanFrom returns the span carried by ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// record appends one finished span to its trace, honoring the per-trace
// bound.
func (t *Tracer) record(at *activeTrace, data SpanData) {
	at.mu.Lock()
	if len(at.spans) >= t.maxSpans {
		at.dropped++
		at.mu.Unlock()
		t.droppedSpans.Add(1)
		return
	}
	at.spans = append(at.spans, data)
	at.mu.Unlock()
	t.spans.Add(1)
}

// finalize retains a completed trace by tail sampling: errors always
// kept, slowest-K per endpoint always kept, the rest admitted to the
// sampled ring while it has room and probabilistically once it has not.
func (t *Tracer) finalize(id TraceID, at *activeTrace, root SpanData) {
	at.mu.Lock()
	tr := &Trace{
		ID:           id,
		Service:      t.service,
		Root:         root.Name,
		Start:        root.Start,
		Duration:     root.Duration,
		Spans:        at.spans,
		DroppedSpans: at.dropped,
		Error:        at.err,
	}
	at.spans = nil
	at.mu.Unlock()

	kept := true
	t.mu.Lock()
	switch {
	case tr.Error:
		t.keptError++
		if t.errRing[t.errNext] != nil {
			t.droppedTraces++
		}
		t.errRing[t.errNext] = tr
		t.errNext = (t.errNext + 1) % len(t.errRing)
		if t.errCount < len(t.errRing) {
			t.errCount++
		}
	case t.admitSlow(tr):
		t.keptSlow++
	case t.count < len(t.ring) || t.sampleRate >= 1 || t.randFloat() < t.sampleRate:
		t.admitSampled(tr)
	default:
		t.sampledOut++
		kept = false
	}
	t.mu.Unlock()

	if fn := t.onFinalize; fn != nil {
		fn(tr, kept)
	}
}

// admitSampled stores tr in the sampled ring, evicting the oldest entry
// when full. Caller holds t.mu.
func (t *Tracer) admitSampled(tr *Trace) {
	if t.ring[t.next] != nil {
		t.droppedTraces++
	}
	t.ring[t.next] = tr
	t.next = (t.next + 1) % len(t.ring)
	if t.count < len(t.ring) {
		t.count++
	}
}

// admitSlow keeps tr when it ranks among the keepSlow slowest traces for
// its endpoint, displacing the fastest of the current holders. Caller
// holds t.mu.
func (t *Tracer) admitSlow(tr *Trace) bool {
	ep := tr.Endpoint()
	list := t.slow[ep]
	if len(list) < t.keepSlow {
		list = append(list, tr)
		sort.SliceStable(list, func(i, j int) bool { return list[i].Duration < list[j].Duration })
		t.slow[ep] = list
		return true
	}
	if tr.Duration <= list[0].Duration {
		return false
	}
	// The displaced fastest holder is dropped rather than re-offered to the
	// sampled ring: it was only retained for being slow, and it no longer is.
	t.droppedTraces++
	list[0] = tr
	sort.SliceStable(list, func(i, j int) bool { return list[i].Duration < list[j].Duration })
	return true
}

// Stats returns ring/counter state; zero for a nil tracer.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	depth := t.count + t.errCount
	for _, list := range t.slow {
		depth += len(list)
	}
	return Stats{
		Depth:         depth,
		Capacity:      len(t.ring),
		DroppedTraces: t.droppedTraces,
		DroppedSpans:  t.droppedSpans.Load(),
		Spans:         t.spans.Load(),
		KeptError:     t.keptError,
		KeptSlow:      t.keptSlow,
		SampledOut:    t.sampledOut,
	}
}

// Traces returns the finished traces of every retention pool, newest
// first by start time.
func (t *Tracer) Traces() []*Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Trace, 0, t.count+t.errCount)
	for i := 1; i <= t.count; i++ {
		// next-1 is the newest slot; walk backwards.
		out = append(out, t.ring[((t.next-i)%len(t.ring)+len(t.ring))%len(t.ring)])
	}
	for i := 1; i <= t.errCount; i++ {
		out = append(out, t.errRing[((t.errNext-i)%len(t.errRing)+len(t.errRing))%len(t.errRing)])
	}
	for _, list := range t.slow {
		out = append(out, list...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	return out
}

// Get returns the finished trace with the given ID, or nil. All retention
// pools are searched.
func (t *Tracer) Get(id TraceID) *Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Newest first, so a re-used ID (never in practice) resolves to the
	// most recent trace.
	for i := 1; i <= t.count; i++ {
		tr := t.ring[((t.next-i)%len(t.ring)+len(t.ring))%len(t.ring)]
		if tr.ID == id {
			return tr
		}
	}
	for i := 1; i <= t.errCount; i++ {
		tr := t.errRing[((t.errNext-i)%len(t.errRing)+len(t.errRing))%len(t.errRing)]
		if tr.ID == id {
			return tr
		}
	}
	for _, list := range t.slow {
		for _, tr := range list {
			if tr.ID == id {
				return tr
			}
		}
	}
	return nil
}

func newTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		if _, err := rand.Read(id[:]); err != nil {
			panic("obs: crypto/rand failed: " + err.Error())
		}
	}
	return id
}

func newSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		if _, err := rand.Read(id[:]); err != nil {
			panic("obs: crypto/rand failed: " + err.Error())
		}
	}
	return id
}
