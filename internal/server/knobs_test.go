package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"hybridpart"
	"hybridpart/internal/obs"
)

// invalidWireKnobs mutates a valid knob set into one Options.Validate
// refuses, one case per refusal, covering every non-boolean Options field.
var invalidWireKnobs = []struct {
	name string
	edit func(*hybridpart.Options)
}{
	{"objective", func(o *hybridpart.Options) { o.Objective = 7 }},
	{"order", func(o *hybridpart.Options) { o.Order = 9 }},
	{"maxmoves", func(o *hybridpart.Options) { o.MaxMoves = -2 }},
	{"walu", func(o *hybridpart.Options) { o.WeightALU = -3 }},
	{"simframes", func(o *hybridpart.Options) { o.SimFrames = -4 }},
	{"simports", func(o *hybridpart.Options) { o.SimPorts = -4 }},
	{"afpga", func(o *hybridpart.Options) { o.AFPGA = 2 }},
	{"reconfig", func(o *hybridpart.Options) { o.ReconfigCycles = -1 }},
	{"regions", func(o *hybridpart.Options) { o.Regions = -1 }},
	{"numcgcs", func(o *hybridpart.Options) { o.NumCGCs = 0 }},
	{"cgcrows", func(o *hybridpart.Options) { o.CGCRows = 0 }},
	{"cgccols", func(o *hybridpart.Options) { o.CGCCols = -1 }},
	{"memports", func(o *hybridpart.Options) { o.MemPorts = 0 }},
	{"clockratio", func(o *hybridpart.Options) { o.ClockRatio = 0 }},
	{"regbank", func(o *hybridpart.Options) { o.RegBankWords = -1 }},
	{"commword", func(o *hybridpart.Options) { o.CommCyclesPerWord = -1 }},
	{"commsync", func(o *hybridpart.Options) { o.CommSyncCycles = -1 }},
	{"costs", func(o *hybridpart.Options) { o.Costs = hybridpart.DefaultOpCosts(); o.Costs.AreaDiv = -1 }},
	{"constraint", func(o *hybridpart.Options) { o.Constraint = -1 }},
	{"wmul", func(o *hybridpart.Options) { o.WeightMul = -1 }},
	{"wdiv", func(o *hybridpart.Options) { o.WeightDiv = -1 }},
	{"wmem", func(o *hybridpart.Options) { o.WeightMem = -1 }},
	{"rerank", func(o *hybridpart.Options) { o.RerankK = -2 }},
	{"rerank-with-sim", func(o *hybridpart.Options) { o.Objective = hybridpart.ObjectiveSimulated; o.RerankK = 1 }},
}

// TestInvalidOptionsRefusedBeforeWork sends every invalid knob set as an
// "options" override to /v1/partition, /v1/simulate and
// /v1/partition-energy, and a zero constraint to the two timing-constrained
// endpoints. Each must be a 400 carrying the validator's message, with no
// cache miss counted and no admission tokens taken; a source workload must
// not even be compiled. A valid override, sent last,
// shows that each of those measurements moves when work is done.
func TestInvalidOptionsRefusedBeforeWork(t *testing.T) {
	tracer := obs.New(obs.Config{Service: "knobs", RingSize: 8})
	s := newTestServer(t, Config{MaxSimCost: 1000, Tracer: tracer})
	clk := &fakeClock{t: time.Unix(1000, 0)}
	s.admit.now, s.admit.last = clk.now, clk.t

	misses := func() uint64 {
		var st StatsJSON
		if err := json.Unmarshal(get(t, s, "/debug/stats").Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st.Cache.Misses
	}
	// A valid base with two frames: on every endpoint its run costs
	// admission tokens.
	base := hybridpart.DefaultOptions()
	base.SimFrames = 2
	body := func(workload string, o hybridpart.Options, endpoint string) string {
		raw, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		extra := ""
		if endpoint == "/v1/partition-energy" {
			extra = `,"energy_budget":1e12`
		}
		return fmt.Sprintf(`{%s,"options":%s%s}`, workload, raw, extra)
	}
	endpoints := []string{"/v1/partition", "/v1/simulate", "/v1/partition-energy"}

	for _, tc := range invalidWireKnobs {
		o := base
		tc.edit(&o)
		want := o.Validate()
		if want == nil {
			t.Fatalf("%s: Validate accepted %+v", tc.name, o)
		}
		for _, ep := range endpoints {
			rec := post(t, s, ep, body(`"benchmark":"ofdm","seed":1`, o, ep))
			var e ErrorJSON
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusBadRequest ||
				e.Error != want.Error() {
				t.Fatalf("%s on %s: status %d, body %s; want 400 %q", tc.name, ep, rec.Code, rec.Body, want)
			}
		}
	}
	// A zero constraint is a valid knob set, but a timing-constrained run
	// cannot use it; only the energy endpoint, which never reads it,
	// accepts it (checked below, once the counters are read).
	zero := base
	zero.Constraint = 0
	for _, ep := range endpoints[:2] {
		rec := post(t, s, ep, body(`"benchmark":"ofdm","seed":1`, zero, ep))
		var e ErrorJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusBadRequest ||
			e.Error != "hybridpart: timing constraint must be positive, got 0" {
			t.Fatalf("zero constraint on %s: status %d, body %s; want 400", ep, rec.Code, rec.Body)
		}
	}
	invalid := base
	invalid.MaxMoves = -2
	src := fmt.Sprintf(`"source":%q`, firSrc)
	rec := post(t, s, "/v1/partition", body(src, invalid, "/v1/partition"))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("invalid source request: status %d, want 400: %s", rec.Code, rec.Body)
	}
	id, ok := obs.ParseTraceID(rec.Header().Get("X-Trace-Id"))
	if !ok {
		t.Fatal("no trace ID on the refused source request")
	}
	if sp := findSpan(waitTrace(t, tracer, id), "compile"); sp != nil {
		t.Fatal("a refused source request was compiled")
	}
	if n := misses(); n != 0 {
		t.Fatalf("refused requests counted %d cache misses", n)
	}
	if got := s.admit.level(); got != 1000 {
		t.Fatalf("refused requests took admission tokens: %v of 1000 left", got)
	}

	rec = post(t, s, "/v1/partition", body(src, base, "/v1/partition"))
	if rec.Code != http.StatusOK {
		t.Fatalf("valid source request: status %d: %s", rec.Code, rec.Body)
	}
	if id, ok = obs.ParseTraceID(rec.Header().Get("X-Trace-Id")); !ok {
		t.Fatal("no trace ID on the valid source request")
	}
	if findSpan(waitTrace(t, tracer, id), "compile") == nil {
		t.Fatal("the valid source request records no compile span")
	}
	if misses() != 1 || s.admit.level() != 998 {
		t.Fatalf("valid request: %d misses, %v tokens left; want 1 and 998", misses(), s.admit.level())
	}
	if rec := post(t, s, endpoints[2], body(src, zero, endpoints[2])); rec.Code != http.StatusOK {
		t.Fatalf("zero constraint on %s: status %d, want 200: %s", endpoints[2], rec.Code, rec.Body)
	}
}
