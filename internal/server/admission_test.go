package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"hybridpart"
)

// fakeClock drives a tokenBucket deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeBucket(rate float64) (*tokenBucket, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := &tokenBucket{rate: rate, burst: rate, now: clk.now}
	b.tokens = b.burst
	b.last = clk.t
	return b, clk
}

func TestTokenBucketRefill(t *testing.T) {
	b, clk := newFakeBucket(10)
	if ok, _ := b.take(10); !ok {
		t.Fatal("full bucket rejected its own capacity")
	}
	if ok, retry := b.take(1); ok {
		t.Fatal("empty bucket admitted")
	} else if retry != time.Second {
		// Deficit is 0.1s of refill but Retry-After is clamped to 1s.
		t.Fatalf("retry = %v, want 1s floor", retry)
	}
	clk.advance(time.Second)
	if ok, _ := b.take(10); !ok {
		t.Fatal("bucket did not refill after a full period")
	}
	if got := b.shed.Load(); got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}
}

func TestTokenBucketRetryAfterScalesWithDeficit(t *testing.T) {
	b, _ := newFakeBucket(2)
	if ok, _ := b.take(2); !ok {
		t.Fatal("capacity take rejected")
	}
	// Need 2 tokens at 2/sec from empty: 1s. Clamp does not apply.
	if ok, retry := b.take(2); ok || retry != time.Second {
		t.Fatalf("ok=%v retry=%v, want rejected after 1s", ok, retry)
	}
}

func TestTokenBucketOverBurstAlwaysShed(t *testing.T) {
	b, clk := newFakeBucket(4)
	clk.advance(time.Hour) // fully refilled, still must shed
	ok, retry := b.take(5)
	if ok {
		t.Fatal("cost over capacity admitted")
	}
	// The hint is a full refill of the cost: 5 units at 4/sec = 1.25s.
	if retry != 1250*time.Millisecond {
		t.Fatalf("retry = %v, want 1.25s", retry)
	}
	if got := b.level(); got != 4 {
		t.Fatalf("shed request drained tokens: level %v", got)
	}
}

func TestTokenBucketLevel(t *testing.T) {
	b, clk := newFakeBucket(10)
	b.take(6)
	if got := b.level(); got != 4 {
		t.Fatalf("level = %v, want 4", got)
	}
	clk.advance(250 * time.Millisecond)
	if got := b.level(); got != 6.5 {
		t.Fatalf("level = %v, want 6.5", got)
	}
	clk.advance(time.Hour)
	if got := b.level(); got != 10 {
		t.Fatalf("level = %v, want capacity 10", got)
	}
}

// TestSimCost prices the request classes: closed-form runs are free,
// sim-scored runs pay the trajectory factor, plain co-simulations pay
// their frame count, and energy runs, which never simulate, are free
// whatever objective or sim knobs their options carry.
func TestSimCost(t *testing.T) {
	opts := hybridpart.DefaultOptions()
	opts.Objective = hybridpart.ObjectiveModel
	if got := simCost("partition", opts); got != 0 {
		t.Fatalf("closed-form cost %d, want 0", got)
	}
	if got := simCost("simulate", opts); got != 1 {
		t.Fatalf("simulate default cost %d, want 1", got)
	}
	opts.SimFrames = 8
	if got := simCost("partition", opts); got != 8 {
		t.Fatalf("sim-knob cost %d, want 8", got)
	}
	sim := hybridpart.DefaultOptions()
	sim.Objective = hybridpart.ObjectiveSimulated
	if got, want := simCost("partition", sim), hybridpart.SimObjectiveReplayFactor; got != want {
		t.Fatalf("sim-objective cost %d, want %d", got, want)
	}
	sim.SimFrames = 4
	if got, want := simCost("partition", sim), 4*hybridpart.SimObjectiveReplayFactor; got != want {
		t.Fatalf("sim-objective frames cost %d, want %d", got, want)
	}
	rerank := hybridpart.DefaultOptions()
	rerank.Objective = hybridpart.ObjectiveModel
	rerank.RerankK = 3
	if got, want := simCost("partition", rerank), hybridpart.SimObjectiveReplayFactor; got != want {
		t.Fatalf("rerank cost %d, want %d", got, want)
	}
	for name, o := range map[string]hybridpart.Options{"model": opts, "sim": sim, "rerank": rerank} {
		if got := simCost("energy", o); got != 0 {
			t.Fatalf("energy cost with %s options %d, want 0", name, got)
		}
	}
}

// TestEnergyAdmittedUnderSimBudget: an energy request whose options name
// the simulated objective runs no simulation, so a budget below one
// sim-scored run still admits it, and its body is the one the plain
// request gets.
func TestEnergyAdmittedUnderSimBudget(t *testing.T) {
	s := newTestServer(t, Config{MaxSimCost: 8})
	opts := hybridpart.DefaultOptions()
	opts.Objective = hybridpart.ObjectiveSimulated
	ob, err := json.Marshal(opts)
	if err != nil {
		t.Fatal(err)
	}
	rec := post(t, s, "/v1/partition-energy",
		fmt.Sprintf(`{"benchmark":"ofdm","seed":1,"energy_budget":1.2e7,"options":%s}`, ob))
	if rec.Code != 200 {
		t.Fatalf("energy request with sim options: status %d, want 200: %s", rec.Code, rec.Body)
	}
	if got := s.admit.shed.Load(); got != 0 {
		t.Fatalf("shed = %d, want 0", got)
	}
	want, err := os.ReadFile("testdata/energy_ofdm_met.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("energy body with sim options\n%s differs from the plain request's\n%s", rec.Body, want)
	}
}

// TestAdmissionShedsSimBurst is the acceptance scenario: with a budget
// below the cost of one sim-scored run, default-objective requests are
// shed with 429 + Retry-After while closed-form requests keep succeeding.
func TestAdmissionShedsSimBurst(t *testing.T) {
	s := newTestServer(t, Config{MaxSimCost: 8})

	// A default /v1/partition request scores by simulation: cost 32 > the
	// whole budget, so it is shed no matter how long the bucket refills.
	rec := post(t, s, "/v1/partition", firBody())
	if rec.Code != 429 {
		t.Fatalf("sim request: status %d, want 429: %s", rec.Code, rec.Body.String())
	}
	ra := rec.Header().Get("Retry-After")
	if ra == "" {
		t.Fatal("429 without Retry-After")
	}
	var secs int
	if _, err := fmt.Sscanf(ra, "%d", &secs); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q, want whole seconds >= 1", ra)
	}
	var errBody ErrorJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &errBody); err != nil {
		t.Fatalf("429 body is not ErrorJSON: %v", err)
	}
	if !strings.Contains(errBody.Error, "objective") {
		t.Fatalf("shed message does not point at the cheap alternative: %q", errBody.Error)
	}

	// Closed-form work costs 0 and always lands.
	model := fmt.Sprintf(`{"source": %q, "entry": "main_fn", "constraint": 9000, "objective": "model"}`, firSrc)
	if rec := post(t, s, "/v1/partition", model); rec.Code != 200 {
		t.Fatalf("model request: status %d: %s", rec.Code, rec.Body.String())
	}

	// Shed responses are not cached: the retry is shed again, not served
	// a stored error.
	rec = post(t, s, "/v1/partition", firBody())
	if rec.Code != 429 {
		t.Fatalf("repeat sim request: status %d, want 429", rec.Code)
	}
	if got := s.admit.shed.Load(); got != 2 {
		t.Fatalf("shed = %d, want 2", got)
	}
	if st := s.CacheStats(); st.Size != 1 {
		t.Fatalf("store holds %d entries, want only the model result", st.Size)
	}
}

// TestAdmissionWithinBudget: a budget covering the sim cost admits the run,
// and the repeat is a free cache hit even with an empty bucket.
func TestAdmissionWithinBudget(t *testing.T) {
	s := newTestServer(t, Config{MaxSimCost: 64})
	rec := post(t, s, "/v1/partition", firBody())
	if rec.Code != 200 {
		t.Fatalf("budgeted sim request: status %d: %s", rec.Code, rec.Body.String())
	}
	// 64 - 32 = 32 left; a second distinct sim request drains it.
	other := fmt.Sprintf(`{"source": %q, "entry": "main_fn", "constraint": 9001}`, firSrc)
	if rec := post(t, s, "/v1/partition", other); rec.Code != 200 {
		t.Fatalf("second sim request: status %d", rec.Code)
	}
	// Bucket is (near) empty, but hits cost nothing.
	rec = post(t, s, "/v1/partition", firBody())
	if rec.Code != 200 || rec.Header().Get("X-Cache") != "hit" {
		t.Fatalf("hit on empty bucket: status %d, X-Cache %q", rec.Code, rec.Header().Get("X-Cache"))
	}
}

// TestSimulateAdmission: /v1/simulate pays its frame count, so a frames
// burst over the budget is shed while a cheap operating point is admitted.
func TestSimulateAdmission(t *testing.T) {
	s := newTestServer(t, Config{MaxSimCost: 8})
	cheap := fmt.Sprintf(`{"source": %q, "entry": "main_fn", "constraint": 9000, "frames": 2}`, firSrc)
	if rec := post(t, s, "/v1/simulate", cheap); rec.Code != 200 {
		t.Fatalf("cheap simulate: status %d: %s", rec.Code, rec.Body.String())
	}
	costly := fmt.Sprintf(`{"source": %q, "entry": "main_fn", "constraint": 9000, "frames": 64}`, firSrc)
	if rec := post(t, s, "/v1/simulate", costly); rec.Code != 429 {
		t.Fatalf("costly simulate: status %d, want 429", rec.Code)
	}
}
