package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hybridpart"
	"hybridpart/internal/obs"
)

// Cost-based admission control. A simulated-objective /v1/partition run
// costs orders of magnitude more than a closed-form one — every candidate
// scoring pass replays the profiled trace — so a replica can be configured
// with a budget of "simulated-cost units" per second (Config.MaxSimCost,
// hservd -max-sim-cost): sim-scored work draws from a token bucket and a
// burst over the budget degrades to 429 + Retry-After instead of piling
// up runs until they time out. Closed-form (model-objective, no-sim-knob)
// requests cost zero and are always admitted, and only cache misses pay —
// a hit or a coalesced join costs the replica nothing.

// simCost prices a request in the sweep grid's cost units (whole-trace
// replays): a run costs its frame count, multiplied by the trajectory
// factor when the move loop scores candidates by simulation — the same
// accounting SweepSpec.SimulationCost applies. Closed-form runs (model
// objective, no frames, not a simulate call) cost 0, and so do energy
// runs, which never simulate whatever objective or sim knobs their
// options carry. The price is both what the admission bucket charges and
// what checkScoringCost caps.
func simCost(kind string, opts hybridpart.Options) int {
	if kind == "energy" {
		return 0
	}
	frames := opts.SimFrames
	if frames < 1 {
		frames = 1
	}
	if opts.Objective == hybridpart.ObjectiveSimulated || opts.RerankK != 0 {
		return frames * hybridpart.SimObjectiveReplayFactor
	}
	if kind == "simulate" || opts.SimFrames > 0 {
		return frames
	}
	return 0
}

// tokenBucket is the admission budget: capacity == refill rate == the
// configured units/second, so the budget doubles as the burst bound. A
// request costing more than the whole capacity can never be admitted and
// is always shed — that is the operator saying "never run anything this
// expensive here".
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // units replenished per second
	burst  float64 // bucket capacity
	tokens float64
	last   time.Time
	now    func() time.Time // injectable for tests
	shed   atomic.Int64
}

func newTokenBucket(unitsPerSec float64) *tokenBucket {
	b := &tokenBucket{rate: unitsPerSec, burst: unitsPerSec, now: time.Now}
	b.tokens = b.burst
	b.last = b.now()
	return b
}

// take admits a request costing cost units, or rejects it with the wait
// after which a retry can succeed (at least a second, so the value is
// directly usable as a Retry-After header).
func (b *tokenBucket) take(cost float64) (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.now()
	b.tokens += t.Sub(b.last).Seconds() * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = t
	if cost <= b.tokens {
		b.tokens -= cost
		return true, 0
	}
	deficit := cost - b.tokens
	if cost > b.burst {
		// Unadmittable at any fill level; report the time a full refill
		// would take, the closest meaningful backoff hint.
		deficit = cost
	}
	wait := time.Duration(deficit / b.rate * float64(time.Second))
	if wait < time.Second {
		wait = time.Second
	}
	b.shed.Add(1)
	return false, wait
}

// level reports the current token count (refilled to now), for /metrics.
func (b *tokenBucket) level() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	tokens := b.tokens + b.now().Sub(b.last).Seconds()*b.rate
	if tokens > b.burst {
		tokens = b.burst
	}
	return tokens
}

// admissionError is the typed rejection a shed compute returns through the
// cache layer; runError maps it to 429 with a Retry-After header.
type admissionError struct {
	cost       int
	retryAfter time.Duration
}

func (e *admissionError) Error() string {
	return fmt.Sprintf("admission: request costs %d simulated-cost units, over this replica's budget — retry in %s, lower \"frames\", or use \"objective\": \"model\"",
		e.cost, e.retryAfter.Round(time.Second))
}

// admitCost charges the bucket for one engine run. Free (cost 0) work and
// unbudgeted replicas are always admitted. ctx is for tracing only: the
// decision itself never blocks.
func (s *Server) admitCost(ctx context.Context, cost int) error {
	if s.admit == nil || cost <= 0 {
		return nil
	}
	_, span := obs.Start(ctx, "admission", obs.Int("cost", cost))
	ok, retry := s.admit.take(float64(cost))
	span.Set(obs.Bool("admitted", ok))
	if !ok {
		span.Set(obs.Int64("retry_after_ms", retry.Milliseconds()))
		span.End()
		return &admissionError{cost: cost, retryAfter: retry}
	}
	span.End()
	return nil
}
