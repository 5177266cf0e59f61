package hybridpart

import (
	"context"
	"math"
	"sync"

	"hybridpart/internal/ir"
	"hybridpart/internal/obs"
	"hybridpart/internal/partition"
	"hybridpart/internal/platform"
	"hybridpart/internal/sim"
)

// Objective selects what the move loop optimizes — the closed-form t_total
// of eq. 2 (ObjectiveModel, the paper's engine) or the simulated makespan of
// each candidate mapping (ObjectiveSimulated). See internal/partition for
// the selection semantics.
type Objective = partition.Objective

// Move-loop objectives.
const (
	ObjectiveModel     = partition.ObjectiveModel
	ObjectiveSimulated = partition.ObjectiveSimulated
)

// ParseObjective parses the flag/wire spelling of an objective ("model",
// "sim" or "simulated"; "" selects ObjectiveModel).
func ParseObjective(s string) (Objective, error) { return partition.ParseObjective(s) }

// SimScoreStats breaks down how a simulation-scored partitioning run paid
// for its candidate evaluations. Scored counts distinct mappings; every
// further request for one of them is a memo hit. Replays counts the scored
// mappings that went through the discrete-event engine — every one of them,
// at any frame count. Pruned counts candidates the branch-and-bound argmin
// pass skipped because an admissible lower bound already exceeded a fully
// scored incumbent — either the cheap closed-form LowerBound alone, in
// which case the candidate never got a fine-fabric walk bound, or the
// larger of it and FineWalkBound. Scoring is serial and its evaluation
// order a pure function of the workload and knobs, so every counter is
// deterministic: the same run always reports the same stats.
type SimScoreStats struct {
	Scored  int `json:"scored"`
	Replays int `json:"replays"`
	// ClosedForm and Incremental are always 0; they are removed with the
	// perfbench metrics that read them.
	ClosedForm  int `json:"closed_form"`
	Incremental int `json:"incremental"`
	MemoHits    int `json:"memo_hits"`
	Pruned      int `json:"pruned"`
}

// scoringHooks switch off parts of the sim-scoring path. The zero value is
// production scoring; an Engine copies its hooks into every simScorer it
// builds, and only tests set them, so each test flips them on its own
// engine instead of on shared state.
type scoringHooks struct {
	// serial makes ScoreBatch the reference path: every candidate in slate
	// order through a full-report Simulate, with no bounds, no pruning and
	// no arena reuse. The equivalence suite uses it as the reference and
	// BenchmarkObjectiveScoring as its baseline.
	serial bool
	// noPruning keeps the batch path (bounds, arena, evaluation order) but
	// scores every candidate instead of pruning; the admissibility property
	// compares a pruned run against it.
	noPruning bool
	// observe, when set, receives the evaluation record of every ScoreBatch
	// call; the order-equivalence test checks it against the eager
	// all-bounds-first reference.
	observe func(batchRecord)
}

// batchRecord is how one ScoreBatch call evaluated its slate.
type batchRecord struct {
	// candidates holds each slate entry's moved set, copied out of the
	// run's trajectory records (which go back to the scratch pool when the
	// run returns).
	candidates [][]ir.BlockID
	// pending lists the slate indices that missed the memo, in slate order.
	pending []int
	// seed is the incumbent the memo hits set before any bound was taken
	// (math.MaxInt64 when none hit).
	seed int64
	// replayed lists slate indices in replay order; pruned lists the
	// candidates skipped, in the order the queue held them.
	replayed, pruned []int
	// walkBounds counts the FineWalkBound calls.
	walkBounds int
	// packs counts the packings the call performed itself; scoring reads
	// each candidate's packing from its trajectory record, so it is 0.
	packs int
}

// runScratch is the scratch of one partitioning run: the storage of its
// trajectory records (partition.Prefix, packings included) and the
// scorer's arena, memo and bound, trajectory and queue buffers. A run
// takes one from scratchPool and returns it when nothing reads it any
// more — after the report has scored the chosen mapping and the all-FPGA
// baseline — so a warm run allocates none of it.
type runScratch struct {
	prefixes []partition.Prefix
	arena    sim.Arena
	memo     []int64
	traj     []ir.BlockID
	bounds   []int64
	queue    []boundEntry
}

var scratchPool = sync.Pool{New: func() any { return new(runScratch) }}

// simSpecOf materializes the engine-level co-simulation knobs.
func simSpecOf(o Options) SimSpec {
	return SimSpec{Frames: o.SimFrames, Ports: o.SimPorts, Prefetch: o.SimPrefetch}
}

// simKnobsActive reports whether the knob set asks for any simulation work
// during partitioning: a simulation-scored objective, re-ranking, or an
// explicit co-simulation operating point to report the chosen mapping under.
func simKnobsActive(o Options) bool {
	return o.Objective != ObjectiveModel || o.RerankK != 0 ||
		o.SimFrames > 0 || o.SimPorts > 0 || o.SimPrefetch
}

// simScorer scores the trajectory prefixes of one partitioning run by
// simulated makespan. It holds everything mapping-independent once (the
// Replayer's canonical trace, the App's block and latency tables, the
// all-FPGA floors), reads each candidate's packing from its trajectory
// record — the move loop packed it, so scoring packs nothing — and
// memoizes every scored record, so a trajectory walk plus a re-rank pass
// plus the final report never replay the same mapping twice. Every argmin
// slate, at any frame count, goes through ScoreBatch's branch-and-bound on
// the run's arena; Score replays a single record with MakespanPacked.
// Score and ScoreBatch serialize on the scorer's lock, so a simScorer is
// safe for concurrent use — but build one per partitioning run: its memo
// is per (workload, knob) tuple and per move trajectory.
type simScorer struct {
	rep   *sim.Replayer
	cfg   sim.Config
	hooks scoringHooks

	mu sync.Mutex
	// sc is the run's scratch. Its memo[i] is the makespan of trajectory
	// record i, or -1 while unscored: every mapping a partitioning run
	// scores — each argmin slate, the chosen mapping, the all-FPGA
	// baseline — is one of its records, so the record index is the whole
	// memo key.
	sc    *runScratch
	stats SimScoreStats
}

// newSimScorer builds the scorer for one (application, profile, platform,
// sim spec) tuple on the run's scratch sc (nil allocates one). The spec's
// zero frames/ports normalize to 1.
func newSimScorer(ctx context.Context, a *App, p *RunProfile, plat platform.Platform, spec SimSpec, sc *runScratch) (*simScorer, error) {
	spec = spec.normalized()
	rep, err := a.newReplayer(ctx, p, plat)
	if err != nil {
		return nil, err
	}
	if sc == nil {
		sc = new(runScratch)
	}
	sc.memo = sc.memo[:0]
	return &simScorer{
		rep: rep,
		cfg: sim.Config{Frames: spec.Frames, Ports: spec.Ports, Prefetch: spec.Prefetch},
		sc:  sc,
	}, nil
}

// memoFor sizes the memo to the trajectory ps, marking records it has not
// seen unscored. Callers hold s.mu.
func (s *simScorer) memoFor(ps []partition.Prefix) {
	for len(s.sc.memo) < len(ps) {
		s.sc.memo = append(s.sc.memo, -1)
	}
}

// Score returns the simulated makespan (FPGA cycles) of record i of the
// run's trajectory ps. Calls serialize on the scorer's lock.
func (s *simScorer) Score(ctx context.Context, ps []partition.Prefix, i int) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.memoFor(ps)
	return s.scoreOne(ctx, ps, i)
}

// scoreOne is Score for a caller holding s.mu with the memo sized: a memo
// hit, or one replay — a full-report Simulate of the record's moved set
// under the serial hook, MakespanPacked of its packing otherwise.
func (s *simScorer) scoreOne(ctx context.Context, ps []partition.Prefix, i int) (int64, error) {
	if v := s.sc.memo[i]; v >= 0 {
		s.stats.MemoHits++
		return v, nil
	}
	var v int64
	if s.hooks.serial {
		rep, err := s.rep.Simulate(ctx, s.cfg, partition.AppendMoved(nil, ps, i))
		if err != nil {
			return 0, err
		}
		v = rep.TotalCycles
	} else {
		var err error
		if v, err = s.rep.MakespanPacked(ctx, s.cfg, &ps[i].Pack, &s.sc.arena); err != nil {
			return 0, err
		}
	}
	s.stats.Scored++
	s.stats.Replays++
	s.sc.memo[i] = v
	return v, nil
}

// ScoreBatch scores a whole candidate slate for the argmin pass. It has the
// partition.Config.SimCostBatch signature. Under the test-only serial hook
// it scores every candidate in slate order through scoreOne instead.
//
// Every slate, at any frame count, goes through best-first branch-and-bound
// on the run's arena, with the costly bound taken lazily. Every unmemoized
// candidate enters a queue keyed on its closed-form
// sim.Replayer.LowerBound, taken for all of them in one pass along the
// trajectory (sim.Replayer.LowerBounds, O(1) per prefix). The loop pops the
// minimum key (ties: a candidate without its walk bound first, then slate
// index): if the key strictly exceeds the incumbent best makespan, that
// candidate and every one left are pruned without replaying; a candidate
// popped without its walk bound gets sim.Replayer.FineWalkBoundPacked
// (O(trace tokens)) and goes back keyed on the larger of the two; one
// popped with it replays and may lower the incumbent. The walk bound and
// the replay read the packing in the candidate's record, so the batch
// packs nothing. The replay order is therefore exactly ascending
// max(LowerBound, FineWalkBound) with ties on slate index, but a candidate
// pruned on LowerBound alone never pays for a walk.
// Pruning never changes the selection: scored makespans are exact, and a
// pruned candidate is provably strictly worse than the incumbent, so it can
// never be the index-ordered argmin. The evaluation order is a pure
// function of the slate and the memo, so the Pruned/Scored counters are
// deterministic too.
func (s *simScorer) ScoreBatch(ctx context.Context, ps []partition.Prefix, candidates []int) ([]partition.SimScore, error) {
	out := make([]partition.SimScore, len(candidates))
	ctx, span := obs.Start(ctx, "sim.ScoreBatch")
	defer span.End()
	if span != nil {
		span.Set(obs.Int("candidates", len(candidates)))
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.memoFor(ps)
	if s.hooks.serial {
		for k, i := range candidates {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := s.scoreOne(ctx, ps, i)
			if err != nil {
				return nil, err
			}
			out[k] = partition.SimScore{Cycles: v}
		}
		return out, nil
	}
	// Memo hits resolve immediately and seed the incumbent: every memoized
	// value is the exact makespan of a candidate in this slate. Everything
	// else queues on its closed-form bound.
	incumbent := int64(math.MaxInt64)
	queue := s.sc.queue[:0]
	defer func() { s.sc.queue = queue[:0] }()
	last := 0 // the longest pending prefix
	for k, i := range candidates {
		if v := s.sc.memo[i]; v >= 0 {
			s.stats.MemoHits++
			out[k] = partition.SimScore{Cycles: v}
			incumbent = min(incumbent, v)
			continue
		}
		queue = append(queue, boundEntry{idx: k})
		last = max(last, i)
	}
	if len(queue) > 0 {
		s.sc.traj = partition.AppendMoved(s.sc.traj[:0], ps, last)
		lbs, err := s.rep.LowerBounds(s.cfg, s.sc.traj, s.sc.bounds)
		if err != nil {
			return nil, err
		}
		s.sc.bounds = lbs
		for j := range queue {
			queue[j].key = lbs[candidates[queue[j].idx]]
		}
	}
	hits := len(candidates) - len(queue)
	var rec *batchRecord
	if s.hooks.observe != nil {
		rec = &batchRecord{seed: incumbent}
		for _, i := range candidates {
			rec.candidates = append(rec.candidates, partition.AppendMoved(nil, ps, i))
		}
		for _, e := range queue {
			rec.pending = append(rec.pending, e.idx)
		}
		packs := s.sc.arena.Packs()
		defer func() {
			rec.packs = s.sc.arena.Packs() - packs
			s.hooks.observe(*rec)
		}()
	}

	// Best-first: the candidate most likely to be the argmin replays first,
	// which drops the incumbent early and lets the bounds prune the tail.
	// The queue holds at most one entry per trajectory prefix, so a linear
	// scan for the minimum is enough.
	scored, pruned := 0, 0
	for len(queue) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		j := 0
		for k := 1; k < len(queue); k++ {
			if queue[k].before(queue[j]) {
				j = k
			}
		}
		e := queue[j]
		if !s.hooks.noPruning && e.key > incumbent {
			// Every key left is at least e.key, and a key never exceeds
			// its candidate's bound.
			for _, r := range queue {
				out[r.idx] = partition.SimScore{Pruned: true}
				if rec != nil {
					rec.pruned = append(rec.pruned, r.idx)
				}
			}
			pruned = len(queue)
			break
		}
		pm := &ps[candidates[e.idx]].Pack
		if !e.walked {
			wb, err := s.rep.FineWalkBoundPacked(s.cfg, pm, &s.sc.arena)
			if err != nil {
				return nil, err
			}
			if rec != nil {
				rec.walkBounds++
			}
			queue[j] = boundEntry{key: max(e.key, wb), idx: e.idx, walked: true}
			continue
		}
		queue[j] = queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		v, err := s.rep.MakespanPacked(ctx, s.cfg, pm, &s.sc.arena)
		if err != nil {
			return nil, err
		}
		if rec != nil {
			rec.replayed = append(rec.replayed, e.idx)
		}
		incumbent = min(incumbent, v)
		scored++
		s.sc.memo[candidates[e.idx]] = v
		out[e.idx] = partition.SimScore{Cycles: v}
	}
	s.stats.Scored += scored
	s.stats.Replays += scored
	s.stats.Pruned += pruned
	if span != nil {
		span.Set(obs.Int("scored", scored), obs.Int("pruned", pruned),
			obs.Int("memo_hits", hits))
	}
	return out, nil
}

// boundEntry is one unscored candidate in ScoreBatch's best-first queue:
// its slate index and its bound so far — LowerBound until the walk bound
// is taken (walked), their maximum after.
type boundEntry struct {
	key    int64
	idx    int
	walked bool
}

// before orders the queue: lower key first, then a candidate still owed
// its walk bound (its key may yet rise past the other's), then slate index.
func (e boundEntry) before(o boundEntry) bool {
	if e.key != o.key {
		return e.key < o.key
	}
	if e.walked != o.walked {
		return !e.walked
	}
	return e.idx < o.idx
}
