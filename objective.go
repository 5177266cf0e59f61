package hybridpart

import (
	"context"
	"math"
	"slices"
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
	// serial restores the one-at-a-time scoring path: no batch argmin, no
	// lower-bound pruning, no arena reuse — every candidate goes through the
	// SimCost loop with a full-report replay. The equivalence suite uses it
	// as the reference and BenchmarkObjectiveScoring as its baseline.
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
}

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

// simScorer scores candidate mappings by simulated makespan for the move
// loop. It holds everything mapping-independent once (the Replayer's
// canonical trace, the App's block and latency tables, the all-FPGA
// baseline) and memoizes every scored prefix of the move trajectory
// forever, so a trajectory walk plus a re-rank pass plus the final report
// never replay the same mapping twice. Every argmin slate, at any frame
// count, goes through ScoreBatch's branch-and-bound on one reused arena;
// Score replays a single mapping with Makespan. Score and ScoreBatch
// serialize on the scorer's lock, so a simScorer is safe for concurrent use
// — but build one per partitioning run: its memo is per (workload, knob)
// tuple and per move trajectory.
type simScorer struct {
	rep   *sim.Replayer
	cfg   sim.Config
	hooks scoringHooks

	mu    sync.Mutex
	arena sim.Arena
	// traj is the longest move trajectory asked about so far and memo[n]
	// the makespan of its prefix traj[:n], or -1 while unscored. Every
	// mapping a partitioning run scores — each argmin slate, the chosen
	// mapping, the all-FPGA baseline — is a prefix of its one trajectory,
	// so the prefix length is the whole memo key.
	traj  []ir.BlockID
	memo  []int64
	stats SimScoreStats
}

// newSimScorer builds the scorer for one (application, profile, platform,
// sim spec) tuple. The spec's zero frames/ports normalize to 1.
func newSimScorer(a *App, p *RunProfile, plat platform.Platform, spec SimSpec) (*simScorer, error) {
	spec, err := spec.normalized()
	if err != nil {
		return nil, err
	}
	rep, err := sim.NewReplayer(sim.Input{
		Prog:      a.fprog,
		F:         a.flat,
		Tables:    a.blockTables(),
		Latencies: a.coarseLatencies(plat.Coarse),
		Plat:      plat,
		Freq:      p.Freq,
		Edges:     p.edges,
	})
	if err != nil {
		return nil, err
	}
	return &simScorer{
		rep:  rep,
		cfg:  sim.Config{Frames: spec.Frames, Ports: spec.Ports, Prefetch: spec.Prefetch},
		memo: []int64{-1},
	}, nil
}

// memoSlot returns moved's memo index: its length, when moved is a prefix
// of the recorded trajectory or extends it (the trajectory then grows to
// moved). ok is false for a mapping off the trajectory, which the caller
// scores without memoizing. Callers hold s.mu.
func (s *simScorer) memoSlot(moved []ir.BlockID) (slot int, ok bool) {
	n := min(len(moved), len(s.traj))
	if !slices.Equal(moved[:n], s.traj[:n]) {
		return 0, false
	}
	for len(s.traj) < len(moved) {
		s.traj = append(s.traj, moved[len(s.traj)])
		s.memo = append(s.memo, -1)
	}
	return len(moved), true
}

// Score returns the simulated makespan (FPGA cycles) of the mapping that
// moves the given blocks to the coarse-grain data-path. It has the
// partition.Config.SimCost signature. Calls serialize on the scorer's lock.
func (s *simScorer) Score(ctx context.Context, moved []ir.BlockID) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	slot, memoized := s.memoSlot(moved)
	if memoized && s.memo[slot] >= 0 {
		s.stats.MemoHits++
		return s.memo[slot], nil
	}
	v, err := s.score(ctx, moved)
	if err != nil {
		return 0, err
	}
	s.stats.Scored++
	s.stats.Replays++
	if memoized {
		s.memo[slot] = v
	}
	return v, nil
}

// score replays one unmemoized mapping. Callers hold s.mu.
func (s *simScorer) score(ctx context.Context, moved []ir.BlockID) (int64, error) {
	if s.hooks.serial {
		// The reference path: a full-report replay per candidate.
		rep, err := s.rep.Simulate(ctx, s.cfg, moved)
		if err != nil {
			return 0, err
		}
		return rep.TotalCycles, nil
	}
	return s.rep.Makespan(ctx, s.cfg, moved, &s.arena)
}

// ScoreBatch scores a whole candidate slate for the argmin pass. It has the
// partition.Config.SimCostBatch signature.
//
// Every slate, at any frame count, goes through best-first branch-and-bound
// on the scorer's arena, with the costly bound taken lazily. Every
// unmemoized candidate enters a queue keyed on its closed-form
// sim.Replayer.LowerBound (O(moved)). The loop pops the
// minimum key (ties: a candidate without its walk bound first, then slate
// index): if the key strictly exceeds the incumbent best makespan, that
// candidate and every one left are pruned without replaying; a candidate
// popped without its walk bound gets sim.Replayer.FineWalkBound (O(trace
// tokens)) and goes back keyed on the larger of the two; one popped with
// it replays and may lower the incumbent. The replay order is therefore
// exactly ascending max(LowerBound, FineWalkBound) with ties on slate
// index, but a candidate pruned on LowerBound alone never pays for a walk.
// Pruning never changes the selection: scored makespans are exact, and a
// pruned candidate is provably strictly worse than the incumbent, so it can
// never be the index-ordered argmin. The evaluation order is a pure
// function of the slate and the memo, so the Pruned/Scored counters are
// deterministic too.
func (s *simScorer) ScoreBatch(ctx context.Context, candidates [][]ir.BlockID) ([]partition.SimScore, error) {
	out := make([]partition.SimScore, len(candidates))
	ctx, span := obs.Start(ctx, "sim.ScoreBatch")
	defer span.End()
	if span != nil {
		span.Set(obs.Int("candidates", len(candidates)))
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// Memo hits resolve immediately and seed the incumbent: every memoized
	// value is the exact makespan of a candidate in this slate. Everything
	// else queues on its closed-form bound.
	incumbent := int64(math.MaxInt64)
	queue := make([]boundEntry, 0, len(candidates))
	for i, moved := range candidates {
		if slot, ok := s.memoSlot(moved); ok && s.memo[slot] >= 0 {
			s.stats.MemoHits++
			out[i] = partition.SimScore{Cycles: s.memo[slot]}
			incumbent = min(incumbent, s.memo[slot])
			continue
		}
		lb, err := s.rep.LowerBound(s.cfg, moved)
		if err != nil {
			return nil, err
		}
		queue = append(queue, boundEntry{key: lb, idx: i})
	}
	hits := len(candidates) - len(queue)
	var rec *batchRecord
	if s.hooks.observe != nil {
		rec = &batchRecord{candidates: candidates, seed: incumbent}
		for _, e := range queue {
			rec.pending = append(rec.pending, e.idx)
		}
		defer func() { s.hooks.observe(*rec) }()
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
		moved := candidates[e.idx]
		if !e.walked {
			wb, err := s.rep.FineWalkBound(s.cfg, moved, &s.arena)
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
		v, err := s.rep.Makespan(ctx, s.cfg, moved, &s.arena)
		if err != nil {
			return nil, err
		}
		if rec != nil {
			rec.replayed = append(rec.replayed, e.idx)
		}
		incumbent = min(incumbent, v)
		scored++
		if slot, ok := s.memoSlot(moved); ok {
			s.memo[slot] = v
		}
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
