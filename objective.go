package hybridpart

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"

	"hybridpart/internal/finegrain"
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
// further request for one of them is a memo hit. Of the distinct mappings,
// Replays went through the full discrete-event engine, ClosedForm through
// the additive single-frame fast path (a reconfiguration walk over the
// loop-compressed trace, no event bookkeeping), and Incremental through the
// delta update that skips even the walk when the moved kernel's fabric
// reassignment provably leaves the crossing set unchanged. Pruned counts
// candidates the branch-and-bound argmin pass skipped because their
// admissible lower bound already exceeded a fully scored incumbent. Scoring
// is serial and its evaluation order a pure function of the workload and
// knobs, so every counter is deterministic: the same run always reports the
// same stats.
type SimScoreStats struct {
	Scored      int `json:"scored"`
	Replays     int `json:"replays"`
	ClosedForm  int `json:"closed_form"`
	Incremental int `json:"incremental"`
	MemoHits    int `json:"memo_hits"`
	Pruned      int `json:"pruned"`
}

// scoringHooks switch off tiers of the sim-scoring path. The zero value is
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
	// noFastPath forces every candidate through the full discrete-event
	// replay; the property suite uses it to pin the closed-form and
	// incremental tiers to the replay cycle for cycle.
	noFastPath bool
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

// scoredMapping is the incremental-evaluation state of the last scored
// candidate: its packing, makespan and per-block entry-load counts.
type scoredMapping struct {
	moved      []ir.BlockID
	pm         *finegrain.PackedMapping
	entryLoads []int64
	ticks      int64
}

// simScorer scores candidate mappings by simulated makespan for the move
// loop. It holds everything mapping-independent once (the Replayer's
// canonical trace, the App's block and latency tables, the all-FPGA
// baseline) and memoizes every scored mapping forever, so a trajectory walk plus a re-rank pass
// plus the final report never replay the same mapping twice. Single-frame
// no-prefetch candidates take the additive closed form instead of the event
// engine, and consecutive trajectory prefixes whose move leaves the crossing
// set unchanged take a pure delta update. Replay-regime slates go through
// ScoreBatch's branch-and-bound on one reused arena. Score and ScoreBatch
// serialize on the scorer's lock, so a simScorer is safe for concurrent use
// — but build one per partitioning run, its memo is per-(workload, knob)
// tuple.
type simScorer struct {
	rep    *sim.Replayer
	cfg    sim.Config
	plat   platform.Platform
	tables *ir.BlockTables
	freq   []uint64
	ratio  int64
	hooks  scoringHooks

	mu    sync.Mutex
	arena sim.Arena
	memo  map[string]int64
	last  *scoredMapping
	stats SimScoreStats
	// Closed-form scratch, guarded by mu: the moved mask, and two packings
	// and two entry-load vectors, one of each of which last may still
	// reference for the incremental tier.
	mask  []bool
	packs [2]finegrain.PackedMapping
	loads [2][]int64
}

// newSimScorer builds the scorer for one (application, profile, platform,
// sim spec) tuple. The spec's zero frames/ports normalize to 1.
func newSimScorer(a *App, p *RunProfile, plat platform.Platform, spec SimSpec) (*simScorer, error) {
	spec, err := spec.normalized()
	if err != nil {
		return nil, err
	}
	tables := a.blockTables()
	rep, err := sim.NewReplayer(sim.Input{
		Prog:      a.fprog,
		F:         a.flat,
		Tables:    tables,
		Latencies: a.coarseLatencies(plat.Coarse),
		Plat:      plat,
		Freq:      p.Freq,
		Edges:     p.edges,
	})
	if err != nil {
		return nil, err
	}
	return &simScorer{
		rep:    rep,
		cfg:    sim.Config{Frames: spec.Frames, Ports: spec.Ports, Prefetch: spec.Prefetch},
		plat:   plat,
		tables: tables,
		freq:   p.Freq,
		ratio:  int64(plat.Coarse.ClockRatio),
		memo:   map[string]int64{},
	}, nil
}

// movedKey is the canonical memo key of a moved-set (order-independent):
// the sorted block ids, each followed by a comma.
func movedKey(moved []ir.BlockID) string {
	var idBuf [64]ir.BlockID
	var keyBuf [256]byte
	ids := append(idBuf[:0], moved...)
	slices.Sort(ids)
	key := keyBuf[:0]
	for _, id := range ids {
		key = strconv.AppendInt(key, int64(id), 10)
		key = append(key, ',')
	}
	return string(key)
}

// Score returns the simulated makespan (FPGA cycles) of the mapping that
// moves the given blocks to the coarse-grain data-path. It has the
// partition.Config.SimCost signature. Calls serialize on the scorer's lock.
func (s *simScorer) Score(ctx context.Context, moved []ir.BlockID) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := movedKey(moved)
	if v, ok := s.memo[key]; ok {
		s.stats.MemoHits++
		return v, nil
	}
	v, err := s.score(ctx, moved)
	if err != nil {
		return 0, err
	}
	s.stats.Scored++
	s.memo[key] = v
	return v, nil
}

// score evaluates one unmemoized mapping. Callers hold s.mu.
func (s *simScorer) score(ctx context.Context, moved []ir.BlockID) (int64, error) {
	if s.fastRegime() {
		return s.closedForm(moved)
	}
	if s.hooks.serial {
		// The reference path: a full-report replay per candidate.
		rep, err := s.rep.Simulate(ctx, s.cfg, moved)
		if err != nil {
			return 0, err
		}
		s.stats.Replays++
		return rep.TotalCycles, nil
	}
	v, err := s.rep.Makespan(ctx, s.cfg, moved, &s.arena)
	if err != nil {
		return 0, err
	}
	s.stats.Replays++
	return v, nil
}

// fastRegime reports whether candidates take the additive closed form
// instead of the event engine.
func (s *simScorer) fastRegime() bool {
	return s.cfg.Frames == 1 && !s.cfg.Prefetch && !s.hooks.noFastPath
}

// ScoreBatch scores a whole candidate slate for the argmin pass. It has the
// partition.Config.SimCostBatch signature.
//
// In the closed-form regime candidates evaluate in slate order — that order
// is what feeds the incremental delta tier, and the closed form is already
// cheaper than a lower bound. In the replay regime the slate goes through
// best-first branch-and-bound on the scorer's arena: every candidate's
// admissible lower bound (sim.Replayer.LowerBound, FineWalkBound) is
// computed up front, candidates replay in ascending-bound order (ties on
// slate index), and any candidate whose bound strictly exceeds the
// incumbent best makespan is pruned without replaying. Pruning never
// changes the selection: scored makespans are exact, and a pruned candidate
// is provably strictly worse than the incumbent, so it can never be the
// index-ordered argmin. The evaluation order is a pure function of the
// slate and the memo, so the Pruned/Scored counters are deterministic too.
func (s *simScorer) ScoreBatch(ctx context.Context, candidates [][]ir.BlockID) ([]partition.SimScore, error) {
	out := make([]partition.SimScore, len(candidates))
	ctx, span := obs.Start(ctx, "sim.ScoreBatch", obs.Int("candidates", len(candidates)))
	defer span.End()
	if s.fastRegime() {
		for i, moved := range candidates {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := s.Score(ctx, moved)
			if err != nil {
				return nil, err
			}
			out[i] = partition.SimScore{Cycles: v}
		}
		span.Set(obs.Int("scored", len(candidates)), obs.Int("pruned", 0),
			obs.String("regime", "closed-form"))
		return out, nil
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// Memo hits resolve immediately and seed the incumbent: every memoized
	// value is the exact makespan of a candidate in this slate.
	incumbent := int64(math.MaxInt64)
	pending := make([]int, 0, len(candidates))
	keys := make([]string, len(candidates))
	for i, moved := range candidates {
		keys[i] = movedKey(moved)
		if v, ok := s.memo[keys[i]]; ok {
			s.stats.MemoHits++
			out[i] = partition.SimScore{Cycles: v}
			incumbent = min(incumbent, v)
			continue
		}
		pending = append(pending, i)
	}
	if len(pending) == 0 {
		span.Set(obs.Int("scored", 0), obs.Int("pruned", 0),
			obs.Int("memo_hits", len(candidates)), obs.String("regime", "replay"))
		return out, nil
	}

	// Admissible lower bounds, then best-first order: the candidate most
	// likely to be the argmin replays first, which drops the incumbent
	// early and lets the bound prune the tail. Two tiers: the closed-form
	// resource floor (O(moved)) and the exact fine-fabric occupancy walk
	// (O(trace tokens), still far below a full replay) — the walk is exact
	// on fine-dominated candidates, so once the incumbent is near the
	// optimum almost every other candidate's bound exceeds it.
	bounds := make([]int64, len(candidates))
	for _, i := range pending {
		b, err := s.rep.LowerBound(s.cfg, candidates[i])
		if err != nil {
			return nil, err
		}
		wb, err := s.rep.FineWalkBound(s.cfg, candidates[i], &s.arena)
		if err != nil {
			return nil, err
		}
		bounds[i] = max(b, wb)
	}
	sort.SliceStable(pending, func(a, b int) bool { return bounds[pending[a]] < bounds[pending[b]] })

	pruned := 0
	for _, i := range pending {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !s.hooks.noPruning && bounds[i] > incumbent {
			out[i] = partition.SimScore{Pruned: true}
			pruned++
			continue
		}
		v, err := s.rep.Makespan(ctx, s.cfg, candidates[i], &s.arena)
		if err != nil {
			return nil, err
		}
		incumbent = min(incumbent, v)
		s.stats.Scored++
		s.stats.Replays++
		s.memo[keys[i]] = v
		out[i] = partition.SimScore{Cycles: v}
	}
	s.stats.Pruned += pruned
	span.Set(obs.Int("scored", len(pending)-pruned), obs.Int("pruned", pruned),
		obs.Int("memo_hits", len(candidates)-len(pending)), obs.String("regime", "replay"))
	return out, nil
}

// closedForm scores a single-frame no-prefetch candidate without the event
// engine: in that regime every invocation window chains sequentially (no
// resource is ever ahead of program order), so the makespan is the sum of
// per-invocation costs plus the reconfiguration walk's on-demand loads —
// the same additive structure that makes the simulator agree with the
// analytical model cycle for cycle at the model's operating point.
func (s *simScorer) closedForm(moved []ir.BlockID) (int64, error) {
	n := len(s.tables.F.Blocks)
	if cap(s.mask) < n {
		s.mask = make([]bool, n)
	}
	movedMask := s.mask[:n]
	clear(movedMask)
	for _, b := range moved {
		if int(b) < 0 || int(b) >= n {
			return 0, fmt.Errorf("hybridpart: moved block %d outside the function", b)
		}
		movedMask[b] = true
	}
	// Pack into whichever buffer the incremental state does not hold.
	pm := &s.packs[0]
	if s.last != nil && s.last.pm == pm {
		pm = &s.packs[1]
	}
	if err := pm.Pack(s.tables, s.plat.Fine, func(id ir.BlockID) bool { return !movedMask[id] }); err != nil {
		return 0, err
	}

	reconT := int64(s.plat.Fine.RegionReconfigCycles()) * s.ratio
	regions := pm.Regions
	var ticks int64
	var coarseDelta int64 // Σ freq·(lat+tx) over the moved set, in ticks
	for id := 0; id < n; id++ {
		freq := int64(s.freq[id])
		if freq == 0 {
			continue
		}
		if movedMask[id] {
			lat, err := s.rep.CoarseLatency(ir.BlockID(id))
			if err != nil {
				return 0, err
			}
			coarseDelta += freq * (lat + s.rep.TransferTicks(ir.BlockID(id), s.cfg.Ports))
			continue
		}
		cost := pm.PerBlockCycles[id] * s.ratio
		if regions == 1 {
			// Single context: every internal boundary reloads, so the
			// straddle cost is a static per-execution count. With more
			// regions straddle reloads depend on residency and ride the
			// walk below instead.
			cost += int64(pm.InternalCrossings[id]) * reconT
		}
		ticks += freq * cost
	}
	ticks += coarseDelta

	if regions > 1 {
		// Multi-region sequencer walk, mirroring the replay exactly: a
		// partition loads only when its region holds something else, for
		// entry and straddle needs alike. Entry and straddle loads are both
		// residency-dependent here, so the incremental tier (which reuses a
		// static entry-load vector) does not apply.
		ticks += s.rep.RegionLoads(pm, movedMask, &s.arena) * reconT
		s.stats.ClosedForm++
		s.last = nil
		return ceilDiv64(ticks, s.ratio), nil
	}

	// Incremental tier: the trajectory hands us prefixes, each extending the
	// last by one kernel k. When repacking without k leaves every remaining
	// block's partition assignment unchanged and k itself never straddled a
	// boundary or triggered an entry load, k's fabric reassignment does not
	// change the crossing set — the load walk would count exactly the loads
	// it counted last time, so the memoized count is reused without
	// re-walking the trace.
	if prev := s.last; prev != nil && len(moved) == len(prev.moved)+1 &&
		slices.Equal(moved[:len(prev.moved)], prev.moved) &&
		prev.entryLoads[moved[len(prev.moved)]] == 0 &&
		sameCrossingSet(pm, prev.pm, moved[len(prev.moved)]) {
		// prev.entryLoads stays valid verbatim: the elided kernel's entry
		// count is zero and every other block loads exactly as before.
		ticks += sumLoads(prev.entryLoads) * reconT
		s.stats.Incremental++
		s.last = &scoredMapping{moved: append([]ir.BlockID(nil), moved...), pm: pm, entryLoads: prev.entryLoads, ticks: ticks}
		return ceilDiv64(ticks, s.ratio), nil
	}

	// Reconfiguration walk: replay only the sequencer's loaded-partition
	// state machine over the canonical trace — the one quantity of the
	// single-frame makespan that needs the trace at all — into whichever
	// load vector the incremental state does not hold.
	if len(s.loads[0]) != n {
		s.loads = [2][]int64{make([]int64, n), make([]int64, n)}
	}
	entryLoads := s.loads[0]
	if s.last != nil && &s.last.entryLoads[0] == &entryLoads[0] {
		entryLoads = s.loads[1]
	}
	s.rep.EntryLoads(pm, movedMask, entryLoads)
	ticks += sumLoads(entryLoads) * reconT
	s.stats.ClosedForm++
	s.last = &scoredMapping{moved: append([]ir.BlockID(nil), moved...), pm: pm, entryLoads: entryLoads, ticks: ticks}
	return ceilDiv64(ticks, s.ratio), nil
}

func sumLoads(loads []int64) int64 {
	var total int64
	for _, n := range loads {
		total += n
	}
	return total
}

// sameCrossingSet reports whether moving kernel k provably leaves the
// reconfiguration sequence unchanged: every block keeps its partition
// assignment across the repack, and k neither straddled a boundary nor ever
// entered on a cold partition (so eliding its visits from the trace leaves
// the sequencer's loaded-partition state machine on the same path).
func sameCrossingSet(cur, prev *finegrain.PackedMapping, k ir.BlockID) bool {
	if cur.NumPartitions != prev.NumPartitions {
		return false
	}
	if prev.InternalCrossings[k] != 0 {
		return false
	}
	for id := range cur.FirstPart {
		if ir.BlockID(id) == k {
			continue
		}
		if cur.FirstPart[id] != prev.FirstPart[id] || cur.LastPart[id] != prev.LastPart[id] ||
			cur.InternalCrossings[id] != prev.InternalCrossings[id] {
			return false
		}
	}
	return true
}

func ceilDiv64(a, b int64) int64 { return (a + b - 1) / b }
