package hybridpart

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

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
// the additive single-frame fast path (an O(trace) reconfiguration walk, no
// event bookkeeping), and Incremental through the delta update that skips
// even the walk when the moved kernel's fabric reassignment provably leaves
// the crossing set unchanged. Pruned counts candidates the branch-and-bound
// argmin pass skipped because their admissible lower bound already exceeded
// a fully scored incumbent; Parallel counts candidates scored on worker-pool
// goroutines and Workers records the pool width. Pruned and Parallel depend
// on evaluation scheduling and may vary run to run — the chosen mapping
// never does.
type SimScoreStats struct {
	Scored      int `json:"scored"`
	Replays     int `json:"replays"`
	ClosedForm  int `json:"closed_form"`
	Incremental int `json:"incremental"`
	MemoHits    int `json:"memo_hits"`
	Pruned      int `json:"pruned"`
	Parallel    int `json:"parallel"`
	Workers     int `json:"workers"`
}

// debugDisableSimFastPath forces every candidate through the full
// discrete-event replay. Test hook: the property suite flips it to pin the
// fast paths to the replay cycle for cycle.
var debugDisableSimFastPath = false

// debugSerialScoring restores the PR 5 scoring path: no batch argmin, no
// lower-bound pruning, no arena reuse — every candidate goes through the
// one-at-a-time SimCost loop with a full-report replay. Test/benchmark hook:
// the equivalence suite uses it as the reference and BenchmarkObjectiveParallel
// as the baseline.
var debugSerialScoring = false

// debugDisablePruning keeps the batch path (pool, arenas, evaluation order)
// but scores every candidate instead of pruning. Test hook: the
// admissibility property compares a pruned run against it.
var debugDisablePruning = false

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
// loop. It memoizes everything mapping-independent once (canonical trace,
// live-in/out footprints, data-path schedules, the all-FPGA baseline) and
// every scored mapping forever, so a trajectory walk plus a re-rank pass
// plus the final report never replay the same mapping twice. Single-frame
// no-prefetch candidates take the additive closed form instead of the event
// engine, and consecutive trajectory prefixes whose move leaves the crossing
// set unchanged take a pure delta update. Score serializes on the scorer's
// lock; ScoreBatch scores replay-regime slates on a bounded worker pool
// (workers wide, 0 = GOMAXPROCS) with per-worker arenas and branch-and-bound
// pruning, so a simScorer is safe for concurrent use — but build one per
// partitioning run, its memo is per-(workload, knob) tuple.
type simScorer struct {
	rep     *sim.Replayer
	cfg     sim.Config
	plat    platform.Platform
	tables  *ir.BlockTables
	freq    []uint64
	ratio   int64
	workers int

	mu    sync.Mutex
	arena sim.Arena
	memo  map[string]int64
	last  *scoredMapping
	stats SimScoreStats
	// Closed-form scratch, guarded by mu: the moved mask and two packings,
	// one of which last may still reference for the incremental tier.
	mask  []bool
	packs [2]finegrain.PackedMapping
}

// newSimScorer builds the scorer for one (application, profile, platform,
// sim spec) tuple. The spec's zero frames/ports normalize to 1.
func newSimScorer(a *App, p *RunProfile, plat platform.Platform, spec SimSpec) (*simScorer, error) {
	if spec.Frames < 0 || spec.Ports < 0 {
		return nil, fmt.Errorf("hybridpart: sim frames and ports must be non-negative, got %d/%d", spec.Frames, spec.Ports)
	}
	if spec.Frames == 0 {
		spec.Frames = 1
	}
	if spec.Ports == 0 {
		spec.Ports = 1
	}
	tables := a.blockTables()
	rep, err := sim.NewReplayer(sim.Input{Prog: a.fprog, F: a.flat, Tables: tables, Plat: plat, Freq: p.Freq, Edges: p.edges})
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
	if debugSerialScoring {
		// The PR 5 path: a full-report replay per candidate.
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
	return s.cfg.Frames == 1 && !s.cfg.Prefetch && !debugDisableSimFastPath
}

// ScoreBatch scores a whole candidate slate for the argmin pass. It has the
// partition.Config.SimCostBatch signature.
//
// In the closed-form regime candidates evaluate serially in slate order —
// that order is what feeds the incremental delta tier, and the closed form
// is already cheaper than a lower bound plus scheduling. In the replay
// regime the slate goes through best-first branch-and-bound: every
// candidate's admissible lower bound (sim.Replayer.LowerBound) is computed
// up front, candidates replay in ascending-bound order (ties on slate
// index) across the worker pool, and any candidate whose bound strictly
// exceeds the incumbent best makespan is pruned without replaying. Pruning
// and parallel scheduling never change the selection: scored makespans are
// exact and deterministic, and a pruned candidate is provably strictly
// worse than the incumbent, so it can never be the index-ordered argmin —
// only the Pruned/Parallel counters vary with scheduling.
func (s *simScorer) ScoreBatch(ctx context.Context, candidates [][]ir.BlockID) ([]partition.SimScore, error) {
	out := make([]partition.SimScore, len(candidates))
	ctx, span := obs.Start(ctx, "sim.ScoreBatch", obs.Int("candidates", len(candidates)))
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
			obs.Int("workers", 1), obs.String("regime", "closed-form"))
		span.End()
		return out, nil
	}

	// Memo hits resolve immediately and seed the incumbent: every memoized
	// value is the exact makespan of a candidate in this slate.
	incumbent := int64(math.MaxInt64)
	pending := make([]int, 0, len(candidates))
	keys := make([]string, len(candidates))
	s.mu.Lock()
	for i, moved := range candidates {
		keys[i] = movedKey(moved)
		if v, ok := s.memo[keys[i]]; ok {
			s.stats.MemoHits++
			out[i] = partition.SimScore{Cycles: v}
			if v < incumbent {
				incumbent = v
			}
			continue
		}
		pending = append(pending, i)
	}
	workers := s.workers
	s.mu.Unlock()
	if len(pending) == 0 {
		span.Set(obs.Int("scored", 0), obs.Int("pruned", 0),
			obs.Int("memo_hits", len(candidates)), obs.String("regime", "replay"))
		span.End()
		return out, nil
	}

	// Admissible lower bounds, then best-first order: the candidate most
	// likely to be the argmin replays first, which drops the incumbent
	// early and lets the bound prune the tail. Two tiers: the closed-form
	// resource floor (O(moved)) and the exact fine-fabric occupancy walk
	// (O(trace), still far below a full replay) — the walk is exact on
	// fine-dominated candidates, so once the incumbent is near the optimum
	// almost every other candidate's bound exceeds it.
	bounds := make([]int64, len(candidates))
	for _, i := range pending {
		b, err := s.rep.LowerBound(s.cfg, candidates[i])
		if err != nil {
			return nil, err
		}
		if wb, err := s.rep.FineWalkBound(s.cfg, candidates[i], &s.arena); err != nil {
			return nil, err
		} else if wb > b {
			b = wb
		}
		bounds[i] = b
	}
	sort.SliceStable(pending, func(a, b int) bool { return bounds[pending[a]] < bounds[pending[b]] })

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pending) {
		workers = len(pending)
	}

	var best atomic.Int64
	best.Store(incumbent)
	var pruned atomic.Int64
	// evalOne replays candidate i (unless its bound prunes it) into out[i].
	evalOne := func(ctx context.Context, i int, arena *sim.Arena, parallel bool) error {
		if !debugDisablePruning && bounds[i] > best.Load() {
			out[i] = partition.SimScore{Pruned: true}
			pruned.Add(1)
			return nil
		}
		v, err := s.rep.Makespan(ctx, s.cfg, candidates[i], arena)
		if err != nil {
			return err
		}
		for {
			cur := best.Load()
			if v >= cur || best.CompareAndSwap(cur, v) {
				break
			}
		}
		s.mu.Lock()
		s.stats.Scored++
		s.stats.Replays++
		if parallel {
			s.stats.Parallel++
		}
		s.memo[keys[i]] = v
		s.mu.Unlock()
		out[i] = partition.SimScore{Cycles: v}
		return nil
	}

	var err error
	if workers <= 1 {
		for _, i := range pending {
			if err = ctx.Err(); err != nil {
				break
			}
			if err = evalOne(ctx, i, &s.arena, false); err != nil {
				break
			}
		}
	} else {
		poolCtx, cancel := context.WithCancel(ctx)
		var next atomic.Int64
		var wg sync.WaitGroup
		var errOnce sync.Once
		fail := func(e error) {
			errOnce.Do(func() {
				err = e
				cancel()
			})
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var arena sim.Arena
				for {
					k := int(next.Add(1)) - 1
					if k >= len(pending) {
						return
					}
					if e := poolCtx.Err(); e != nil {
						fail(e)
						return
					}
					if e := evalOne(poolCtx, pending[k], &arena, true); e != nil {
						fail(e)
						return
					}
				}
			}()
		}
		wg.Wait()
		cancel()
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.stats.Pruned += int(pruned.Load())
	s.stats.Workers = workers
	s.mu.Unlock()
	span.Set(obs.Int("scored", len(pending)-int(pruned.Load())), obs.Int("pruned", int(pruned.Load())),
		obs.Int("memo_hits", len(candidates)-len(pending)), obs.Int("workers", workers),
		obs.String("regime", "replay"))
	span.End()
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
		loadedR := make([]int, regions)
		for i := range loadedR {
			loadedR[i] = -1
		}
		if pm.NumPartitions == 0 {
			loadedR[0] = 0 // nothing to configure
		}
		var loads int64
		s.rep.WalkTrace(func(b ir.BlockID) {
			if movedMask[b] {
				return
			}
			need := pm.FirstPart[b]
			if reg := need % regions; loadedR[reg] != need {
				loads++
				loadedR[reg] = need
			}
			for q := need + 1; q <= pm.LastPart[b]; q++ {
				if reg := q % regions; loadedR[reg] != q {
					loads++
					loadedR[reg] = q
				}
			}
		})
		ticks += loads * reconT
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
		sameBlocks(moved[:len(prev.moved)], prev.moved) &&
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
	// single-frame makespan that needs the trace at all.
	entryLoads := make([]int64, n)
	loaded := -1
	if pm.NumPartitions == 0 {
		loaded = 0 // nothing to configure
	}
	s.rep.WalkTrace(func(b ir.BlockID) {
		if movedMask[b] {
			return
		}
		if pm.FirstPart[b] != loaded {
			entryLoads[b]++
			loaded = pm.FirstPart[b]
		}
		loaded = pm.LastPart[b]
	})
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

func sameBlocks(a, b []ir.BlockID) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
