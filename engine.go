package hybridpart

import (
	"context"
	"fmt"
	"sync"

	"hybridpart/internal/analysis"
	"hybridpart/internal/energy"
	"hybridpart/internal/explore"
	"hybridpart/internal/obs"
	"hybridpart/internal/partition"
	"hybridpart/internal/platform"
	"hybridpart/internal/sim"
)

// Engine is the entry point to the methodology: a fixed configuration of
// the platform and engine knobs, built once from functional options,
// validated as a whole, and then applied to any number of workloads. An
// Engine's configuration is immutable after NewEngine returns, and observer
// delivery is serialized internally, so an Engine is safe for concurrent use
// from multiple goroutines.
//
//	eng, _ := hybridpart.NewEngine(
//		hybridpart.WithPlatform("paper-large"),
//		hybridpart.WithConstraint(60000),
//		hybridpart.WithObserver(func(ev hybridpart.Event) { ... }),
//	)
//	res, _ := eng.Partition(ctx, w)
//
// Every run method takes a context.Context that is honored between kernel
// moves and between sweep cells, so long explorations can be cancelled or
// given deadlines; progress streams through the configured Observer.
type Engine struct {
	opts Options
	// constraintSet records an explicit WithConstraint, which then serves
	// as the sweep-wide fallback before per-benchmark paper defaults.
	constraintSet bool
	budget        float64
	observer      Observer
	// hooks are the test-only scoring switches handed to every simScorer.
	hooks scoringHooks
	// cellStart, when non-nil, runs at the start of every sweep cell's
	// evaluation, on the worker goroutine. Tests use it to act from inside
	// a cell, independent of worker timing.
	cellStart func(SweepPoint)
	// obsMu serializes observer delivery across concurrent runs on the
	// same engine, upholding the Observer contract ("never invoked
	// concurrently") even when Partition/Sweep are called from multiple
	// goroutines.
	obsMu sync.Mutex
}

// emit delivers one event to the observer under the delivery lock.
// Observers must not call back into the same engine's run methods.
func (e *Engine) emit(ev Event) {
	e.obsMu.Lock()
	defer e.obsMu.Unlock()
	e.observer(ev)
}

// Option configures an Engine under construction. Options are applied in
// order, so later options layer over earlier ones — e.g. WithPlatform
// followed by WithArea keeps the preset's characterization but overrides
// A_FPGA.
type Option func(*Engine) error

// NewEngine builds an Engine from the paper's baseline configuration
// (DefaultOptions) layered with the given options, then checks the
// resolved knob set once with Options.Validate. Only the final knob set is
// checked, so WithArea(-1) followed by WithPlatform(p) is accepted. An
// unknown preset, a non-positive WithConstraint or WithEnergyBudget, or an
// invalid final knob set is an error.
func NewEngine(options ...Option) (*Engine, error) {
	e := &Engine{opts: DefaultOptions()}
	for _, opt := range options {
		if opt == nil {
			continue
		}
		if err := opt(e); err != nil {
			return nil, err
		}
	}
	if err := e.opts.Validate(); err != nil {
		return nil, err
	}
	return e, nil
}

// applyPlatform overwrites o's platform characterization fields (area,
// reconfiguration cost, operator costs, CGC shape, clocking, communication)
// with p's, leaving the engine knobs (constraint, order, weights, move
// policy) untouched.
func applyPlatform(o *Options, p platform.Platform) {
	o.AFPGA = p.Fine.Area
	o.ReconfigCycles = p.Fine.ReconfigCycles
	o.Regions = p.Fine.Regions
	o.Costs = p.Fine.Costs
	o.NumCGCs = p.Coarse.NumCGCs
	o.CGCRows = p.Coarse.Rows
	o.CGCCols = p.Coarse.Cols
	o.MemPorts = p.Coarse.MemPorts
	o.ClockRatio = p.Coarse.ClockRatio
	o.RegBankWords = p.Coarse.RegBankWords
	o.CommCyclesPerWord = p.Comm.CyclesPerWord
	o.CommSyncCycles = p.Comm.SyncCycles
}

// presetPlatform resolves a platform preset name through the registry; ""
// and "default" name the paper's baseline platform.
func presetPlatform(name string) (platform.Platform, error) {
	if name == "" || name == "default" {
		return platform.Default(), nil
	}
	cfg, ok := platform.Lookup(name)
	if !ok {
		return platform.Platform{}, fmt.Errorf("hybridpart: unknown platform preset %q (have %v)", name, platform.Names())
	}
	return cfg.Platform, nil
}

// WithPlatform layers the named preset's full platform characterization
// (see PlatformPresets) over the engine. "" and "default" select the
// paper's baseline platform.
func WithPlatform(preset string) Option {
	return func(e *Engine) error {
		p, err := presetPlatform(preset)
		if err != nil {
			return err
		}
		applyPlatform(&e.opts, p)
		return nil
	}
}

// WithArea sets the usable fine-grain area A_FPGA.
func WithArea(afpga int) Option {
	return func(e *Engine) error {
		e.opts.AFPGA = afpga
		return nil
	}
}

// WithRegions splits the fine-grain fabric into n independently
// reconfigurable regions (partial dynamic reconfiguration). 0 and 1 both
// select the paper's monolithic context; with more regions the area divides
// evenly, each swap costs ReconfigCycles/n (rounded up), and temporal
// partitions resident in different regions coexist instead of evicting each
// other. The knob participates in Options.Fingerprint.
func WithRegions(n int) Option {
	return func(e *Engine) error {
		e.opts.Regions = n
		return nil
	}
}

// WithCGCs sets the number of CGCs in the coarse-grain data-path.
func WithCGCs(n int) Option {
	return func(e *Engine) error {
		e.opts.NumCGCs = n
		return nil
	}
}

// WithConstraint sets the timing constraint in FPGA cycles. In Sweep it
// also becomes the fallback for cells whose spec gives no constraint axis,
// taking precedence over the per-benchmark paper defaults.
func WithConstraint(c int64) Option {
	return func(e *Engine) error {
		if c <= 0 {
			return fmt.Errorf("hybridpart: timing constraint must be positive, got %d", c)
		}
		e.opts.Constraint = c
		e.constraintSet = true
		return nil
	}
}

// WithObjective selects the move-loop objective: ObjectiveModel (the
// paper's closed-form t_total, the default) or ObjectiveSimulated, which
// scores every trajectory prefix by replaying the profiled trace through the
// co-simulator under the engine's sim knobs (WithSimFrames/WithSimPorts/
// WithSimPrefetch) and keeps the mapping with the minimal simulated
// makespan. The simulated objective closes the estimation-vs-execution gap:
// frame pipelining, port contention and prefetch are invisible to the
// closed form, so the model can prefer a partition the simulator proves
// slower.
func WithObjective(o Objective) Option {
	return func(e *Engine) error {
		e.opts.Objective = o
		return nil
	}
}

// WithRerank keeps the closed-form move loop but re-scores the k trajectory
// prefixes with the best model t_total by simulation, returning the one with
// the minimal simulated makespan (0 disables re-ranking, -1 re-scores every
// prefix — equivalent to WithObjective(ObjectiveSimulated)). It is the
// cheaper middle ground when a full simulated objective is too expensive.
func WithRerank(k int) Option {
	return func(e *Engine) error {
		e.opts.RerankK = k
		return nil
	}
}

// WithSimFrames sets the engine-level co-simulation frame count (0 = 1, the
// analytical model's operating point). The knob participates in
// Options.Fingerprint and is shared by Simulate, the simulated objective and
// re-ranking.
func WithSimFrames(n int) Option {
	return func(e *Engine) error {
		e.opts.SimFrames = n
		return nil
	}
}

// WithSimPorts sets the engine-level transfer-channel width in shared-memory
// ports (0 = 1). See WithSimFrames for scope and fingerprinting.
func WithSimPorts(n int) Option {
	return func(e *Engine) error {
		e.opts.SimPorts = n
		return nil
	}
}

// WithSimPrefetch enables configuration prefetch at the engine level. See
// WithSimFrames for scope and fingerprinting.
func WithSimPrefetch(on bool) Option {
	return func(e *Engine) error {
		e.opts.SimPrefetch = on
		return nil
	}
}

// WithEnergyBudget sets the energy budget for PartitionEnergy (arbitrary
// consistent units; see internal/energy for the characterization).
func WithEnergyBudget(budget float64) Option {
	return func(e *Engine) error {
		if budget <= 0 {
			return fmt.Errorf("hybridpart: energy budget must be positive, got %g", budget)
		}
		e.budget = budget
		return nil
	}
}

// WithObserver streams the engine's progress events (MoveEvent,
// EnergyMoveEvent, CellEvent) to fn. See Observer for the delivery
// guarantees.
func WithObserver(fn Observer) Option {
	return func(e *Engine) error {
		e.observer = fn
		return nil
	}
}

// WithOptions replaces the engine's entire knob set with a flat Options
// value, in which a zero Costs table selects the default characterization.
// It reaches every knob, including those with no granular option (the
// reconfiguration cost, CGC shape, memory ports, clock ratio, register
// bank, communication costs, operator costs, kernel order, move limit, skip
// switch and analysis weights); the partitioning service builds its
// engines through it.
func WithOptions(o Options) Option {
	return func(e *Engine) error {
		e.opts = o
		e.constraintSet = false
		return nil
	}
}

// Options returns the engine's resolved knob set as a flat Options value
// (useful for displaying the effective configuration).
func (e *Engine) Options() Options { return e.opts }

// moveHook adapts the configured observer to the internal engine's per-move
// callback (nil when no observer is configured).
func (e *Engine) moveHook(constraint int64) func(partition.Move) {
	if e.observer == nil {
		return nil
	}
	seq := 0
	return func(m partition.Move) {
		seq++
		e.emit(MoveEvent{
			Seq:        seq,
			Block:      int(m.Block),
			CGCCycles:  m.CGCCycles,
			TotalAfter: m.TotalAfter,
			Constraint: constraint,
			Met:        m.TotalAfter <= constraint,
		})
	}
}

// Analyze runs the static+dynamic analysis step (Table 1 of the paper)
// against the workload's accumulated profile.
func (e *Engine) Analyze(w *Workload) (*Analysis, error) {
	app, prof, err := w.profiled()
	if err != nil {
		return nil, err
	}
	rep := prof.analysisFor(app, e.opts.weights()).rep
	out := &Analysis{rep: rep}
	for _, id := range rep.Kernels {
		b := rep.Block(id)
		out.Kernels = append(out.Kernels, KernelInfo{
			Block:       int(b.ID),
			Name:        b.Name,
			Freq:        b.Freq,
			OpWeight:    b.OpWeight,
			TotalWeight: b.TotalWeight,
			LoopDepth:   b.Depth,
		})
	}
	return out, nil
}

// Partition runs the full methodology (steps 2–5) on the workload's
// accumulated profile. The context is checked between kernel moves;
// cancellation returns ctx.Err(). Each accepted move is streamed to the
// observer as a MoveEvent.
func (e *Engine) Partition(ctx context.Context, w *Workload) (*Result, error) {
	app, prof, err := w.profiled()
	if err != nil {
		return nil, err
	}
	return e.PartitionProfiled(ctx, app, prof)
}

// PartitionProfiled is Partition on a pre-compiled App and an explicit
// profile snapshot. It exists for callers that share one compile+profile
// across many knob sets — the partitioning service pairs it with
// ProfileBenchmarkCached so a cache miss on a new constraint does not
// recompile or re-profile the benchmark. Output is identical to Partition
// on a Workload holding the same app and profile.
func (e *Engine) PartitionProfiled(ctx context.Context, a *App, p *RunProfile) (*Result, error) {
	if a == nil || p == nil {
		return nil, fmt.Errorf("hybridpart: PartitionProfiled needs a non-nil app and profile")
	}
	res, _, err := e.partitionScored(ctx, a, p, e.opts, e.moveHook(e.opts.Constraint), nil, true)
	return res, err
}

// partitionScored runs one partitioning evaluation with an explicit knob
// set (Sweep resolves per-cell options and calls this per grid cell). When
// any co-simulation knob is active — the simulated objective, re-ranking,
// or an explicit frames/ports/prefetch operating point — it also scores the
// chosen mapping and the all-FPGA baseline by simulation, so model-objective
// runs report the simulated makespan of their choice for comparison. A
// non-nil onFrame additionally replays the chosen mapping once with
// per-frame callbacks (Sweep uses it to stream per-cell SimEvents).
//
// It also returns the run's Replayer (nil when no sim knob is active) so
// callers that keep simulating — Engine.Simulate replays both mappings for
// its report — can reuse it instead of rebuilding the floors. report=false
// skips the final/baseline scoring of the chosen mapping for callers that
// are about to replay it anyway.
//
// The run's trajectory records, arena and memo come from scratchPool and go
// back when this call returns, after the report has read them.
func (e *Engine) partitionScored(ctx context.Context, a *App, p *RunProfile, opts Options,
	onMove func(partition.Move), onFrame func(frame int, cycles int64),
	report bool) (*Result, *sim.Replayer, error) {
	sc := scratchPool.Get().(*runScratch)
	defer scratchPool.Put(sc)
	cfg, rep, scorer, err := e.runConfig(ctx, a, p, opts, sc)
	if err != nil {
		return nil, nil, err
	}
	cfg.OnMove = onMove
	res, err := partition.Partition(ctx, a.fprog, a.flat, rep, cfg)
	if err != nil {
		return nil, nil, err
	}
	sc.prefixes = res.Prefixes
	out := &Result{
		InitialCycles:     res.InitialCycles,
		InitialPartitions: res.InitialPartitions,
		FinalCycles:       res.FinalCycles,
		CyclesInCGC:       res.CyclesInCGC,
		TFPGA:             res.TFPGA,
		TCoarse:           res.TCoarse,
		TComm:             res.TComm,
		Constraint:        res.Constraint,
		Met:               res.Met,
		Objective:         res.Objective,
		Moved:             blockIDsToInts(res.Moved),
		Unmappable:        blockIDsToInts(res.Unmappable),
		Skipped:           blockIDsToInts(res.Skipped),
	}
	if scorer != nil && report {
		repCtx, repSpan := obs.Start(ctx, "sim.report")
		defer repSpan.End()
		ctx = repCtx
		// Both calls are memo hits when the objective already scored them:
		// the chosen mapping is record len(Moved), the all-FPGA one record 0.
		total, err := scorer.Score(ctx, res.Prefixes, len(res.Moved))
		if err != nil {
			return nil, nil, err
		}
		base, err := scorer.Score(ctx, res.Prefixes, 0)
		if err != nil {
			return nil, nil, err
		}
		out.SimulatedCycles = total
		out.SimulatedBaselineCycles = base
		if total > 0 {
			out.SimulatedSpeedup = float64(base) / float64(total)
		}
		out.SimStats = scorer.stats
		if onFrame != nil {
			cfg := scorer.cfg
			cfg.OnFrame = onFrame
			if _, err := scorer.rep.Simulate(ctx, cfg, res.Moved); err != nil {
				return nil, nil, err
			}
		}
	}
	if scorer == nil {
		return out, nil, nil
	}
	return out, scorer.rep, nil
}

// runConfig builds the move loop's configuration for one run of opts on a
// and p, storing the trajectory records in sc, and returns it with the
// analysis report the loop reads and the run's scorer, built on sc (nil
// when no sim knob is active).
func (e *Engine) runConfig(ctx context.Context, a *App, p *RunProfile, opts Options,
	sc *runScratch) (partition.Config, *analysis.Report, *simScorer, error) {
	cfg, rep, err := loopConfig(ctx, a, p, opts, sc)
	if err != nil {
		return partition.Config{}, nil, nil, err
	}
	cfg.Constraint = opts.Constraint
	cfg.MaxMoves = opts.MaxMoves
	cfg.SkipNonImproving = opts.SkipNonImproving
	cfg.Objective = opts.Objective
	cfg.RerankK = opts.RerankK
	var scorer *simScorer
	if simKnobsActive(opts) {
		if scorer, err = newSimScorer(ctx, a, p, cfg.Platform, simSpecOf(opts), sc); err != nil {
			return partition.Config{}, nil, nil, err
		}
		scorer.hooks = e.hooks
		cfg.SimCostBatch = scorer.ScoreBatch
	}
	return cfg, rep, scorer, nil
}

// loopConfig builds the part of the move loop's configuration that time
// and energy runs of opts on a and p share — the platform, kernel order,
// edges, and the App's block and latency tables — with the trajectory
// records stored in sc, and returns it with the analysis report the loop
// reads.
func loopConfig(ctx context.Context, a *App, p *RunProfile, opts Options,
	sc *runScratch) (partition.Config, *analysis.Report, error) {
	plat := opts.platform()
	// Validate before the App schedules its kernels on plat's data-path:
	// an invalid platform must not replace the App's latency table.
	if err := plat.Validate(); err != nil {
		return partition.Config{}, nil, err
	}
	lat, err := a.coarseLatencies(ctx, plat.Coarse)
	if err != nil {
		return partition.Config{}, nil, err
	}
	an := p.analysisFor(a, opts.weights())
	return partition.Config{
		Platform:  plat,
		Order:     opts.Order,
		Kernels:   an.kernels(opts.Order),
		Edges:     p.edges,
		Tables:    a.blockTables(),
		Latencies: lat,
		Prefixes:  sc.prefixes,
	}, an.rep, nil
}

// PartitionEnergy runs the energy-constrained engine against the budget set
// with WithEnergyBudget. The context is checked between kernel moves; each
// accepted move is streamed to the observer as an EnergyMoveEvent.
func (e *Engine) PartitionEnergy(ctx context.Context, w *Workload) (*EnergyResult, error) {
	app, prof, err := w.profiled()
	if err != nil {
		return nil, err
	}
	return e.PartitionEnergyProfiled(ctx, app, prof)
}

// PartitionEnergyProfiled is PartitionEnergy on a pre-compiled App and an
// explicit profile snapshot — see PartitionProfiled for when to prefer it
// over the Workload path.
//
// It runs the paper's move loop with the energy model as the stop test:
// each trajectory record is priced from its packing, and the run stops at
// the first record within the budget. The engine's move limit, skip
// switch, objective and rerank knobs do not apply to energy runs.
func (e *Engine) PartitionEnergyProfiled(ctx context.Context, a *App, p *RunProfile) (*EnergyResult, error) {
	if a == nil || p == nil {
		return nil, fmt.Errorf("hybridpart: PartitionEnergyProfiled needs a non-nil app and profile")
	}
	if e.budget <= 0 {
		return nil, fmt.Errorf("hybridpart: PartitionEnergy needs a positive energy budget (use WithEnergyBudget)")
	}
	sc := scratchPool.Get().(*runScratch)
	defer scratchPool.Put(sc)
	cfg, rep, err := loopConfig(ctx, a, p, e.opts, sc)
	if err != nil {
		return nil, err
	}
	out := &EnergyResult{Budget: e.budget}
	costs := energy.DefaultCosts()
	seq := 0
	cfg.Stop = func(rec *partition.Prefix) bool {
		bd := EnergyBreakdown(energy.Evaluate(cfg.Tables, p.Freq, &rec.Pack, rec.Crossings, costs))
		total := bd.Total()
		met := total <= out.Budget
		if rec.Block < 0 {
			out.Initial = bd
		} else if e.observer != nil {
			seq++
			e.emit(EnergyMoveEvent{Seq: seq, Block: int(rec.Block), EnergyAfter: total, Budget: out.Budget, Met: met})
		}
		out.Final = bd
		return met
	}
	res, err := partition.Partition(ctx, a.fprog, a.flat, rep, cfg)
	if err != nil {
		return nil, err
	}
	sc.prefixes = res.Prefixes
	out.InitialEnergy, out.FinalEnergy = out.Initial.Total(), out.Final.Total()
	out.Met = res.Met
	out.Moved = blockIDsToInts(res.Moved)
	out.Unmappable = blockIDsToInts(res.Unmappable)
	return out, nil
}

// Sweep runs the design-space-exploration engine over the spec: each
// benchmark is compiled and profiled once (via ProfileBenchmarkCached) and
// every grid cell starts from the engine's configured knobs, layered with
// the cell's preset and axis overrides, then partitioned on a bounded
// worker pool. An empty cell preset inherits the engine's platform; the
// literal preset "default" pins the cell to the paper's baseline platform
// regardless of the engine configuration. Per-cell failures are recorded in the outcome's Err field
// rather than aborting the sweep; outcomes land in expansion order
// regardless of the worker count.
//
// The context is threaded through the worker pool and into every cell's
// move loop: cancelling it abandons queued cells, interrupts in-flight
// ones, and returns ctx.Err() together with a partial SweepResult (Partial
// set, Outcomes holding only the cells that completed before the cut).
// Completed cells are streamed to the observer as CellEvents, always in
// expansion order. Per-move events are not forwarded from inside sweep
// cells — parallel cells would interleave them nondeterministically.
func (e *Engine) Sweep(ctx context.Context, spec SweepSpec) (*SweepResult, error) {
	// simBuf parks each simulated cell's per-frame SimEvents until the cell
	// is reported: the progress callback flushes them in expansion order
	// right before the cell's CellEvent, keeping the observer stream
	// deterministic for any worker count.
	var simBuf sync.Map // cell index -> []SimEvent
	eval := func(p SweepPoint) (SweepOutcome, error) {
		if e.cellStart != nil {
			e.cellStart(p)
		}
		app, prof, err := ProfileBenchmarkCached(p.Benchmark, spec.Seed)
		if err != nil {
			return SweepOutcome{}, err
		}
		// Preset resolution: "" inherits the engine's configured platform,
		// "default" explicitly selects the paper baseline, anything else is
		// a registry lookup.
		opts := e.opts
		if p.Preset != "" {
			plat, err := presetPlatform(p.Preset)
			if err != nil {
				return SweepOutcome{}, err
			}
			applyPlatform(&opts, plat)
		}
		if p.AFPGA > 0 {
			opts.AFPGA = p.AFPGA
		}
		if p.NumCGCs > 0 {
			opts.NumCGCs = p.NumCGCs
		}
		if p.Regions > 0 {
			opts.Regions = p.Regions
		}
		constraint := p.Constraint
		if constraint == 0 && e.constraintSet {
			constraint = e.opts.Constraint
		}
		if constraint == 0 {
			constraint = DefaultConstraint(p.Benchmark)
		}
		if constraint == 0 {
			return SweepOutcome{}, fmt.Errorf("hybridpart: no constraint given and no default for benchmark %q", p.Benchmark)
		}
		opts.Constraint = constraint

		// Co-simulation resolution: the cell's axes override the engine's
		// sim knobs; a bool/string axis applies only when present (its zero
		// value cannot mean "unset"). Any sim axis in the spec forces
		// simulation scoring, so an objectives=["model","sim"] sweep charts
		// the simulated makespan of both loops side by side.
		if p.Frames > 0 {
			opts.SimFrames = p.Frames
		}
		if p.Ports > 0 {
			opts.SimPorts = p.Ports
		}
		if len(spec.Prefetch) > 0 {
			opts.SimPrefetch = p.Prefetch
		}
		if p.Objective != "" {
			obj, err := ParseObjective(p.Objective)
			if err != nil {
				return SweepOutcome{}, err
			}
			// The axis selects the whole mode: an explicit "model" cell is
			// the pure closed-form loop, not closed-form-plus-rerank.
			opts.Objective = obj
			opts.RerankK = 0
		}
		if spec.Simulates() && opts.SimFrames == 0 {
			opts.SimFrames = 1 // activate scoring at the model's operating point
		}
		simFrames, simPorts := max(opts.SimFrames, 1), max(opts.SimPorts, 1)

		var onFrame func(int, int64)
		var cellEvents []SimEvent
		if e.observer != nil && simKnobsActive(opts) {
			onFrame = func(frame int, cycles int64) {
				cellEvents = append(cellEvents, SimEvent{
					Stage: "partitioned", Cell: p.Index, Frame: frame, Frames: simFrames, Cycles: cycles,
				})
			}
		}
		res, _, err := e.partitionScored(ctx, app, prof, opts, nil, onFrame, true)
		if err != nil {
			return SweepOutcome{}, err
		}
		if len(cellEvents) > 0 {
			simBuf.Store(p.Index, cellEvents)
		}
		out := SweepOutcome{
			InitialCycles:       res.InitialCycles,
			InitialPartitions:   res.InitialPartitions,
			CyclesInCGC:         res.CyclesInCGC,
			FinalCycles:         res.FinalCycles,
			TFPGA:               res.TFPGA,
			TCoarse:             res.TCoarse,
			TComm:               res.TComm,
			EffectiveAFPGA:      opts.AFPGA,
			EffectiveCGCs:       opts.NumCGCs,
			EffectiveRegions:    opts.Regions,
			EffectiveConstraint: constraint,
			Met:                 res.Met,
			Moved:               res.Moved,
			ReductionPct:        res.ReductionPct(),
		}
		if res.FinalCycles > 0 {
			out.Speedup = float64(res.InitialCycles) / float64(res.FinalCycles)
		}
		if res.SimulatedCycles > 0 || res.SimulatedBaselineCycles > 0 {
			out.Simulated = true
			out.SimCycles = res.SimulatedCycles
			out.SimBaselineCycles = res.SimulatedBaselineCycles
			out.SimSpeedup = res.SimulatedSpeedup
			out.EffectiveFrames = simFrames
			out.EffectivePorts = simPorts
			out.EffectivePrefetch = opts.SimPrefetch
			out.EffectiveObjective = opts.Objective.String()
		}
		return out, nil
	}
	var progress explore.Progress
	if e.observer != nil {
		progress = func(o explore.Outcome, done, total int) {
			if evs, ok := simBuf.LoadAndDelete(o.Index); ok {
				for _, se := range evs.([]SimEvent) {
					e.emit(se)
				}
			}
			e.emit(CellEvent{Outcome: o, Done: done, Total: total})
		}
	}
	return explore.RunObserved(ctx, spec, eval, progress)
}
