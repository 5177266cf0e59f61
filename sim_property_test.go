package hybridpart

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
)

// This file is the model↔simulator agreement suite: randomized (seeded,
// logged) properties that pin the simulation-scored move loop to the
// discrete-event simulator and the simulator to the analytical model as
// both evolve. The four properties:
//
//	(a) the simulated objective never loses to the model objective on its
//	    own metric — simulated makespan;
//	(b) contention-free single-frame runs still agree with the analytical
//	    model cycle for cycle (the PR-4 exactness invariant survives the
//	    move-loop refactor);
//	(c) prefetch is never slower;
//	(d) re-ranking every prefix is the simulated objective (rerank k = -1
//	    and ObjectiveSimulated choose identical mappings and makespans).

// propertySeeds are the logged RNG seeds every property runs under. Fixed
// seeds keep failures reproducible; the t.Logf lines name the seed and the
// drawn configuration so a red run can be replayed verbatim.
var propertySeeds = []int64{1, 2, 3}

// propertyConfig is one randomized operating point.
type propertyConfig struct {
	area       int
	frames     int
	ports      int
	prefetch   bool
	constraint int64
	maxMoves   int
	regions    int
}

func drawConfig(rng *rand.Rand) propertyConfig {
	areas := []int{768, 1000, 1500, 2200, 3000, 5000}
	framesChoices := []int{1, 2, 4, 8}
	constraints := []int64{1, 30000, 60000, 120000}
	regionsChoices := []int{1, 2, 4}
	c := propertyConfig{
		area:       areas[rng.Intn(len(areas))],
		frames:     framesChoices[rng.Intn(len(framesChoices))],
		ports:      1 + rng.Intn(3),
		prefetch:   rng.Intn(2) == 1,
		constraint: constraints[rng.Intn(len(constraints))],
		maxMoves:   rng.Intn(9), // 0 = unlimited
		regions:    regionsChoices[rng.Intn(len(regionsChoices))],
	}
	if c.regions == 4 && c.area < 1024 {
		c.regions = 2 // the per-region area must still fit the largest operator (256 units)
	}
	return c
}

func (c propertyConfig) String() string {
	return fmt.Sprintf("area=%d frames=%d ports=%d prefetch=%v constraint=%d maxmoves=%d regions=%d",
		c.area, c.frames, c.ports, c.prefetch, c.constraint, c.maxMoves, c.regions)
}

func (c propertyConfig) engineOpts(extra ...Option) []Option {
	opts := []Option{
		WithArea(c.area),
		WithConstraint(c.constraint),
		WithSimFrames(c.frames),
		WithSimPorts(c.ports),
		WithSimPrefetch(c.prefetch),
	}
	if c.maxMoves > 0 {
		opts = append(opts, WithMaxMoves(c.maxMoves))
	}
	if c.regions > 1 {
		// regions == 1 deliberately leaves Regions unset: monolithic draws
		// keep exercising the untouched legacy configuration.
		opts = append(opts, WithRegions(c.regions))
	}
	return append(opts, extra...)
}

// withHooks installs test-only scoring hooks on the engine under
// construction.
func withHooks(h scoringHooks) Option {
	return func(e *Engine) error {
		e.hooks = h
		return nil
	}
}

func partitionWith(t *testing.T, app *App, prof *RunProfile, opts ...Option) *Result {
	t.Helper()
	eng, err := NewEngine(opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.PartitionProfiled(context.Background(), app, prof)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestObjectiveSimulatedBeatsModelOFDM is the acceptance pin: on OFDM with
// 8 pipelined frames, both the full simulated objective and rerank(3) find
// a partition whose simulated makespan is strictly lower than the one the
// closed-form model objective picks — the estimation-vs-execution gap the
// feedback loop exists to close.
func TestObjectiveSimulatedBeatsModelOFDM(t *testing.T) {
	t.Parallel()
	app, prof, err := ProfileBenchmarkCached(BenchOFDM, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := []Option{WithConstraint(60000), WithSimFrames(8)}
	model := partitionWith(t, app, prof, base...)
	if model.SimulatedCycles == 0 {
		t.Fatal("model-objective run did not report a simulated makespan")
	}
	simObj := partitionWith(t, app, prof, append(base, WithObjective(ObjectiveSimulated))...)
	if simObj.SimulatedCycles >= model.SimulatedCycles {
		t.Fatalf("simulated objective did not improve: %d >= %d (moved %v vs %v)",
			simObj.SimulatedCycles, model.SimulatedCycles, simObj.Moved, model.Moved)
	}
	rerank := partitionWith(t, app, prof, append(base, WithRerank(3))...)
	if rerank.SimulatedCycles >= model.SimulatedCycles {
		t.Fatalf("rerank(3) did not improve: %d >= %d", rerank.SimulatedCycles, model.SimulatedCycles)
	}
	t.Logf("OFDM x8 frames: model objective %d cycles (speedup %.3f), simulated objective %d (%.3f), rerank(3) %d",
		model.SimulatedCycles, model.SimulatedSpeedup, simObj.SimulatedCycles, simObj.SimulatedSpeedup,
		rerank.SimulatedCycles)
}

// TestSimPropertyObjectiveNotWorse is property (a): across randomized
// operating points the simulated objective's makespan is never above the
// model objective's — the model's choice is always in the simulated
// objective's candidate set.
func TestSimPropertyObjectiveNotWorse(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	app, prof, err := ProfileBenchmarkCached(BenchOFDM, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range propertySeeds {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 4; i++ {
			cfg := drawConfig(rng)
			t.Logf("seed=%d draw=%d %s", seed, i, cfg)
			model := partitionWith(t, app, prof, cfg.engineOpts()...)
			sim := partitionWith(t, app, prof, cfg.engineOpts(WithObjective(ObjectiveSimulated))...)
			if sim.SimulatedCycles > model.SimulatedCycles {
				t.Fatalf("seed=%d %s: simulated objective worse: %d > %d",
					seed, cfg, sim.SimulatedCycles, model.SimulatedCycles)
			}
			rr := partitionWith(t, app, prof, cfg.engineOpts(WithRerank(1+rng.Intn(4)))...)
			if rr.SimulatedCycles > model.SimulatedCycles {
				t.Fatalf("seed=%d %s: rerank worse than model: %d > %d",
					seed, cfg, rr.SimulatedCycles, model.SimulatedCycles)
			}
		}
	}
}

// TestSimPropertyExactnessPreserved is property (b): on contention-free
// single-frame no-prefetch configurations the simulation-scored loop agrees
// with the model wherever the model's idealizations hold. Concretely, for
// every randomized area × moved-set: the loop's score is exactly what an
// independent Engine.Simulate of the chosen mapping measures (the loop
// optimizes precisely the simulator's metric); the all-FPGA baseline is
// always exact against the model (no moved blocks, so the crossing rules
// coincide); and whenever the replay performs exactly the configuration
// loads the model charges, the partitioned makespan is the model's t_total
// cycle for cycle. (Unconditional exactness on the paper's own operating
// points stays pinned by TestSimulateModelParity, unchanged since PR 4 —
// mappings whose loads and crossings diverge are a documented model
// idealization, spelled out in the report's validation notes.)
func TestSimPropertyExactnessPreserved(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	for _, bench := range Benchmarks() {
		app, prof, err := ProfileBenchmarkCached(bench, 1)
		if err != nil {
			t.Fatal(err)
		}
		draws := 4
		if bench == BenchJPEG {
			draws = 1 // the JPEG trace is long; one draw per seed keeps the suite quick
		}
		exactSeen := false
		for _, seed := range propertySeeds {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < draws; i++ {
				cfg := drawConfig(rng)
				cfg.frames, cfg.ports, cfg.prefetch = 1, 1, false
				cfg.regions = 1 // model exactness is a monolithic-context claim
				t.Logf("bench=%s seed=%d draw=%d %s", bench, seed, i, cfg)
				eng, err := NewEngine(cfg.engineOpts(WithObjective(ObjectiveSimulated))...)
				if err != nil {
					t.Fatal(err)
				}
				res, err := eng.PartitionProfiled(context.Background(), app, prof)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := eng.SimulateProfiled(context.Background(), app, prof)
				if err != nil {
					t.Fatal(err)
				}
				if res.SimulatedCycles != rep.TotalCycles {
					t.Fatalf("bench=%s seed=%d %s: loop scored %d, simulator measures %d",
						bench, seed, cfg, res.SimulatedCycles, rep.TotalCycles)
				}
				if res.SimulatedBaselineCycles != rep.BaselineCycles {
					t.Fatalf("bench=%s seed=%d %s: loop baseline %d, simulator %d",
						bench, seed, cfg, res.SimulatedBaselineCycles, rep.BaselineCycles)
				}
				if rep.BaselineCycles != res.InitialCycles {
					t.Fatalf("bench=%s seed=%d %s: simulated baseline %d != model all-FPGA %d",
						bench, seed, cfg, rep.BaselineCycles, res.InitialCycles)
				}
				if rep.Reconfigs == rep.ModelCrossings {
					exactSeen = true
					if res.SimulatedCycles != res.FinalCycles {
						t.Fatalf("bench=%s seed=%d %s: loads match crossings yet simulated %d != t_total %d",
							bench, seed, cfg, res.SimulatedCycles, res.FinalCycles)
					}
				}
			}
		}
		if !exactSeen {
			t.Errorf("bench=%s: no draw exercised the exact-agreement branch", bench)
		}
	}
}

// TestSimPropertyPrefetchNeverSlower is property (c): for randomized
// areas × moved-sets × frames × ports, enabling configuration prefetch
// never increases the simulated makespan.
func TestSimPropertyPrefetchNeverSlower(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	app, prof, err := ProfileBenchmarkCached(BenchOFDM, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range propertySeeds {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 4; i++ {
			cfg := drawConfig(rng)
			t.Logf("seed=%d draw=%d %s", seed, i, cfg)
			off := partitionWith(t, app, prof, cfg.engineOpts(WithSimPrefetch(false))...)
			on := partitionWith(t, app, prof, cfg.engineOpts(WithSimPrefetch(true))...)
			if on.SimulatedCycles > off.SimulatedCycles {
				t.Fatalf("seed=%d %s: prefetch slower: %d > %d",
					seed, cfg, on.SimulatedCycles, off.SimulatedCycles)
			}
		}
	}
}

// TestSimPropertyRerankAllEquivalent is property (d): re-ranking every
// prefix (k = -1, and any k at least the trajectory length) is the full
// simulated objective — identical chosen mapping, identical makespan.
func TestSimPropertyRerankAllEquivalent(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	app, prof, err := ProfileBenchmarkCached(BenchOFDM, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range propertySeeds {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 3; i++ {
			cfg := drawConfig(rng)
			t.Logf("seed=%d draw=%d %s", seed, i, cfg)
			full := partitionWith(t, app, prof, cfg.engineOpts(WithObjective(ObjectiveSimulated))...)
			for _, k := range []int{-1, 10000} {
				rr := partitionWith(t, app, prof, cfg.engineOpts(WithRerank(k))...)
				if rr.SimulatedCycles != full.SimulatedCycles || fmt.Sprint(rr.Moved) != fmt.Sprint(full.Moved) {
					t.Fatalf("seed=%d %s rerank(%d): moved %v sim %d, want moved %v sim %d",
						seed, cfg, k, rr.Moved, rr.SimulatedCycles, full.Moved, full.SimulatedCycles)
				}
			}
		}
	}
}

// TestSimPropertyMonolithicIdentity pins the multi-region model's backward
// compatibility: WithRegions(1) is the legacy single-context platform, not a
// near miss — identical chosen mapping, identical makespans, byte-identical
// SimReport JSON against an engine that never mentions regions.
func TestSimPropertyMonolithicIdentity(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	app, prof, err := ProfileBenchmarkCached(BenchOFDM, 1)
	if err != nil {
		t.Fatal(err)
	}
	reportJSON := func(opts []Option) []byte {
		eng, err := NewEngine(opts...)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.SimulateProfiled(context.Background(), app, prof)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	rng := rand.New(rand.NewSource(propertySeeds[0]))
	for i := 0; i < 3; i++ {
		cfg := drawConfig(rng)
		cfg.regions = 1
		t.Logf("draw=%d %s", i, cfg)
		legacy := partitionWith(t, app, prof, cfg.engineOpts(WithObjective(ObjectiveSimulated))...)
		mono := partitionWith(t, app, prof, cfg.engineOpts(WithObjective(ObjectiveSimulated), WithRegions(1))...)
		if fmt.Sprint(mono.Moved) != fmt.Sprint(legacy.Moved) ||
			mono.FinalCycles != legacy.FinalCycles ||
			mono.SimulatedCycles != legacy.SimulatedCycles {
			t.Fatalf("%s: Regions=1 diverges from legacy: moved %v final %d sim %d, want moved %v final %d sim %d",
				cfg, mono.Moved, mono.FinalCycles, mono.SimulatedCycles,
				legacy.Moved, legacy.FinalCycles, legacy.SimulatedCycles)
		}
		legacyRep := reportJSON(cfg.engineOpts(WithObjective(ObjectiveSimulated)))
		monoRep := reportJSON(cfg.engineOpts(WithObjective(ObjectiveSimulated), WithRegions(1)))
		if !bytes.Equal(monoRep, legacyRep) {
			t.Fatalf("%s: Regions=1 SimReport differs from legacy:\n%s\nvs\n%s", cfg, monoRep, legacyRep)
		}
	}
}

// TestSweepSimGoldenDeterministic is the sweep regression golden: a fixed
// small grid with sim axes emits byte-identical JSON and CSV across repeated
// runs and across worker counts.
func TestSweepSimGoldenDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	spec := SweepSpec{
		Benchmarks: []string{BenchOFDM},
		Areas:      []int{1500},
		Frames:     []int{1, 4},
		Objectives: []string{"model", "sim"},
		Seed:       1,
	}
	var goldenJSON, goldenCSV []byte
	for _, workers := range []int{1, 4, 1} {
		spec.Workers = workers
		eng, err := NewEngine()
		if err != nil {
			t.Fatal(err)
		}
		rs, err := eng.Sweep(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		// The emitted spec echoes the requested worker count, which is the
		// one field allowed to differ: the data must not.
		rs.Spec.Workers = 0
		var jsonBuf, csvBuf bytes.Buffer
		if err := rs.WriteJSON(&jsonBuf); err != nil {
			t.Fatal(err)
		}
		if err := rs.WriteCSV(&csvBuf); err != nil {
			t.Fatal(err)
		}
		if goldenJSON == nil {
			goldenJSON, goldenCSV = jsonBuf.Bytes(), csvBuf.Bytes()
			for i, o := range rs.Outcomes {
				if !o.Simulated || o.SimCycles == 0 {
					t.Fatalf("outcome %d not simulated: %+v", i, o)
				}
			}
			continue
		}
		if !bytes.Equal(jsonBuf.Bytes(), goldenJSON) {
			t.Fatalf("workers=%d: JSON diverged:\n%s\nvs\n%s", workers, jsonBuf.Bytes(), goldenJSON)
		}
		if !bytes.Equal(csvBuf.Bytes(), goldenCSV) {
			t.Fatalf("workers=%d: CSV diverged:\n%s\nvs\n%s", workers, csvBuf.Bytes(), goldenCSV)
		}
	}
}

// TestSweepSimPartialCancel: cancelling a sim-axis sweep mid-grid still
// returns only completed cells (in expansion order, marked partial) and
// never reports the cancellation as a per-cell failure.
func TestSweepSimPartialCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	ctx, cancel := context.WithCancel(context.Background())
	var eng *Engine
	var err error
	eng, err = NewEngine(WithObserver(func(ev Event) {
		if ce, ok := ev.(CellEvent); ok && ce.Done == 2 {
			cancel() // stop after two reported cells
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := eng.Sweep(ctx, SweepSpec{
		Benchmarks: []string{BenchOFDM},
		Areas:      []int{1000, 1500, 2200, 3000, 5000},
		Frames:     []int{2},
		Objectives: []string{"model", "sim"},
		Seed:       1,
		Workers:    1,
	})
	if err != context.Canceled {
		t.Fatalf("cancelled sweep returned %v", err)
	}
	if rs == nil || !rs.Partial {
		t.Fatalf("cancelled sweep did not return a partial result set: %+v", rs)
	}
	if len(rs.Outcomes) >= 10 {
		t.Fatalf("partial sweep reports the full grid (%d cells)", len(rs.Outcomes))
	}
	for i, o := range rs.Outcomes {
		if o.Failed() {
			t.Fatalf("cell %d reports the cancellation as a failure: %s", i, o.Err)
		}
		if o.Index != rs.Outcomes[0].Index+i {
			t.Fatalf("partial outcomes out of expansion order: %+v", rs.Outcomes)
		}
	}
}

// TestSimPropertyBatchEquivalence is the determinism pin of the live
// scorer: the batched branch-and-bound argmin must choose byte-for-byte the
// same partition as the serial reference path. The reference runs with
// scoringHooks.serial (no batch argmin, no pruning, a full-report replay
// per candidate); the live path then runs on the same draw, and the chosen
// mapping, analytical cycles, simulated makespan and the full SimReport
// JSON of each engine's own run must be identical. Scoring counters are
// excluded — the two paths pay for their evaluations differently by design.
func TestSimPropertyBatchEquivalence(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	app, prof, err := ProfileBenchmarkCached(BenchOFDM, 1)
	if err != nil {
		t.Fatal(err)
	}
	reportJSON := func(opts ...Option) []byte {
		eng, err := NewEngine(opts...)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.SimulateProfiled(context.Background(), app, prof)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, seed := range propertySeeds {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 3; i++ {
			cfg := drawConfig(rng)
			t.Logf("seed=%d draw=%d %s", seed, i, cfg)
			refOpts := cfg.engineOpts(WithObjective(ObjectiveSimulated), withHooks(scoringHooks{serial: true}))
			liveOpts := cfg.engineOpts(WithObjective(ObjectiveSimulated))
			ref := partitionWith(t, app, prof, refOpts...)
			got := partitionWith(t, app, prof, liveOpts...)
			if fmt.Sprint(got.Moved) != fmt.Sprint(ref.Moved) ||
				got.FinalCycles != ref.FinalCycles ||
				got.SimulatedCycles != ref.SimulatedCycles {
				t.Fatalf("seed=%d %s: moved %v final %d sim %d, want moved %v final %d sim %d",
					seed, cfg, got.Moved, got.FinalCycles, got.SimulatedCycles,
					ref.Moved, ref.FinalCycles, ref.SimulatedCycles)
			}
			if rep, refRep := reportJSON(liveOpts...), reportJSON(refOpts...); !bytes.Equal(rep, refRep) {
				t.Fatalf("seed=%d %s: SimReport diverges:\n%s\nvs\n%s", seed, cfg, rep, refRep)
			}
		}
	}
}

// TestSimPropertyPruningPreservesArgmin pins the branch-and-bound layer:
// with pruning disabled (every candidate fully replayed) the move loop must
// choose the same partition with the same makespan as the pruned run — the
// lower bound may only skip candidates that provably cannot win, and ties
// on the minimum are never pruned, so the index tie-break survives. The
// test also requires pruning to actually fire somewhere across the draws;
// a bound too weak to ever prune would pass the equivalence vacuously.
func TestSimPropertyPruningPreservesArgmin(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	app, prof, err := ProfileBenchmarkCached(BenchOFDM, 1)
	if err != nil {
		t.Fatal(err)
	}
	totalPruned := 0
	for _, seed := range propertySeeds {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 3; i++ {
			cfg := drawConfig(rng)
			t.Logf("seed=%d draw=%d %s", seed, i, cfg)
			pruned := partitionWith(t, app, prof, cfg.engineOpts(WithObjective(ObjectiveSimulated))...)
			totalPruned += pruned.SimStats.Pruned
			full := partitionWith(t, app, prof,
				cfg.engineOpts(WithObjective(ObjectiveSimulated), withHooks(scoringHooks{noPruning: true}))...)
			if full.SimStats.Pruned != 0 {
				t.Fatalf("seed=%d %s: pruning fired while disabled: %+v", seed, cfg, full.SimStats)
			}
			if fmt.Sprint(pruned.Moved) != fmt.Sprint(full.Moved) ||
				pruned.SimulatedCycles != full.SimulatedCycles ||
				pruned.FinalCycles != full.FinalCycles {
				t.Fatalf("seed=%d %s: pruning changed the argmin: moved %v sim %d, want moved %v sim %d",
					seed, cfg, pruned.Moved, pruned.SimulatedCycles, full.Moved, full.SimulatedCycles)
			}
		}
	}
	if totalPruned == 0 {
		t.Error("no draw pruned a single candidate — the lower bound never bit")
	}
	t.Logf("pruned %d candidate replays across all draws", totalPruned)
}

// TestSimPropertyBoundNeverExceedsScore checks admissibility end to end at
// the engine layer: on pruned runs the chosen minimum is a real replayed
// score, so if the bound ever overestimated, some run above would have
// pruned the winner and TestSimPropertyPruningPreservesArgmin would fail.
// This test adds the direct form: re-running the chosen mapping through the
// simulator never beats the loop's reported makespan (the bound-driven
// search still returned the true candidate-set minimum, not an artifact of
// skipped work).
func TestSimPropertyBoundNeverExceedsScore(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	app, prof, err := ProfileBenchmarkCached(BenchOFDM, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range propertySeeds {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 3; i++ {
			cfg := drawConfig(rng)
			t.Logf("seed=%d draw=%d %s", seed, i, cfg)
			res := partitionWith(t, app, prof, cfg.engineOpts(WithObjective(ObjectiveSimulated))...)
			eng, err := NewEngine(cfg.engineOpts(WithObjective(ObjectiveSimulated))...)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := eng.SimulateProfiled(context.Background(), app, prof)
			if err != nil {
				t.Fatal(err)
			}
			if rep.TotalCycles != res.SimulatedCycles {
				t.Fatalf("seed=%d %s: loop reported %d but replaying its mapping measures %d",
					seed, cfg, res.SimulatedCycles, rep.TotalCycles)
			}
		}
	}
}
