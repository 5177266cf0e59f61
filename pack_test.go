package hybridpart

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"hybridpart/internal/finegrain"
	"hybridpart/internal/ir"
	"hybridpart/internal/partition"
	"hybridpart/internal/platform"
	"hybridpart/internal/sim"
)

// referencePack is the DFG-walking cross-block packer the table-driven
// finegrain.PackedMapping.Pack replaced, kept verbatim as the equivalence
// oracle: it rebuilds every included block's DFG, collects each level with
// NodesAtLevel and sums a (partition, level) → max-latency map. It also
// records the area covered after each block (AreaAfter), the walk state
// PackFrom resumes from.
func referencePack(f *ir.Function, fg platform.FineGrain, include func(ir.BlockID) bool) (*finegrain.PackedMapping, error) {
	n := len(f.Blocks)
	pm := &finegrain.PackedMapping{
		Included:          make([]bool, n),
		PerBlockCycles:    make([]int64, n),
		FirstPart:         make([]int, n),
		LastPart:          make([]int, n),
		InternalCrossings: make([]int, n),
		AreaAfter:         make([]int, n),
		Regions:           fg.NumRegions(),
	}
	part := 0
	areaCovered := 0
	usedAny := false
	limit := fg.RegionArea()
	for _, b := range f.Blocks {
		pm.AreaAfter[b.ID] = areaCovered
		if include != nil && !include(b.ID) {
			pm.FirstPart[b.ID] = part
			pm.LastPart[b.ID] = part
			continue
		}
		pm.Included[b.ID] = true
		d := ir.BuildDFG(f, b)
		if d.NumNodes() == 0 {
			pm.PerBlockCycles[b.ID] = 1
			pm.FirstPart[b.ID] = part
			pm.LastPart[b.ID] = part
			continue
		}
		usedAny = true
		first := -1
		levelCost := map[[2]int]int{}
		for level := 1; level <= d.MaxLevel; level++ {
			for _, u := range d.NodesAtLevel(level) {
				sz := fg.Costs.Area(ir.ClassOf(d.Op(u)))
				if sz > limit {
					return nil, fmt.Errorf(
						"finegrain: block b%d node %d (%s, %d units) exceeds A_FPGA (%d units)",
						b.ID, u, d.Op(u), sz, limit)
				}
				if areaCovered+sz > limit {
					part++
					areaCovered = 0
				}
				areaCovered += sz
				if first < 0 {
					first = part
				}
				lat := fg.Costs.Latency(ir.ClassOf(d.Op(u)))
				key := [2]int{part, level}
				if lat > levelCost[key] {
					levelCost[key] = lat
				}
			}
		}
		var cycles int64
		for _, c := range levelCost {
			cycles += int64(c)
		}
		if cycles < 1 {
			cycles = 1
		}
		pm.PerBlockCycles[b.ID] = cycles
		pm.FirstPart[b.ID] = first
		pm.LastPart[b.ID] = part
		pm.InternalCrossings[b.ID] = part - first
		pm.AreaAfter[b.ID] = areaCovered
	}
	if usedAny {
		pm.NumPartitions = part + 1
	}
	return pm, nil
}

// packFixtures returns the three applications the packing guards run on.
func packFixtures(t *testing.T) map[string]*App {
	t.Helper()
	fir, _ := compileFIR(t)
	apps := map[string]*App{"fir": fir}
	for _, name := range []string{BenchOFDM, BenchJPEG} {
		app, _, err := ProfileBenchmarkCached(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		apps[name] = app
	}
	return apps
}

// trajectory returns the full move trajectory of app at the given platform
// point: a constraint of one cycle is never met, so the engine moves every
// mappable kernel in analysis order.
func trajectory(t *testing.T, app *App, prof *RunProfile, area, regions int) []ir.BlockID {
	t.Helper()
	eng, err := NewEngine(WithArea(area), WithRegions(regions), WithConstraint(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.PartitionProfiled(context.Background(), app, prof)
	if err != nil {
		t.Fatal(err)
	}
	moved := make([]ir.BlockID, len(res.Moved))
	for i, b := range res.Moved {
		moved[i] = ir.BlockID(b)
	}
	return moved
}

// trajectoryRecords returns the trajectory records of moved on plat as a
// slate-fed reference builds them: each prefix packed from scratch, with
// Block set and the eq. 2 fields left zero.
func trajectoryRecords(t testing.TB, app *App, plat platform.Platform, moved []ir.BlockID) []partition.Prefix {
	t.Helper()
	recs := make([]partition.Prefix, len(moved)+1)
	off := make([]bool, len(app.flat.Blocks))
	for i := range recs {
		recs[i].Block = -1
		if i > 0 {
			recs[i].Block = moved[i-1]
			off[moved[i-1]] = true
		}
		if err := recs[i].Pack.Pack(app.blockTables(), plat.Fine, func(id ir.BlockID) bool { return !off[id] }); err != nil {
			t.Fatal(err)
		}
	}
	return recs
}

// TestPackMatchesReference pins the table-driven packer to the DFG-walking
// reference on every trajectory prefix of OFDM, JPEG and the FIR fixture,
// over areas × regions, reusing one PackedMapping throughout so stale
// entries from a previous candidate would show. Each prefix is also packed
// as the move loop packs its record — PackFrom its predecessor's resumed
// packing, at the block the move took off — and must equal the reference
// too.
func TestPackMatchesReference(t *testing.T) {
	areas := []int{1200, 1500, 5000}
	if d := DefaultOptions().AFPGA; !slices.Contains(areas, d) {
		areas = append(areas, d)
	}
	profiles := map[string]*RunProfile{}
	_, profiles["fir"] = compileFIR(t)
	for _, name := range []string{BenchOFDM, BenchJPEG} {
		_, prof, err := ProfileBenchmarkCached(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		profiles[name] = prof
	}
	for name, app := range packFixtures(t) {
		tables := app.blockTables()
		var pm finegrain.PackedMapping
		var chain [2]finegrain.PackedMapping // resumed records, alternating
		for _, area := range areas {
			for _, regions := range []int{1, 2, 4} {
				fg := DefaultOptions().platform(false).Fine
				fg.Area, fg.Regions = area, regions
				traj := trajectory(t, app, profiles[name], area, regions)
				if len(traj) == 0 {
					t.Fatalf("%s a%d r%d: empty trajectory", name, area, regions)
				}
				moved := make([]bool, len(app.flat.Blocks))
				for k := 0; k <= len(traj); k++ {
					if k > 0 {
						moved[traj[k-1]] = true
					}
					include := func(id ir.BlockID) bool { return !moved[id] }
					want, err := referencePack(app.flat, fg, include)
					if err != nil {
						t.Fatalf("%s a%d r%d prefix %d: reference: %v", name, area, regions, k, err)
					}
					if err := pm.Pack(tables, fg, include); err != nil {
						t.Fatalf("%s a%d r%d prefix %d: %v", name, area, regions, k, err)
					}
					if !reflect.DeepEqual(&pm, want) {
						t.Fatalf("%s a%d r%d prefix %d: packings differ\n got %+v\nwant %+v",
							name, area, regions, k, pm, *want)
					}
					rec := &chain[k%2]
					if k == 0 {
						err = rec.Pack(tables, fg, include)
					} else {
						err = rec.PackFrom(&chain[(k-1)%2], traj[k-1], tables, fg, include)
					}
					if err != nil {
						t.Fatalf("%s a%d r%d prefix %d: resumed: %v", name, area, regions, k, err)
					}
					if !reflect.DeepEqual(rec, want) {
						t.Fatalf("%s a%d r%d prefix %d: resumed packing differs from the reference\n got %+v\nwant %+v",
							name, area, regions, k, *rec, *want)
					}
				}
			}
		}
		// An operator wider than a region fails both packers identically.
		for _, fg := range []platform.FineGrain{
			{Area: 100, Costs: DefaultOpCosts()},
			{Area: 1200, Regions: 10, Costs: DefaultOpCosts()},
		} {
			_, wantErr := referencePack(app.flat, fg, nil)
			gotErr := pm.Pack(tables, fg, nil)
			if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s area %d/%d regions: error %v, want %v", name, fg.Area, fg.Regions, gotErr, wantErr)
			}
		}
	}
}

// TestPackAllocs pins the packer's allocations: with a warm PackedMapping it
// allocates nothing, and a fresh one costs the same fixed handful of slices
// whatever the block count.
func TestPackAllocs(t *testing.T) {
	fg := DefaultOptions().platform(false).Fine
	fresh := map[string]float64{}
	for name, app := range packFixtures(t) {
		tables := app.blockTables()
		moved := make([]bool, len(app.flat.Blocks))
		moved[len(moved)/2] = true
		include := func(id ir.BlockID) bool { return !moved[id] }
		var pm finegrain.PackedMapping
		if err := pm.Pack(tables, fg, include); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(20, func() { _ = pm.Pack(tables, fg, include) }); n != 0 {
			t.Errorf("%s (%d blocks): warm Pack allocates %v times per call, want 0", name, len(moved), n)
		}
		fresh[name] = testing.AllocsPerRun(20, func() {
			var pm finegrain.PackedMapping
			_ = pm.Pack(tables, fg, include)
		})
	}
	if fresh["fir"] != fresh[BenchJPEG] || fresh["fir"] != fresh[BenchOFDM] {
		t.Errorf("fresh Pack allocations depend on the block count: %v", fresh)
	}
}

// TestMakespanAllocs pins Replayer.Makespan and FineWalkBound with a warm
// arena: scoring a candidate mapping allocates nothing.
func TestMakespanAllocs(t *testing.T) {
	app, prof, err := ProfileBenchmarkCached(BenchOFDM, 1)
	if err != nil {
		t.Fatal(err)
	}
	moved := trajectory(t, app, prof, 1200, 1)
	moved = moved[:len(moved)/2]
	for _, regions := range []int{1, 2} {
		plat := DefaultOptions().platform(false)
		plat.Fine.Area, plat.Fine.Regions = 1200, regions
		rep, err := sim.NewReplayer(sim.Input{
			Prog: app.fprog, F: app.flat, Tables: app.blockTables(), Plat: plat, Freq: prof.Freq, Edges: prof.edges,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []sim.Config{{Frames: 8}, {Frames: 8, Prefetch: true}} {
			var arena sim.Arena
			ctx := context.Background()
			if _, err := rep.Makespan(ctx, cfg, moved, &arena); err != nil {
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(20, func() { _, _ = rep.Makespan(ctx, cfg, moved, &arena) }); n != 0 {
				t.Errorf("r%d %+v: warm Makespan allocates %v times per call, want 0", regions, cfg, n)
			}
			if n := testing.AllocsPerRun(20, func() { _, _ = rep.FineWalkBound(cfg, moved, &arena) }); n != 0 {
				t.Errorf("r%d %+v: warm FineWalkBound allocates %v times per call, want 0", regions, cfg, n)
			}
		}
	}
}

// TestPartitionSharedWorkloadConcurrent runs the ofdm-sim design points
// in parallel goroutines on one shared Workload and on one
// ProfileBenchmarkCached profile — so on one App's shared tables and on
// one snapshot's lazily built scoring context — and requires every result,
// SimStats included, to equal its serial run on a fresh workload. Energy
// runs on the shared profile join them: they take their trajectory records
// from the same scratch pool. Run it under -race.
func TestPartitionSharedWorkloadConcurrent(t *testing.T) {
	// A seed no other test profiles, so the concurrent runs below are the
	// first users of the cached profile's scoring context.
	const seed = 23
	w, err := BenchmarkWorkload(BenchOFDM, seed)
	if err != nil {
		t.Fatal(err)
	}
	app, prof, err := ProfileBenchmarkCached(BenchOFDM, seed)
	if err != nil {
		t.Fatal(err)
	}
	points := scoringDesignPoints
	engines := make([]*Engine, len(points))
	serial := make([]*Result, len(points))
	serialEnergy := make([]*EnergyResult, len(points))
	for i, d := range points {
		engines[i] = mustEngine(t, append(d.opts, WithEnergyBudget(1.2e7))...)
	}
	// The serial reference runs on a fresh Workload so the concurrent runs
	// below are the first users of the shared one's tables and snapshot.
	ref, err := BenchmarkWorkload(BenchOFDM, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i, eng := range engines {
		if serial[i], err = eng.Partition(context.Background(), ref); err != nil {
			t.Fatal(err)
		}
		if serialEnergy[i], err = eng.PartitionEnergy(context.Background(), ref); err != nil {
			t.Fatal(err)
		}
	}
	runs := []func(eng *Engine, i int) (got, want any, err error){
		func(eng *Engine, i int) (any, any, error) {
			got, err := eng.Partition(context.Background(), w)
			return got, serial[i], err
		},
		func(eng *Engine, i int) (any, any, error) {
			got, err := eng.PartitionProfiled(context.Background(), app, prof)
			return got, serial[i], err
		},
		func(eng *Engine, i int) (any, any, error) {
			got, err := eng.PartitionEnergyProfiled(context.Background(), app, prof)
			return got, serialEnergy[i], err
		},
	}
	// The first wave builds the scoring contexts concurrently, the second
	// shares the warm ones. Each goroutine runs once per wave: later runs
	// on the same goroutine would hide an unsynchronized build from the
	// race detector.
	for wave := range 2 {
		var wg sync.WaitGroup
		errs := make(chan error, len(runs)*len(points))
		for r, run := range runs {
			for i, eng := range engines {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got, want, err := run(eng, i)
					if err == nil && !reflect.DeepEqual(got, want) {
						err = fmt.Errorf("wave %d, %s on shared %s: concurrent result differs from serial\n got %+v\nwant %+v",
							wave, points[i].name, []string{"workload", "profile", "profile (energy)"}[r], got, want)
					}
					if err != nil {
						errs <- err
					}
				}()
			}
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}

// TestPartitionAllocs pins the allocations of one untraced OFDM ×8 run of
// partition.Partition under the simulated objective, configured as the
// engine configures it, its argmin slate scored by the engine's scorer with
// the memo cleared before each run (it would otherwise answer every later
// run outright) and each run's trajectory records reused by the next, as
// the engine's scratch pool reuses them. Move-loop tracing attributes box
// their values, so building them with tracing off used to cost a handful
// of allocations per move (160 per run in all); packing every prefix into
// fresh records would cost six slices per move. The run now measures 16
// (go1.24, linux/amd64); the ceiling leaves room for toolchain drift, not
// for one more allocation per move.
func TestPartitionAllocs(t *testing.T) {
	app, prof, err := ProfileBenchmarkCached(BenchOFDM, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := mustEngine(t, WithObjective(ObjectiveSimulated), WithSimFrames(8))
	ctx := context.Background()
	cfg, rep, s, err := eng.runConfig(ctx, app, prof, eng.opts, eng.costsSet, new(runScratch))
	if err != nil {
		t.Fatal(err)
	}
	var res *partition.Result
	run := func() {
		s.sc.memo = s.sc.memo[:0]
		if res, err = partition.Partition(ctx, app.fprog, app.flat, rep, cfg); err != nil {
			t.Fatal(err)
		}
		cfg.Prefixes = res.Prefixes
	}
	n := testing.AllocsPerRun(20, run)
	if res.SimulatedCycles != 236888 {
		t.Fatalf("simulated %d cycles, want 236888", res.SimulatedCycles)
	}
	t.Logf("%v allocations per run", n)
	const ceiling = 21
	if n > ceiling {
		t.Errorf("untraced OFDM ×8 Partition allocates %v times per run, ceiling %d", n, ceiling)
	}
}

// TestRecordFedBoundsMatchSlateFed: at the four scoring design points, the
// trajectory records the move loop builds (each packed from its
// predecessor) must feed the scorer exactly what their moved sets give the
// slate-fed entry points, which pack from scratch: the packing itself,
// LowerBounds' one pass against LowerBound, FineWalkBoundPacked against
// FineWalkBound and MakespanPacked against Makespan, on every prefix.
func TestRecordFedBoundsMatchSlateFed(t *testing.T) {
	app, prof, err := ProfileBenchmarkCached(BenchOFDM, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, d := range scoringDesignPoints {
		eng := mustEngine(t, d.opts...)
		cfg, rep, s, err := eng.runConfig(ctx, app, prof, eng.opts, eng.costsSet, new(runScratch))
		if err != nil {
			t.Fatal(err)
		}
		res, err := partition.Partition(ctx, app.fprog, app.flat, rep, cfg)
		if err != nil {
			t.Fatal(err)
		}
		recs := res.Prefixes
		traj := partition.AppendMoved(nil, recs, len(recs)-1)
		ref := trajectoryRecords(t, app, eng.opts.platform(eng.costsSet), traj)
		lbs, err := s.rep.LowerBounds(s.cfg, traj, nil)
		if err != nil {
			t.Fatal(err)
		}
		var arena, refArena sim.Arena
		for i := range recs {
			moved := traj[:i]
			if !reflect.DeepEqual(recs[i].Pack, ref[i].Pack) {
				t.Fatalf("%s prefix %d: record packing differs from a fresh Pack", d.name, i)
			}
			lb, err := s.rep.LowerBound(s.cfg, moved)
			if err != nil {
				t.Fatal(err)
			}
			wb, err := s.rep.FineWalkBoundPacked(s.cfg, &recs[i].Pack, &arena)
			if err != nil {
				t.Fatal(err)
			}
			refWB, err := s.rep.FineWalkBound(s.cfg, moved, &refArena)
			if err != nil {
				t.Fatal(err)
			}
			ms, err := s.rep.MakespanPacked(ctx, s.cfg, &recs[i].Pack, &arena)
			if err != nil {
				t.Fatal(err)
			}
			refMS, err := s.rep.Makespan(ctx, s.cfg, moved, &refArena)
			if err != nil {
				t.Fatal(err)
			}
			if lbs[i] != lb || wb != refWB || ms != refMS {
				t.Errorf("%s prefix %d: record-fed bounds %d/%d and makespan %d, slate-fed %d/%d and %d",
					d.name, i, lbs[i], wb, ms, lb, refWB, refMS)
			}
		}
		if arena.Packs() != 0 || refArena.Packs() != 2*len(recs) {
			t.Errorf("%s: record-fed arena packed %d times, slate-fed %d; want 0 and %d",
				d.name, arena.Packs(), refArena.Packs(), 2*len(recs))
		}
	}
}

// TestRunPacksOncePerPrefix pins the packing count of a simulation-scored
// run at each scoring design point: the move loop packs each trajectory
// record once — the moves plus the all-FPGA record — and neither
// ScoreBatch nor the report's scoring of the chosen mapping and the
// baseline packs anything.
func TestRunPacksOncePerPrefix(t *testing.T) {
	app, prof, err := ProfileBenchmarkCached(BenchOFDM, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, d := range scoringDesignPoints {
		var batches []batchRecord
		observe := withHooks(scoringHooks{observe: func(r batchRecord) { batches = append(batches, r) }})
		eng := mustEngine(t, append(append([]Option{}, d.opts...), observe)...)
		sc := new(runScratch)
		cfg, rep, s, err := eng.runConfig(ctx, app, prof, eng.opts, eng.costsSet, sc)
		if err != nil {
			t.Fatal(err)
		}
		moves := 0
		cfg.OnMove = func(partition.Move) { moves++ }
		res, err := partition.Partition(ctx, app.fprog, app.flat, rep, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if moves < 2 || res.Packs != moves+1 || len(res.Prefixes) != moves+1 {
			t.Errorf("%s: %d moves, %d records, %d packings; want one packing per record, moves+1",
				d.name, moves, len(res.Prefixes), res.Packs)
		}
		if len(batches) != 1 || batches[0].packs != 0 {
			t.Fatalf("%s: batches %+v, want one that packs nothing", d.name, batches)
		}
		for _, i := range []int{len(res.Moved), 0} {
			if _, err := s.Score(ctx, res.Prefixes, i); err != nil {
				t.Fatal(err)
			}
		}
		if n := sc.arena.Packs(); n != 0 {
			t.Errorf("%s: scoring packed %d mappings, want 0", d.name, n)
		}
	}
}
