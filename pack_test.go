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
	"hybridpart/internal/platform"
	"hybridpart/internal/sim"
)

// referencePack is the DFG-walking cross-block packer the table-driven
// finegrain.PackedMapping.Pack replaced, kept verbatim as the equivalence
// oracle: it rebuilds every included block's DFG, collects each level with
// NodesAtLevel and sums a (partition, level) → max-latency map.
func referencePack(f *ir.Function, fg platform.FineGrain, include func(ir.BlockID) bool) (*finegrain.PackedMapping, error) {
	n := len(f.Blocks)
	pm := &finegrain.PackedMapping{
		Included:          make([]bool, n),
		PerBlockCycles:    make([]int64, n),
		FirstPart:         make([]int, n),
		LastPart:          make([]int, n),
		InternalCrossings: make([]int, n),
		Regions:           fg.NumRegions(),
	}
	part := 0
	areaCovered := 0
	usedAny := false
	limit := fg.RegionArea()
	for _, b := range f.Blocks {
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

// TestPackMatchesReference pins the table-driven packer to the DFG-walking
// reference on every trajectory prefix of OFDM, JPEG and the FIR fixture,
// over areas × regions, reusing one PackedMapping throughout so stale
// entries from a previous candidate would show.
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
// from four goroutines on one shared Workload — and so on one App's shared
// block tables — and requires every result to equal its serial run.
func TestPartitionSharedWorkloadConcurrent(t *testing.T) {
	w, err := BenchmarkWorkload(BenchOFDM, 1)
	if err != nil {
		t.Fatal(err)
	}
	points := [][]Option{
		{WithArea(1500), WithObjective(ObjectiveSimulated), WithSimFrames(1)},
		{WithArea(1500), WithObjective(ObjectiveSimulated), WithSimFrames(8)},
		{WithArea(1200), WithObjective(ObjectiveSimulated), WithSimFrames(8), WithRegions(2)},
		{WithArea(1200), WithObjective(ObjectiveSimulated), WithSimFrames(8), WithSimPrefetch(true)},
	}
	engines := make([]*Engine, len(points))
	serial := make([]*Result, len(points))
	for i, opts := range points {
		if engines[i], err = NewEngine(append(opts, WithWorkers(1))...); err != nil {
			t.Fatal(err)
		}
	}
	// The serial reference runs on a fresh Workload so the concurrent runs
	// below are the first users of the shared one's tables.
	ref, err := BenchmarkWorkload(BenchOFDM, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, eng := range engines {
		if serial[i], err = eng.Partition(context.Background(), ref); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]*Result, len(points))
	var wg sync.WaitGroup
	for i, eng := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := eng.Partition(context.Background(), w)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = res
		}()
	}
	wg.Wait()
	for i := range points {
		if got[i] == nil {
			continue
		}
		// Scheduling-dependent counters aside, the runs must be identical.
		got[i].SimStats, serial[i].SimStats = SimScoreStats{}, SimScoreStats{}
		if !reflect.DeepEqual(got[i], serial[i]) {
			t.Errorf("point %d: concurrent result differs from serial\n got %+v\nwant %+v", i, got[i], serial[i])
		}
	}
}
