package hybridpart

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"hybridpart/internal/platform"
)

// firWorkload compiles and profiles the FIR fixture through the Workload
// lifecycle.
func firWorkload(t *testing.T) *Workload {
	t.Helper()
	w, err := NewWorkload(firSrc, "main_fn")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestEngineLegacyParity pins WithOptions, the bridge the service uses to
// turn a wire Options struct into an engine: every Options field must give
// an identical Result through WithOptions and through the equivalent
// option chain — the granular option where one exists, an edit of the
// default knob set where none does. Formatted output is compared
// byte-for-byte.
func TestEngineLegacyParity(t *testing.T) {
	app, prof := compileFIR(t)

	// Tight enough to force moves, loose enough to eventually be met.
	base := DefaultOptions()
	base.Constraint = 30000

	cases := []struct {
		name    string
		flat    func(o *Options)
		options []Option
	}{
		{"baseline", func(o *Options) {}, nil},
		{"afpga", func(o *Options) { o.AFPGA = 5000 }, []Option{WithArea(5000)}},
		{"reconfig", func(o *Options) { o.ReconfigCycles = 128 }, nil},
		{"numcgcs", func(o *Options) { o.NumCGCs = 3 }, []Option{WithCGCs(3)}},
		{"cgcshape", func(o *Options) { o.CGCRows, o.CGCCols = 4, 3 }, nil},
		{"memports", func(o *Options) { o.MemPorts = 1 }, nil},
		{"clockratio", func(o *Options) { o.ClockRatio = 5 }, nil},
		{"regbank", func(o *Options) { o.RegBankWords = 0 }, nil},
		{"comm", func(o *Options) { o.CommCyclesPerWord, o.CommSyncCycles = 4, 9 }, nil},
		{"constraint", func(o *Options) { o.Constraint = 25000 }, []Option{WithConstraint(25000)}},
		{"order-freq", func(o *Options) { o.Order = OrderByFreq }, nil},
		{"order-opweight", func(o *Options) { o.Order = OrderByOpWeight }, nil},
		{"maxmoves", func(o *Options) { o.MaxMoves = 1; o.Constraint = 1 },
			[]Option{withMaxMoves(1), WithConstraint(1)}},
		{"skipnonimproving", func(o *Options) { o.SkipNonImproving = true; o.CommCyclesPerWord = 64 }, nil},
		{"weights", func(o *Options) { o.WeightALU, o.WeightMul, o.WeightDiv, o.WeightMem = 2, 7, 11, 3 }, nil},
		{"costs", func(o *Options) { o.Costs = platform.DSPRichOpCosts() }, nil},
		{"preset", func(o *Options) {
			v, err := OptionsFor("lut-only")
			if err != nil {
				t.Fatal(err)
			}
			c := o.Constraint
			*o = v
			o.Constraint = c
		}, []Option{WithPlatform("lut-only")}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			flat := base
			tc.flat(&flat)
			want := partitionWith(t, app, prof, WithOptions(flat))
			options := tc.options
			if options == nil {
				options = []Option{withKnobs(tc.flat)}
			}
			got := partitionWith(t, app, prof, append([]Option{WithConstraint(base.Constraint)}, options...)...)
			if got.Format() != want.Format() {
				t.Fatalf("formatted output diverges:\n--- WithOptions ---\n%s--- granular ---\n%s", want.Format(), got.Format())
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("result diverges:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestPartitionProfiledMatchesWorkload proves the service's shared-profile
// path (PartitionProfiled on an App and a profile snapshot) is the same
// computation as Partition on the Workload.
func TestPartitionProfiledMatchesWorkload(t *testing.T) {
	app, prof := compileFIR(t)
	want := partitionWith(t, app, prof, WithConstraint(30000))

	w := firWorkload(t)
	eng, err := NewEngine(WithConstraint(30000))
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Partition(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if got.Format() != want.Format() {
		t.Fatalf("workload path diverges from profiled path:\n%s\nvs\n%s", got.Format(), want.Format())
	}
}

// TestEnergyProfiledParity checks PartitionEnergyProfiled against
// PartitionEnergy on the Workload, and that EnergyMoveEvents stream in
// trajectory order.
func TestEnergyProfiledParity(t *testing.T) {
	app, prof := compileFIR(t)
	ctx := context.Background()
	loose, err := mustEngine(t, WithEnergyBudget(1e18)).PartitionEnergyProfiled(ctx, app, prof)
	if err != nil {
		t.Fatal(err)
	}
	budget := loose.InitialEnergy * 0.8
	want, err := mustEngine(t, WithEnergyBudget(budget)).PartitionEnergyProfiled(ctx, app, prof)
	if err != nil {
		t.Fatal(err)
	}

	w := firWorkload(t)
	var events []EnergyMoveEvent
	eng, err := NewEngine(
		WithEnergyBudget(budget),
		WithObserver(func(ev Event) {
			if e, ok := ev.(EnergyMoveEvent); ok {
				events = append(events, e)
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.PartitionEnergy(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("energy result diverges:\n got %+v\nwant %+v", got, want)
	}
	if len(events) != len(got.Moved) {
		t.Fatalf("got %d energy move events, want %d", len(events), len(got.Moved))
	}
	for i, ev := range events {
		if ev.Seq != i+1 || ev.Block != got.Moved[i] || ev.Budget != budget {
			t.Fatalf("event %d malformed: %+v (moved %v)", i, ev, got.Moved)
		}
	}
	if last := events[len(events)-1]; !last.Met || last.EnergyAfter != got.FinalEnergy {
		t.Fatalf("final energy move event %+v not marked Met at the final energy %v", last, got.FinalEnergy)
	}
	if _, err := eng.PartitionEnergy(context.Background(), nil); err == nil {
		t.Fatal("nil workload accepted")
	}
	noBudget, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := noBudget.PartitionEnergy(context.Background(), w); err == nil {
		t.Fatal("missing energy budget accepted")
	}
}

// TestEnergyGolden pins the energy-constrained trajectories of the OFDM and
// JPEG benchmarks (seed 1, default costs) to testdata/energy_golden.txt,
// byte for byte: at a loose budget and at 0.5× and 0.1× the all-FPGA
// energy, the moved and unmappable kernels, Met, every EnergyMoveEvent's
// EnergyAfter and the initial and final breakdowns. %v prints float64s
// at full precision, so a change in summation order shows.
func TestEnergyGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	const golden = "testdata/energy_golden.txt"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	ctx := context.Background()
	for _, bench := range []string{BenchOFDM, BenchJPEG} {
		app, prof, err := ProfileBenchmarkCached(bench, 1)
		if err != nil {
			t.Fatal(err)
		}
		loose, err := mustEngine(t, WithEnergyBudget(1e18)).PartitionEnergyProfiled(ctx, app, prof)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []float64{1e18, loose.InitialEnergy * 0.5, loose.InitialEnergy * 0.1} {
			var after []float64
			eng := mustEngine(t, WithEnergyBudget(budget), WithObserver(func(ev Event) {
				if e, ok := ev.(EnergyMoveEvent); ok {
					after = append(after, e.EnergyAfter)
				}
			}))
			res, err := eng.PartitionEnergyProfiled(ctx, app, prof)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%s budget=%v met=%v moved=%v unmappable=%v\n", bench, budget, res.Met, res.Moved, res.Unmappable)
			fmt.Fprintf(&got, "  energy_after=%v\n  initial=%v\n  final=%v\n", after, res.Initial, res.Final)
		}
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("energy trajectories diverge from %s:\n--- got ---\n%s--- want ---\n%s", golden, got.Bytes(), want)
	}
}

// TestTables23Golden pins the paper's Tables 2–3 grid (A_FPGA ∈ {1500,
// 5000} × {2, 3} CGCs, seed 1) to committed Engine.Sweep CSV, byte for
// byte. Regenerate testdata/ only for a change that is meant to move the
// paper's headline numbers.
func TestTables23Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	for bench, golden := range map[string]string{
		BenchOFDM: "testdata/table2_ofdm.csv",
		BenchJPEG: "testdata/table3_jpeg.csv",
	} {
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := mustEngine(t).Sweep(context.Background(), SweepSpec{
			Benchmarks: []string{bench},
			Areas:      []int{1500, 5000},
			CGCs:       []int{2, 3},
			Seed:       1,
			Workers:    2,
		})
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := rs.WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s sweep CSV diverges from %s:\n--- got ---\n%s--- want ---\n%s", bench, golden, got.Bytes(), want)
		}
	}
}

// TestEnginePartitionCancellation cancels mid-trajectory from inside the
// observer and expects a prompt ctx.Err() return, from the timing and the
// energy engine alike.
func TestEnginePartitionCancellation(t *testing.T) {
	w := firWorkload(t)
	var cancel context.CancelFunc
	moves := 0
	eng, err := NewEngine(
		// Unreachable constraint and budget: either trajectory would run to
		// exhaustion.
		WithConstraint(1),
		WithEnergyBudget(0.001),
		WithObserver(func(ev Event) {
			switch ev.(type) {
			case MoveEvent, EnergyMoveEvent:
				moves++
				cancel()
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []struct {
		name string
		run  func(context.Context) error
	}{
		{"time", func(ctx context.Context) error { _, err := eng.Partition(ctx, w); return err }},
		{"energy", func(ctx context.Context) error { _, err := eng.PartitionEnergy(ctx, w); return err }},
	} {
		ctx, stop := context.WithCancel(context.Background())
		defer stop()
		cancel, moves = stop, 0
		if err := run.run(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: want context.Canceled, got %v", run.name, err)
		}
		if moves != 1 {
			t.Fatalf("%s: engine kept moving after cancellation: %d moves observed", run.name, moves)
		}

		// An already-cancelled context never starts the run at all.
		if err := run.run(ctx); !errors.Is(err, context.Canceled) || moves != 1 {
			t.Fatalf("%s: pre-cancelled context not honored: %v after %d moves", run.name, err, moves)
		}
	}
}

// TestEngineSweepCancellation is the satellite acceptance test: a
// cancellation mid-grid must surface ctx.Err() promptly instead of
// finishing the sweep.
func TestEngineSweepCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	// A wide constraint axis gives a long single-benchmark grid without
	// recompilation cost per cell.
	constraints := make([]int64, 64)
	for i := range constraints {
		constraints[i] = int64(40000 + 1000*i)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cells := 0
	// Cancel from inside cell 2's evaluation, not from the observer: the
	// cell itself then never completes, and some earlier cell must have
	// completed to free a worker for it, so the partial set is a strict,
	// non-empty subset whatever the workers' relative speed.
	cancelAtCell2 := func(e *Engine) error {
		e.cellStart = func(p SweepPoint) {
			if p.Index == 2 {
				cancel()
			}
		}
		return nil
	}
	eng, err := NewEngine(WithObserver(func(ev Event) {
		if _, ok := ev.(CellEvent); ok {
			cells++
		}
	}), cancelAtCell2)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := eng.Sweep(ctx, SweepSpec{
		Benchmarks:  []string{BenchOFDM},
		Constraints: constraints,
		Seed:        1,
		Workers:     2,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got rs=%v err=%v", rs, err)
	}
	if rs == nil || !rs.Partial {
		t.Fatalf("cancelled sweep did not return a partial result set: %+v", rs)
	}
	if len(rs.Outcomes) == 0 || len(rs.Outcomes) >= len(constraints) {
		t.Fatalf("partial set has %d of %d cells, want a strict mid-grid subset",
			len(rs.Outcomes), len(constraints))
	}
	if cells >= len(constraints) {
		t.Fatalf("sweep ran to completion (%d cells) despite cancellation", cells)
	}
}

// TestEngineSweepObserverOrder requires CellEvents in expansion order with
// contiguous Done counts, for any worker count, on repeated runs.
func TestEngineSweepObserverOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	spec := SweepSpec{
		Benchmarks: []string{BenchOFDM},
		Areas:      []int{1000, 1500, 2500, 5000},
		CGCs:       []int{1, 2, 3},
		Seed:       1,
	}
	var first []CellEvent
	for run, workers := range []int{1, 4, 8} {
		var events []CellEvent
		spec.Workers = workers
		eng, err := NewEngine(
			WithObserver(func(ev Event) {
				if ce, ok := ev.(CellEvent); ok {
					events = append(events, ce)
				}
			}),
		)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := eng.Sweep(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(events) != len(rs.Outcomes) {
			t.Fatalf("workers=%d: %d events for %d cells", workers, len(events), len(rs.Outcomes))
		}
		for i, ce := range events {
			if ce.Outcome.Index != i || ce.Done != i+1 || ce.Total != len(rs.Outcomes) {
				t.Fatalf("workers=%d: event %d out of order: index=%d done=%d total=%d",
					workers, i, ce.Outcome.Index, ce.Done, ce.Total)
			}
		}
		if run == 0 {
			first = events
		} else if !reflect.DeepEqual(events, first) {
			t.Fatalf("workers=%d: event stream differs from workers=1 run", workers)
		}
	}
}

// TestEngineMoveEvents checks the per-move trajectory stream of a normal
// (uncancelled) partitioning run.
func TestEngineMoveEvents(t *testing.T) {
	w := firWorkload(t)
	loose, err := NewEngine(WithConstraint(1 << 60))
	if err != nil {
		t.Fatal(err)
	}
	all, err := loose.Partition(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	constraint := all.InitialCycles / 2
	var events []MoveEvent
	eng, err := NewEngine(
		WithConstraint(constraint),
		WithObserver(func(ev Event) {
			if mv, ok := ev.(MoveEvent); ok {
				events = append(events, mv)
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Partition(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met || len(res.Moved) == 0 {
		t.Fatalf("fixture run malformed: %+v", res)
	}
	if len(events) != len(res.Moved) {
		t.Fatalf("got %d move events, want %d", len(events), len(res.Moved))
	}
	for i, ev := range events {
		if ev.Seq != i+1 || ev.Block != res.Moved[i] || ev.Constraint != constraint {
			t.Fatalf("event %d malformed: %+v (moved %v)", i, ev, res.Moved)
		}
		if i > 0 && events[i-1].TotalAfter < ev.TotalAfter {
			t.Fatalf("trajectory not improving: %d then %d", events[i-1].TotalAfter, ev.TotalAfter)
		}
	}
	last := events[len(events)-1]
	if !last.Met || last.TotalAfter != res.FinalCycles {
		t.Fatalf("final event inconsistent with result: %+v vs final %d", last, res.FinalCycles)
	}
}

// invalidKnobs mutates DefaultOptions into a knob set Options.Validate
// must refuse, one case per refusal. granular, where not nil, reaches the
// same knob set through the remaining granular options and must fail with
// the same error. Boolean knobs have no invalid value.
var invalidKnobs = []struct {
	name     string
	edit     func(*Options)
	granular []Option
}{
	{"afpga", func(o *Options) { o.AFPGA = 0 }, []Option{WithArea(0)}},
	{"afpga-below-operator", func(o *Options) { o.AFPGA = 2 }, []Option{WithArea(2)}},
	{"reconfig", func(o *Options) { o.ReconfigCycles = -1 }, nil},
	{"regions", func(o *Options) { o.Regions = -1 }, []Option{WithRegions(-1)}},
	{"regions-below-operator", func(o *Options) { o.Regions = 8 }, []Option{WithRegions(8)}},
	{"cgcs", func(o *Options) { o.NumCGCs = -2 }, []Option{WithCGCs(-2)}},
	{"cgcrows", func(o *Options) { o.CGCRows = 0 }, nil},
	{"cgccols", func(o *Options) { o.CGCCols = 0 }, nil},
	{"memports", func(o *Options) { o.MemPorts = 0 }, nil},
	{"clockratio", func(o *Options) { o.ClockRatio = 0 }, nil},
	{"regbank", func(o *Options) { o.RegBankWords = -1 }, nil},
	{"commword", func(o *Options) { o.CommCyclesPerWord = -1 }, nil},
	{"commsync", func(o *Options) { o.CommSyncCycles = -1 }, nil},
	{"costs", func(o *Options) { o.Costs = DefaultOpCosts(); o.Costs.LatMul = 0 }, nil},
	// WithConstraint applies the stricter rule of a timing-constrained run
	// (positive, not just non-negative), so it has no same-error twin.
	{"constraint", func(o *Options) { o.Constraint = -1 }, nil},
	{"order", func(o *Options) { o.Order = 9 }, nil},
	{"maxmoves", func(o *Options) { o.MaxMoves = -2 }, nil},
	{"walu", func(o *Options) { o.WeightALU = -3 }, nil},
	{"wmul", func(o *Options) { o.WeightMul = -1 }, nil},
	{"wdiv", func(o *Options) { o.WeightDiv = -1 }, nil},
	{"wmem", func(o *Options) { o.WeightMem = -1 }, nil},
	{"objective", func(o *Options) { o.Objective = 7 }, []Option{WithObjective(7)}},
	{"objective-negative", func(o *Options) { o.Objective = -1 }, []Option{WithObjective(-1)}},
	{"rerank", func(o *Options) { o.RerankK = -2 }, []Option{WithRerank(-2)}},
	{"rerank-with-sim", func(o *Options) { o.Objective = ObjectiveSimulated; o.RerankK = 2 },
		[]Option{WithObjective(ObjectiveSimulated), WithRerank(2)}},
	{"simframes", func(o *Options) { o.SimFrames = -4 }, []Option{WithSimFrames(-4)}},
	{"simports", func(o *Options) { o.SimPorts = -4 }, []Option{WithSimPorts(-4)}},
}

// TestEngineOptionValidation runs every invalid knob set through
// Options.Validate, NewEngine(WithOptions) and the granular options where
// they reach it: all three must refuse it with one error. The table must
// cover every non-boolean Options field.
func TestEngineOptionValidation(t *testing.T) {
	covered := map[string]bool{}
	def := reflect.ValueOf(DefaultOptions())
	for _, tc := range invalidKnobs {
		o := DefaultOptions()
		tc.edit(&o)
		mutated := reflect.ValueOf(o)
		for i := 0; i < def.NumField(); i++ {
			if !reflect.DeepEqual(def.Field(i).Interface(), mutated.Field(i).Interface()) {
				covered[def.Type().Field(i).Name] = true
			}
		}
		want := o.Validate()
		if want == nil {
			t.Fatalf("%s: Validate accepted %+v", tc.name, o)
		}
		if _, err := NewEngine(WithOptions(o)); err == nil || err.Error() != want.Error() {
			t.Fatalf("%s: WithOptions error %v, want %v", tc.name, err, want)
		}
		if tc.granular != nil {
			if _, err := NewEngine(tc.granular...); err == nil || err.Error() != want.Error() {
				t.Fatalf("%s: granular error %v, want %v", tc.name, err, want)
			}
		}
	}
	for i := 0; i < def.NumField(); i++ {
		f := def.Type().Field(i)
		if f.Type.Kind() != reflect.Bool && !covered[f.Name] {
			t.Errorf("no invalid-knob case edits Options.%s", f.Name)
		}
	}

	// Options outside the knob set keep their own checks.
	for name, opt := range map[string]Option{
		"constraint": WithConstraint(0),
		"budget":     WithEnergyBudget(0),
		"preset":     WithPlatform("no-such-preset"),
	} {
		if _, err := NewEngine(opt); err == nil {
			t.Fatalf("%s: invalid option accepted", name)
		}
	}
	// Every preset is valid, and so is a zero constraint: energy runs
	// never read it.
	for _, name := range PlatformPresets() {
		if _, err := NewEngine(WithPlatform(name)); err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
	}
	zero := DefaultOptions()
	zero.Constraint = 0
	if err := zero.Validate(); err != nil {
		t.Fatalf("zero constraint refused: %v", err)
	}
	// nil options are tolerated; later options layer over earlier ones, and
	// only the final knob set is validated.
	eng, err := NewEngine(nil, WithArea(-1), WithPlatform("paper-large"), WithArea(2222))
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Options(); got.AFPGA != 2222 || got.NumCGCs != 2 {
		t.Fatalf("option layering broken: %+v", got)
	}
}

// TestOptionsValidateAllocs: the service validates every request's knob
// set, cache hits included, so a valid one must cost no allocation.
func TestOptionsValidateAllocs(t *testing.T) {
	o := DefaultOptions()
	if n := testing.AllocsPerRun(100, func() {
		if o.Validate() != nil {
			t.Fatal("default knob set refused")
		}
	}); n != 0 {
		t.Fatalf("Validate allocates %v times per call", n)
	}
}

// TestWithCostsZeroTableFailsLoudly: a zero Options.Costs selects the
// default characterization, the only way a run can see a zero table.
func TestWithCostsZeroTableFailsLoudly(t *testing.T) {
	app, prof := compileFIR(t)
	flat := DefaultOptions()
	flat.Constraint = 30000
	flat.Costs = OpCosts{}
	zeroed := partitionWith(t, app, prof, WithOptions(flat))
	flat.Costs = DefaultOpCosts()
	explicit := partitionWith(t, app, prof, WithOptions(flat))
	if zeroed.Format() != explicit.Format() {
		t.Fatal("zero-value Options.Costs no longer selects the default table")
	}
}

// TestWorkloadLifecycle covers the non-engine surface of Workload.
func TestWorkloadLifecycle(t *testing.T) {
	w, err := NewWorkload(firSrc, "main_fn")
	if err != nil {
		t.Fatal(err)
	}
	if w.Entry() != "main_fn" || w.NumBlocks() == 0 {
		t.Fatalf("workload malformed: entry=%q blocks=%d", w.Entry(), w.NumBlocks())
	}
	if err := w.SetInput("INPUT", []int32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := w.SetInput("NOPE", []int32{1}); err == nil {
		t.Fatal("unknown input accepted")
	}
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if w.InstructionsExecuted() == 0 {
		t.Fatal("no instructions counted")
	}
	if w.Data("OUTPUT") == nil {
		t.Fatal("output array unreadable")
	}
	// Profiles accumulate across runs.
	p1 := w.Profile()
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	p2 := w.Profile()
	var s1, s2 uint64
	for i := range p1.Freq {
		s1 += p1.Freq[i]
		s2 += p2.Freq[i]
	}
	if s2 <= s1 {
		t.Fatalf("profile did not accumulate: %d then %d", s1, s2)
	}
	if w.App() == nil {
		t.Fatal("App accessor broken")
	}
	if _, err := NewWorkload("not C", "f"); err == nil {
		t.Fatal("parse error accepted")
	}
	if _, err := BenchmarkWorkload("nope", 1); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	var nilW *Workload
	eng, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Partition(context.Background(), nilW); err == nil {
		t.Fatal("nil workload accepted")
	}
	if _, err := eng.Analyze(nilW); err == nil {
		t.Fatal("nil workload accepted by Analyze")
	}
}

// TestEngineObserverSerializedDelivery: one engine, one observer, several
// concurrent runs — delivery must be serialized so an unlocked observer is
// safe (the race detector is the real assertion here).
func TestEngineObserverSerializedDelivery(t *testing.T) {
	w := firWorkload(t)
	var events []Event // deliberately unsynchronized: the engine serializes
	eng, err := NewEngine(
		WithConstraint(1),
		withMaxMoves(3),
		WithObserver(func(ev Event) { events = append(events, ev) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := eng.Partition(context.Background(), w); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if len(events) != 4*3 {
		t.Fatalf("lost events under concurrency: got %d, want 12", len(events))
	}
}

// TestEngineSweepPresetSemantics: an empty cell preset inherits the
// engine's platform; the literal "default" pins the paper baseline.
func TestEngineSweepPresetSemantics(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	eng, err := NewEngine(WithPlatform("dsp-rich"))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := eng.Sweep(context.Background(), SweepSpec{
		Benchmarks: []string{BenchOFDM},
		Presets:    []string{"", "default", "dsp-rich"},
		Seed:       1,
		Workers:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	inherit := rs.Find(BenchOFDM, "", 0, 0, 0)
	paper := rs.Find(BenchOFDM, "default", 0, 0, 0)
	dsp := rs.Find(BenchOFDM, "dsp-rich", 0, 0, 0)
	if inherit == nil || paper == nil || dsp == nil {
		t.Fatalf("missing cells: %+v", rs.Outcomes)
	}
	if inherit.InitialCycles != dsp.InitialCycles {
		t.Fatalf("empty preset did not inherit the engine's dsp-rich platform: %d vs %d",
			inherit.InitialCycles, dsp.InitialCycles)
	}
	if paper.InitialCycles == dsp.InitialCycles {
		t.Fatal(`"default" preset did not pin the paper baseline on a configured engine`)
	}
}

// TestBenchmarkRegistry keeps the CLI validation helper honest.
func TestBenchmarkRegistry(t *testing.T) {
	if !reflect.DeepEqual(Benchmarks(), []string{BenchOFDM, BenchJPEG}) {
		t.Fatalf("registry wrong: %v", Benchmarks())
	}
	if !IsBenchmark(BenchOFDM) || !IsBenchmark(BenchJPEG) || IsBenchmark("nope") {
		t.Fatal("IsBenchmark misclassifies")
	}
}
