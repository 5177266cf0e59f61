package energy

import (
	"context"
	"errors"
	"testing"

	"hybridpart/internal/analysis"
	"hybridpart/internal/coarsegrain"
	"hybridpart/internal/finegrain"
	"hybridpart/internal/interp"
	"hybridpart/internal/ir"
	"hybridpart/internal/lower"
	"hybridpart/internal/platform"
)

const hotSrc = `
int data[2048];
int f(int n) {
    int i;
    int s = 0;
    for (i = 0; i < 2048; i++) { data[i] = i * 3 + 1; }
    for (i = 0; i < n; i++) {
        int j;
        for (j = 0; j < 2048; j++) {
            s += data[j] * j + (data[j] >> 2) * (j + 1) + (data[j] & j) * (j - 3);
        }
    }
    return s;
}`

type testApp struct {
	prog   *ir.Program
	tables *ir.BlockTables
	rep    *analysis.Report
	freq   []uint64
	edges  []finegrain.EdgeFreq
}

func prepare(t *testing.T, src, entry string, args ...interp.Arg) testApp {
	t.Helper()
	prog, err := lower.LowerSource(src)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := lower.Flatten(prog, entry)
	if err != nil {
		t.Fatal(err)
	}
	fp := ir.NewProgram()
	fp.Globals = prog.Globals
	if err := fp.AddFunc(flat); err != nil {
		t.Fatal(err)
	}
	m := interp.New(fp)
	prof := m.EnableProfile()
	if _, err := m.Run(entry, args...); err != nil {
		t.Fatal(err)
	}
	rep := analysis.Analyze(flat, prof.Counts[entry], analysis.DefaultWeights())
	freq := make([]uint64, len(flat.Blocks))
	copy(freq, prof.Counts[entry])
	var edges []finegrain.EdgeFreq
	for k, n := range prof.Edges[entry] {
		edges = append(edges, finegrain.EdgeFreq{From: k.From(), To: k.To(), N: n})
	}
	return testApp{prog: fp, tables: ir.BuildBlockTables(flat), rep: rep, freq: freq, edges: edges}
}

func TestEvaluateAllFineVsAllMoved(t *testing.T) {
	a := prepare(t, hotSrc, "f", interp.Int(4))
	plat := platform.Paper(1500, 2)
	costs := DefaultCosts()

	base, err := Evaluate(a.tables, a.freq, map[ir.BlockID]bool{}, plat, costs, a.edges)
	if err != nil {
		t.Fatal(err)
	}
	if base.Coarse != 0 || base.Comm != 0 {
		t.Fatalf("all-FPGA breakdown has coarse/comm energy: %+v", base)
	}
	if base.Fine <= 0 {
		t.Fatal("no fine-grain energy")
	}

	// Move the hottest kernel: fine energy must drop, coarse+comm appear.
	moved := map[ir.BlockID]bool{a.rep.Kernels[0]: true}
	after, err := Evaluate(a.tables, a.freq, moved, plat, costs, a.edges)
	if err != nil {
		t.Fatal(err)
	}
	if after.Fine >= base.Fine {
		t.Fatalf("fine energy did not drop: %f >= %f", after.Fine, base.Fine)
	}
	if after.Coarse <= 0 || after.Comm <= 0 {
		t.Fatalf("moved kernel shows no coarse/comm energy: %+v", after)
	}
	// With a 5x per-op gap the move must reduce total energy for this
	// multiply-heavy kernel.
	if after.Total() >= base.Total() {
		t.Fatalf("move increased energy: %f >= %f", after.Total(), base.Total())
	}
}

func TestPartitionMeetsBudget(t *testing.T) {
	a := prepare(t, hotSrc, "f", interp.Int(4))
	cfg := Config{
		Platform: platform.Paper(1500, 2),
		Costs:    DefaultCosts(),
		Edges:    a.edges,
	}
	// First find the achievable range.
	cfg.Budget = 1e18
	loose, err := Partition(context.Background(), a.prog, a.tables, a.rep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !loose.Met || len(loose.Moved) != 0 {
		t.Fatalf("loose budget mishandled: %+v", loose)
	}

	cfg.Budget = loose.InitialEnergy * 0.7
	res, err := Partition(context.Background(), a.prog, a.tables, a.rep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatalf("70%% budget not met: final %f initial %f", res.FinalEnergy, res.InitialEnergy)
	}
	if len(res.Moved) == 0 {
		t.Fatal("no kernels moved")
	}
	if res.FinalEnergy > cfg.Budget {
		t.Fatalf("final energy %f exceeds budget %f despite Met", res.FinalEnergy, cfg.Budget)
	}
	if res.ReductionPct() <= 0 {
		t.Fatalf("no energy reduction: %f%%", res.ReductionPct())
	}
}

func TestPartitionImpossibleBudget(t *testing.T) {
	a := prepare(t, hotSrc, "f", interp.Int(4))
	res, err := Partition(context.Background(), a.prog, a.tables, a.rep, Config{
		Platform: platform.Paper(1500, 2),
		Costs:    DefaultCosts(),
		Budget:   1, // unreachable
		Edges:    a.edges,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Met {
		t.Fatal("impossible budget reported met")
	}
	if len(res.Moved) == 0 {
		t.Fatal("engine gave up without trying kernels")
	}
}

func TestConfigValidation(t *testing.T) {
	a := prepare(t, hotSrc, "f", interp.Int(1))
	if _, err := Partition(context.Background(), a.prog, a.tables, a.rep, Config{
		Platform: platform.Default(), Costs: DefaultCosts(), Budget: 0,
	}); err == nil {
		t.Fatal("zero budget accepted")
	}
	bad := DefaultCosts()
	bad.FineMul = -1
	if _, err := Partition(context.Background(), a.prog, a.tables, a.rep, Config{
		Platform: platform.Default(), Costs: bad, Budget: 100,
	}); err == nil {
		t.Fatal("negative cost accepted")
	}
	other := platform.Paper(1500, 3)
	if _, err := Partition(context.Background(), a.prog, a.tables, a.rep, Config{
		Platform: platform.Default(), Costs: DefaultCosts(), Budget: 100,
		Latencies: coarsegrain.BuildLatencyTable(a.prog, a.tables, other.Coarse),
	}); err == nil {
		t.Fatal("latency table for another data-path accepted")
	}
	zero := DefaultCosts()
	zero.CoarseALU = 0
	if err := zero.Validate(); err == nil {
		t.Fatal("zero ALU energy accepted")
	}
}

func TestDivisionKernelSkipped(t *testing.T) {
	src := `
int data[64];
int f(int n) {
    int i;
    int s = 0;
    for (i = 0; i < n; i++) {
        int j;
        for (j = 1; j <= 64; j++) { s += data[j - 1] / j; }
    }
    return s;
}`
	a := prepare(t, src, "f", interp.Int(50))
	res, err := Partition(context.Background(), a.prog, a.tables, a.rep, Config{
		Platform: platform.Paper(1500, 2),
		Costs:    DefaultCosts(),
		Budget:   1,
		Edges:    a.edges,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unmappable) == 0 {
		t.Fatal("division kernel not skipped")
	}
}

func TestContextCancellationAndOnMove(t *testing.T) {
	a := prepare(t, hotSrc, "f", interp.Int(4))
	cfg := Config{
		Platform: platform.Paper(1500, 2),
		Costs:    DefaultCosts(),
		Edges:    a.edges,
	}

	// Pre-cancelled: the engine must not start.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	cfg.Budget = 1
	if _, err := Partition(dead, a.prog, a.tables, a.rep, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}

	// The OnMove stream matches the recorded moves, and cancelling from
	// the hook stops the trajectory.
	var hooked []Move
	cfg.Budget = 1 // unreachable: every candidate would move
	cfg.OnMove = func(m Move) { hooked = append(hooked, m) }
	res, err := Partition(context.Background(), a.prog, a.tables, a.rep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(hooked) != len(res.Moved) {
		t.Fatalf("%d hook calls for %d moves", len(hooked), len(res.Moved))
	}
	for i, m := range hooked {
		if m.Block != res.Moved[i] {
			t.Fatalf("hook %d reported block %d, moved %d", i, m.Block, res.Moved[i])
		}
	}
	if hooked[len(hooked)-1].EnergyAfter != res.FinalEnergy {
		t.Fatal("last hook energy != final energy")
	}

	ctx, cancelMid := context.WithCancel(context.Background())
	defer cancelMid()
	calls := 0
	cfg.OnMove = func(Move) { calls++; cancelMid() }
	if _, err := Partition(ctx, a.prog, a.tables, a.rep, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if calls != 1 {
		t.Fatalf("engine kept moving after cancellation: %d moves", calls)
	}
}
