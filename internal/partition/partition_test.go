package partition

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"hybridpart/internal/analysis"
	"hybridpart/internal/coarsegrain"
	"hybridpart/internal/finegrain"
	"hybridpart/internal/interp"
	"hybridpart/internal/ir"
	"hybridpart/internal/lower"
	"hybridpart/internal/obs"
	"hybridpart/internal/platform"
)

// prepared bundles the flow inputs for one test program.
type prepared struct {
	prog  *ir.Program
	fn    *ir.Function
	rep   *analysis.Report
	edges []finegrain.EdgeFreq
}

// prepare lowers src, flattens entry, profiles it and analyzes it.
func prepare(t *testing.T, src, entry string, args ...interp.Arg) prepared {
	t.Helper()
	prog, err := lower.LowerSource(src)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	flat, err := lower.Flatten(prog, entry)
	if err != nil {
		t.Fatalf("flatten: %v", err)
	}
	fp := ir.NewProgram()
	fp.Globals = prog.Globals
	if err := fp.AddFunc(flat); err != nil {
		t.Fatal(err)
	}
	m := interp.New(fp)
	prof := m.EnableProfile()
	if _, err := m.Run(entry, args...); err != nil {
		t.Fatalf("run: %v", err)
	}
	rep := analysis.Analyze(flat, prof.Counts[entry], analysis.DefaultWeights())
	var edges []finegrain.EdgeFreq
	for k, n := range prof.Edges[entry] {
		edges = append(edges, finegrain.EdgeFreq{From: k.From(), To: k.To(), N: n})
	}
	return prepared{prog: fp, fn: flat, rep: rep, edges: edges}
}

// run invokes the engine with the prepared inputs.
func (p prepared) run(t *testing.T, cfg Config) *Result {
	t.Helper()
	cfg.Edges = p.edges
	res, err := Partition(context.Background(), p.prog, p.fn, p.rep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// hotLoopSrc has one dominant multiply-heavy kernel plus cold code.
const hotLoopSrc = `
int data[2048];
int f(int n) {
    int i;
    int s = 0;
    for (i = 0; i < 2048; i++) { data[i] = i * 3 + 1; }
    for (i = 0; i < n; i++) {
        int j;
        for (j = 0; j < 2048; j++) {
            s += data[j] * j + (data[j] >> 2) * (j + 1) + (data[j] & j) * (j - 3)
               + ((data[j] << 1) ^ j) * (j + 7) + (data[j] | 5) * (j + 11)
               + (data[j] - j) * (j + 13);
        }
    }
    if (s < 0) { s = -s; }
    return s;
}`

func TestAllFPGAMeetsLooseConstraint(t *testing.T) {
	p := prepare(t, hotLoopSrc, "f", interp.Int(4))
	res := p.run(t, Config{Platform: platform.Paper(5000, 2), Constraint: 1 << 40})
	if !res.Met {
		t.Fatal("loose constraint not met")
	}
	if len(res.Moved) != 0 {
		t.Fatalf("moved %v despite timing already met (methodology must exit at step 2)", res.Moved)
	}
	if res.FinalCycles != res.InitialCycles {
		t.Fatalf("final %d != initial %d with no moves", res.FinalCycles, res.InitialCycles)
	}
}

func TestPartitioningAcceleratesHotKernel(t *testing.T) {
	p := prepare(t, hotLoopSrc, "f", interp.Int(8))
	plat := platform.Paper(1500, 2)
	all := p.run(t, Config{Platform: plat, Constraint: 1 << 40})
	constraint := all.InitialCycles * 6 / 10
	res := p.run(t, Config{Platform: plat, Constraint: constraint})
	if !res.Met {
		t.Fatalf("constraint %d not met: final %d (initial %d)", constraint, res.FinalCycles, res.InitialCycles)
	}
	if len(res.Moved) == 0 {
		t.Fatal("no kernels moved")
	}
	// The first move must be the top kernel of the analysis.
	if res.Moved[0] != p.rep.Kernels[0] {
		t.Fatalf("first move = b%d, want top kernel b%d", res.Moved[0], p.rep.Kernels[0])
	}
	if res.FinalCycles >= res.InitialCycles {
		t.Fatalf("no acceleration: %d >= %d", res.FinalCycles, res.InitialCycles)
	}
	// Eq. 2 decomposition must hold exactly.
	if res.TFPGA+res.TCoarse+res.TComm != res.FinalCycles {
		t.Fatalf("eq. 2 broken: %d + %d + %d != %d", res.TFPGA, res.TCoarse, res.TComm, res.FinalCycles)
	}
}

func TestUnsatisfiableConstraintReportsBestEffort(t *testing.T) {
	p := prepare(t, hotLoopSrc, "f", interp.Int(8))
	res := p.run(t, Config{Platform: platform.Paper(1500, 2), Constraint: 1})
	if res.Met {
		t.Fatal("impossible constraint reported as met")
	}
	if len(res.Moved) == 0 {
		t.Fatal("engine should have tried every kernel")
	}
}

func TestMovesFollowAnalysisOrder(t *testing.T) {
	p := prepare(t, hotLoopSrc, "f", interp.Int(8))
	res := p.run(t, Config{Platform: platform.Paper(1500, 2), Constraint: 1})
	// Moves must be a prefix-preserving subsequence of rep.Kernels.
	ki := 0
	for _, m := range res.Moved {
		found := false
		for ; ki < len(p.rep.Kernels); ki++ {
			if p.rep.Kernels[ki] == m {
				found = true
				ki++
				break
			}
		}
		if !found {
			t.Fatalf("move b%d out of analysis order %v", m, p.rep.Kernels)
		}
	}
}

func TestSmallerAreaNeverFaster(t *testing.T) {
	// The all-FPGA mapping at A_FPGA=1500 can never beat the one at 5000
	// (Tables 2-3 shape: more area, fewer cycles).
	p := prepare(t, hotLoopSrc, "f", interp.Int(8))
	small := p.run(t, Config{Platform: platform.Paper(1500, 2), Constraint: 1 << 40})
	big := p.run(t, Config{Platform: platform.Paper(5000, 2), Constraint: 1 << 40})
	if small.InitialCycles < big.InitialCycles {
		t.Fatalf("A_FPGA=1500 faster (%d) than 5000 (%d)", small.InitialCycles, big.InitialCycles)
	}
}

func TestMoreCGCsNeedFewerMoves(t *testing.T) {
	// Table 2 shape: with three CGCs the constraint is met after fewer (or
	// equal) moves than with two.
	p := prepare(t, hotLoopSrc, "f", interp.Int(8))
	base := p.run(t, Config{Platform: platform.Paper(1500, 2), Constraint: 1 << 40})
	constraint := base.InitialCycles * 55 / 100
	res2 := p.run(t, Config{Platform: platform.Paper(1500, 2), Constraint: constraint})
	res3 := p.run(t, Config{Platform: platform.Paper(1500, 3), Constraint: constraint})
	if len(res3.Moved) > len(res2.Moved) {
		t.Fatalf("three CGCs needed more moves (%d) than two (%d)", len(res3.Moved), len(res2.Moved))
	}
	if !res3.Met && res2.Met {
		t.Fatal("three CGCs failed where two succeeded")
	}
}

func TestDivisionKernelIsUnmappable(t *testing.T) {
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
	p := prepare(t, src, "f", interp.Int(50))
	res := p.run(t, Config{Platform: platform.Paper(1500, 2), Constraint: 1})
	if len(res.Unmappable) == 0 {
		t.Fatal("division kernel not reported as unmappable")
	}
	for _, u := range res.Unmappable {
		for _, m := range res.Moved {
			if u == m {
				t.Fatalf("b%d both moved and unmappable", u)
			}
		}
	}
}

// TestSharedLatencyTable requires a run on a supplied latency table to
// equal a run that builds its own, and rejects a table for another
// function or data-path.
func TestSharedLatencyTable(t *testing.T) {
	p := prepare(t, hotLoopSrc, "f", interp.Int(2))
	plat := platform.Paper(1500, 2)
	tables := ir.BuildBlockTables(p.fn)
	own := p.run(t, Config{Platform: plat, Constraint: 1})
	shared := p.run(t, Config{Platform: plat, Constraint: 1, Tables: tables,
		Latencies: coarsegrain.BuildLatencyTable(p.prog, tables, plat.Coarse)})
	if !reflect.DeepEqual(own, shared) {
		t.Fatalf("shared-table run differs:\n own    %+v\n shared %+v", own, shared)
	}
	other := platform.Paper(1500, 3)
	foreign := coarsegrain.BuildLatencyTable(p.prog, tables, other.Coarse)
	if _, err := Partition(context.Background(), p.prog, p.fn, p.rep, Config{Platform: plat, Constraint: 1, Latencies: foreign}); err == nil {
		t.Fatal("latency table for another data-path accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	p := prepare(t, hotLoopSrc, "f", interp.Int(2))
	if _, err := Partition(context.Background(), p.prog, p.fn, p.rep, Config{Platform: platform.Default(), Constraint: 0}); err == nil {
		t.Fatal("zero constraint accepted")
	}
	bad := platform.Default()
	bad.Fine.Area = -5
	if _, err := Partition(context.Background(), p.prog, p.fn, p.rep, Config{Platform: bad, Constraint: 100}); err == nil {
		t.Fatal("invalid platform accepted")
	}
	if _, err := Partition(context.Background(), p.prog, p.fn, &analysis.Report{}, Config{Platform: platform.Default(), Constraint: 100}); err == nil {
		t.Fatal("mismatched report accepted")
	}
}

func TestSkipNonImproving(t *testing.T) {
	// A tiny kernel whose communication overhead outweighs the speedup
	// must be skipped when SkipNonImproving is set.
	src := `
int data[4];
int f(int n) {
    int i;
    int s = 0;
    for (i = 0; i < n; i++) { s += data[i & 3]; }
    return s;
}`
	p := prepare(t, src, "f", interp.Int(64))
	plat := platform.Paper(1500, 2)
	plat.Comm.SyncCycles = 10000 // absurd communication cost
	res := p.run(t, Config{Platform: plat, Constraint: 1, SkipNonImproving: true})
	if len(res.Moved) != 0 {
		t.Fatalf("moved %v despite prohibitive communication cost", res.Moved)
	}
	if len(res.Skipped) == 0 {
		t.Fatal("no kernels recorded as skipped")
	}
	// Without the flag the engine moves anyway (faithful to the paper).
	res2 := p.run(t, Config{Platform: plat, Constraint: 1})
	if len(res2.Moved) == 0 {
		t.Fatal("paper-faithful engine should move unconditionally")
	}
}

func TestLiveIOCounts(t *testing.T) {
	src := `
int data[16];
int f(int a, int b) {
    int s = 0;
    int i;
    for (i = 0; i < 16; i++) {
        s += data[i] * a + b;
    }
    return s;
}`
	p := prepare(t, src, "f", interp.Int(2), interp.Int(3))
	live := ir.BuildBlockTables(p.fn).LiveIO
	// Find the loop body: the block with the multiply.
	var body ir.BlockID = -1
	for _, blk := range p.fn.Blocks {
		for i := range blk.Instrs {
			if blk.Instrs[i].Op == ir.OpMul {
				body = blk.ID
			}
		}
	}
	if body < 0 {
		t.Fatal("loop body not found")
	}
	io := live[body]
	// Live-ins include at least a, b, i, s; live-outs at least s and i
	// (loop-carried).
	if io.In < 4 {
		t.Errorf("live-in = %d, want >= 4", io.In)
	}
	if io.Out < 2 {
		t.Errorf("live-out = %d, want >= 2", io.Out)
	}
}

func TestMovingKernelReducesTFPGA(t *testing.T) {
	p := prepare(t, hotLoopSrc, "f", interp.Int(8))
	plat := platform.Paper(1500, 2)
	res := p.run(t, Config{Platform: plat, Constraint: 1, MaxMoves: 1})
	if len(res.Moved) != 1 {
		t.Fatalf("MaxMoves=1 moved %d kernels", len(res.Moved))
	}
	if res.TFPGA >= res.InitialCycles {
		t.Fatalf("t_FPGA did not shrink: %d >= %d", res.TFPGA, res.InitialCycles)
	}
	if res.TCoarse <= 0 {
		t.Fatal("no coarse-grain time after a move")
	}
}

func TestContextCancellationBetweenMoves(t *testing.T) {
	p := prepare(t, hotLoopSrc, "f", interp.Int(4))

	// Pre-cancelled: the engine must not start.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Partition(dead, p.prog, p.fn, p.rep,
		Config{Platform: platform.Default(), Constraint: 100}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}

	// Cancelling from the OnMove hook stops the trajectory after that move.
	ctx, cancelMid := context.WithCancel(context.Background())
	defer cancelMid()
	moves := 0
	_, err := Partition(ctx, p.prog, p.fn, p.rep, Config{
		Platform:   platform.Default(),
		Constraint: 1, // unreachable: would move every candidate
		Edges:      p.edges,
		OnMove: func(Move) {
			moves++
			cancelMid()
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if moves != 1 {
		t.Fatalf("engine kept moving after cancellation: %d moves", moves)
	}

	// A nil context means context.Background().
	if _, err := Partition(nil, p.prog, p.fn, p.rep,
		Config{Platform: platform.Default(), Constraint: 1 << 60, Edges: p.edges}); err != nil {
		t.Fatalf("nil context rejected: %v", err)
	}
}

func TestOnMoveMatchesMoves(t *testing.T) {
	p := prepare(t, hotLoopSrc, "f", interp.Int(4))
	var hooked []Move
	cfg := Config{
		Platform:   platform.Default(),
		Constraint: 1,
		MaxMoves:   3,
		Edges:      p.edges,
		OnMove:     func(m Move) { hooked = append(hooked, m) },
	}
	res, err := Partition(context.Background(), p.prog, p.fn, p.rep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(hooked) == 0 || !reflect.DeepEqual(hooked, res.Moves) {
		t.Fatalf("hook stream %v != recorded moves %v", hooked, res.Moves)
	}
}

// TestStopReplacesConstraint: a stop test sees record 0 and then the record
// of every accepted move, in trajectory order; the run ends with Met at the
// first record it accepts, needs no constraint, and is refused next to
// simulation-scored selection.
func TestStopReplacesConstraint(t *testing.T) {
	p := prepare(t, hotLoopSrc, "f", interp.Int(4))
	var seen []ir.BlockID
	res := p.run(t, Config{Platform: platform.Default(), Stop: func(rec *Prefix) bool {
		seen = append(seen, rec.Block)
		return len(seen) == 3
	}})
	if !res.Met || len(res.Moved) != 2 {
		t.Fatalf("stop after the second move: met %v, moved %v", res.Met, res.Moved)
	}
	if want := append([]ir.BlockID{-1}, res.Moved...); !reflect.DeepEqual(seen, want) {
		t.Fatalf("stop test saw records %v, want %v", seen, want)
	}
	if res := p.run(t, Config{Platform: platform.Default(), Stop: func(*Prefix) bool { return true }}); !res.Met || len(res.Moved) != 0 {
		t.Fatalf("stop at the all-FPGA record: met %v, moved %v", res.Met, res.Moved)
	}
	if res := p.run(t, Config{Platform: platform.Default(), Stop: func(*Prefix) bool { return false }}); res.Met || len(res.Moved) == 0 {
		t.Fatalf("a stop test that never accepts: met %v, moved %v", res.Met, res.Moved)
	}
	batch, _ := batchStub(t, func(int, []ir.BlockID) SimScore { return SimScore{Cycles: 1} })
	if _, err := Partition(context.Background(), p.prog, p.fn, p.rep, Config{
		Platform: platform.Default(), Constraint: 1, Objective: ObjectiveSimulated, SimCostBatch: batch,
		Stop: func(*Prefix) bool { return true },
	}); err == nil {
		t.Fatal("stop test accepted with the simulated objective")
	}
}

// batchStub builds a SimCostBatch stub whose scores are computed per slate
// index, and records the moved sets of the last slate it saw.
func batchStub(t *testing.T, score func(i int, moved []ir.BlockID) SimScore) (func(context.Context, []Prefix, []int) ([]SimScore, error), *[][]ir.BlockID) {
	t.Helper()
	var slates [][]ir.BlockID
	batch := func(ctx context.Context, ps []Prefix, cands []int) ([]SimScore, error) {
		slates = slates[:0]
		out := make([]SimScore, len(cands))
		for i, c := range cands {
			slates = append(slates, AppendMoved(nil, ps, c))
			out[i] = score(i, slates[i])
		}
		return out, nil
	}
	return batch, &slates
}

// TestSimCostBatchPrecedenceAndSlate: the batch hook receives every
// trajectory prefix in index order — slate entry i is exactly the first i
// moved blocks.
func TestSimCostBatchPrecedenceAndSlate(t *testing.T) {
	p := prepare(t, hotLoopSrc, "f", interp.Int(8))
	batch, slates := batchStub(t, func(i int, moved []ir.BlockID) SimScore {
		return SimScore{Cycles: int64(1000 - i)} // strictly improving: full trajectory wins
	})
	res := p.run(t, Config{
		Platform: platform.Paper(5000, 2), Constraint: 1,
		Objective: ObjectiveSimulated, SimCostBatch: batch,
	})
	if len(*slates) < 2 {
		t.Fatalf("batch saw %d candidates, want the full prefix slate", len(*slates))
	}
	for i, moved := range *slates {
		if len(moved) != i {
			t.Fatalf("slate entry %d has %d moved blocks, want %d (prefixes in index order)", i, len(moved), i)
		}
	}
	if want := len(*slates) - 1; len(res.Moved) != want {
		t.Fatalf("strictly improving scores: moved %d blocks, want the full trajectory of %d", len(res.Moved), want)
	}
	if res.SimScored != len(*slates) {
		t.Fatalf("SimScored %d, want %d (every candidate scored, none pruned)", res.SimScored, len(*slates))
	}
	if res.SimulatedCycles != int64(1000-(len(*slates)-1)) {
		t.Fatalf("SimulatedCycles %d, want the winning score", res.SimulatedCycles)
	}
}

// TestSimCostBatchTieBreaksLowestIndex: when every candidate scores the
// same, the empty prefix (index 0) must win — the argmin tie-break is the
// lowest trajectory index, independent of how the batch was scheduled.
func TestSimCostBatchTieBreaksLowestIndex(t *testing.T) {
	p := prepare(t, hotLoopSrc, "f", interp.Int(8))
	batch, _ := batchStub(t, func(i int, moved []ir.BlockID) SimScore {
		return SimScore{Cycles: 777}
	})
	res := p.run(t, Config{
		Platform: platform.Paper(5000, 2), Constraint: 1,
		Objective: ObjectiveSimulated, SimCostBatch: batch,
	})
	if len(res.Moved) != 0 {
		t.Fatalf("all-tied scores must keep the lowest-index prefix (no moves), got %v", res.Moved)
	}
	if res.SimulatedCycles != 777 {
		t.Fatalf("SimulatedCycles %d, want 777", res.SimulatedCycles)
	}
}

// TestSimCostBatchPrunedSkipped: pruned entries are skipped by selection
// and excluded from SimScored; pruning the would-be winner's rivals leaves
// the best scored candidate as argmin.
func TestSimCostBatchPrunedSkipped(t *testing.T) {
	p := prepare(t, hotLoopSrc, "f", interp.Int(8))
	batch, slates := batchStub(t, func(i int, moved []ir.BlockID) SimScore {
		if i == 0 {
			return SimScore{Pruned: true} // prune the lowest index so it cannot win a tie
		}
		return SimScore{Cycles: int64(100 + i)} // index 1 is the minimum
	})
	res := p.run(t, Config{
		Platform: platform.Paper(5000, 2), Constraint: 1,
		Objective: ObjectiveSimulated, SimCostBatch: batch,
	})
	if len(res.Moved) != 1 {
		t.Fatalf("moved %v, want the 1-block prefix (index 1 is the cheapest scored candidate)", res.Moved)
	}
	if res.SimScored != len(*slates)-1 {
		t.Fatalf("SimScored %d, want %d (pruned candidates are not scored)", res.SimScored, len(*slates)-1)
	}
	if res.SimulatedCycles != 101 {
		t.Fatalf("SimulatedCycles %d, want 101", res.SimulatedCycles)
	}
}

// TestSimCostBatchAllPrunedErrors: a batch that prunes every candidate has
// violated its contract (the incumbent must be a real score) and the run
// must fail loudly instead of silently picking a pruned mapping.
func TestSimCostBatchAllPrunedErrors(t *testing.T) {
	p := prepare(t, hotLoopSrc, "f", interp.Int(8))
	batch, _ := batchStub(t, func(i int, moved []ir.BlockID) SimScore {
		return SimScore{Pruned: true}
	})
	cfg := Config{
		Platform: platform.Paper(5000, 2), Constraint: 1,
		Objective: ObjectiveSimulated, SimCostBatch: batch,
	}
	cfg.Edges = p.edges
	_, err := Partition(context.Background(), p.prog, p.fn, p.rep, cfg)
	if err == nil || !strings.Contains(err.Error(), "pruned every candidate") {
		t.Fatalf("err = %v, want the all-pruned contract error", err)
	}
}

// TestSimCostBatchLengthMismatchErrors: a score slice that is not
// index-aligned with the slate is a contract violation, not a partial
// result.
func TestSimCostBatchLengthMismatchErrors(t *testing.T) {
	p := prepare(t, hotLoopSrc, "f", interp.Int(8))
	batch := func(ctx context.Context, _ []Prefix, cands []int) ([]SimScore, error) {
		return make([]SimScore, len(cands)+1), nil
	}
	cfg := Config{
		Platform: platform.Paper(5000, 2), Constraint: 1,
		Objective: ObjectiveSimulated, SimCostBatch: batch,
	}
	cfg.Edges = p.edges
	_, err := Partition(context.Background(), p.prog, p.fn, p.rep, cfg)
	if err == nil || !strings.Contains(err.Error(), "scores for") {
		t.Fatalf("err = %v, want the length-mismatch contract error", err)
	}
}

// TestSpansEndOnScoringError: a scorer failure must still end the argmin,
// move-loop and per-move spans. obs drops spans still live when the root
// ends, so a leaked span would vanish from exactly the traces tail
// sampling keeps for their error.
func TestSpansEndOnScoringError(t *testing.T) {
	p := prepare(t, hotLoopSrc, "f", interp.Int(8))
	errScoring := errors.New("scoring failed")
	cfg := Config{
		Platform: platform.Paper(5000, 2), Constraint: 1, Objective: ObjectiveSimulated,
		SimCostBatch: func(context.Context, []Prefix, []int) ([]SimScore, error) {
			return nil, errScoring
		},
	}
	cfg.Edges = p.edges
	tracer := obs.New(obs.Config{Service: "test"})
	ctx, root := tracer.StartRoot(context.Background(), "root", obs.SpanContext{})
	if _, err := Partition(ctx, p.prog, p.fn, p.rep, cfg); !errors.Is(err, errScoring) {
		t.Fatalf("err = %v, want the scorer's error", err)
	}
	root.End()
	traces := tracer.Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d finished traces, want 1", len(traces))
	}
	names := map[string]int{}
	for _, sp := range traces[0].Spans {
		names[sp.Name]++
	}
	for _, want := range []string{"sim.argmin", "partition.moveloop", "move"} {
		if names[want] == 0 {
			t.Errorf("span %q missing from the failed run's trace (have %v)", want, names)
		}
	}
}
