package hybridpart

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

const firSrc = `
const int N = 128;
int TAPS[16] = {1, 2, 3, 4, 5, 6, 7, 8, 8, 7, 6, 5, 4, 3, 2, 1};
int INPUT[N];
int OUTPUT[N];
void prep() {
    int i;
    for (i = 0; i < N; i++) { INPUT[i] = (i * 13 + 5) & 127; }
}
int main_fn() {
    int n;
    prep();
    for (n = 16; n < N; n++) {
        int acc = ((TAPS[0] * INPUT[n] + TAPS[1] * INPUT[n - 1])
                 + (TAPS[2] * INPUT[n - 2] + TAPS[3] * INPUT[n - 3]))
                + ((TAPS[4] * INPUT[n - 4] + TAPS[5] * INPUT[n - 5])
                 + (TAPS[6] * INPUT[n - 6] + TAPS[7] * INPUT[n - 7]))
                + ((TAPS[8] * INPUT[n - 8] + TAPS[9] * INPUT[n - 9])
                 + (TAPS[10] * INPUT[n - 10] + TAPS[11] * INPUT[n - 11]))
                + ((TAPS[12] * INPUT[n - 12] + TAPS[13] * INPUT[n - 13])
                 + (TAPS[14] * INPUT[n - 14] + TAPS[15] * INPUT[n - 15]));
        OUTPUT[n] = acc >> 6;
    }
    return OUTPUT[N - 1];
}
`

// compileFIR returns the profiled FIR fixture as an App and a profile
// snapshot, for the *Profiled engine methods.
func compileFIR(t *testing.T) (*App, *RunProfile) {
	t.Helper()
	w := firWorkload(t)
	return w.App(), w.Profile()
}

// mustEngine builds an engine from the given options, failing tb on error.
func mustEngine(tb testing.TB, opts ...Option) *Engine {
	tb.Helper()
	eng, err := NewEngine(opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return eng
}

// withKnobs edits the knob set of the engine under construction: the
// tests' setter for the knobs that have no granular option.
func withKnobs(edit func(*Options)) Option {
	return func(e *Engine) error {
		edit(&e.opts)
		return nil
	}
}

// withMaxMoves bounds the number of kernels moved.
func withMaxMoves(n int) Option { return withKnobs(func(o *Options) { o.MaxMoves = n }) }

func TestCompileErrors(t *testing.T) {
	if _, err := Compile("int f() { return zz; }", "f"); err == nil {
		t.Fatal("semantic error accepted")
	}
	if _, err := Compile("int f() { return 1; }", "missing"); err == nil {
		t.Fatal("unknown entry accepted")
	}
	if _, err := Compile("not C at all", "f"); err == nil {
		t.Fatal("parse error accepted")
	}
}

// TestCompileBlockCap: Compile accepts a flattened block of exactly
// MaxBlockInstrs instructions and rejects one more with
// ErrBlockTooLarge, naming the block, its function and its size.
func TestCompileBlockCap(t *testing.T) {
	// "s += a;" lowers to one add, next to the entry block's own copy of a.
	src := func(instrs int) string {
		return "int f(int a) {\n int s = a;\n" + strings.Repeat(" s += a;\n", instrs-1) + " return s;\n}\n"
	}
	app, err := Compile(src(MaxBlockInstrs), "f")
	if err != nil {
		t.Fatalf("block at the cap rejected: %v", err)
	}
	if n := len(app.flat.Blocks[app.flat.Entry].Instrs); n != MaxBlockInstrs {
		t.Fatalf("fixture block holds %d instructions, want %d", n, MaxBlockInstrs)
	}
	_, err = Compile(src(MaxBlockInstrs+1), "f")
	if !errors.Is(err, ErrBlockTooLarge) {
		t.Fatalf("block over the cap: err = %v, want ErrBlockTooLarge", err)
	}
	want := fmt.Sprintf("block 0 (entry) of f holds %d instructions after inlining, over the limit of %d",
		MaxBlockInstrs+1, MaxBlockInstrs)
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the block: want %q", err, want)
	}
}

func TestEndToEndFlow(t *testing.T) {
	w := firWorkload(t)
	if w.NumBlocks() < 5 {
		t.Fatalf("suspiciously small CDFG: %d blocks", w.NumBlocks())
	}
	ctx := context.Background()
	an, err := mustEngine(t).Analyze(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Kernels) == 0 {
		t.Fatal("no kernels detected")
	}
	// The FIR inner body (the mul-add loop) must dominate.
	if an.Kernels[0].TotalWeight < an.Kernels[len(an.Kernels)-1].TotalWeight {
		t.Fatal("kernel ordering broken")
	}

	all, err := mustEngine(t, WithConstraint(1<<60)).Partition(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if !all.Met || all.InitialCycles <= 0 {
		t.Fatalf("all-FPGA run malformed: %+v", all)
	}
	res, err := mustEngine(t, WithConstraint(all.InitialCycles/2)).Partition(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met || len(res.Moved) == 0 {
		t.Fatalf("halving constraint failed: met=%v moved=%v", res.Met, res.Moved)
	}
	if res.TFPGA+res.TCoarse+res.TComm != res.FinalCycles {
		t.Fatal("eq. 2 decomposition broken at the facade")
	}
	if !strings.Contains(res.Format(), "BB no. moved") {
		t.Fatalf("Format() malformed:\n%s", res.Format())
	}
}

func TestWorkloadInputs(t *testing.T) {
	w, err := NewWorkload(firSrc, "main_fn")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SetInput("INPUT", []int32{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	if w.Data("INPUT")[0] != 9 {
		t.Fatal("SetInput did not write")
	}
	if err := w.SetInput("NOPE", []int32{1}); err == nil {
		t.Fatal("unknown global accepted")
	}
	if err := w.SetInput("TAPS", make([]int32, 999)); err == nil {
		t.Fatal("oversized write accepted")
	}
}

func TestDotOutputs(t *testing.T) {
	app, _ := compileFIR(t)
	var buf bytes.Buffer
	if err := app.WriteCFGDot(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "digraph") {
		t.Fatal("CFG dot malformed")
	}
	buf.Reset()
	if err := app.WriteDFGDot(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := app.WriteDFGDot(&buf, 9999); err == nil {
		t.Fatal("out-of-range block accepted")
	}
}

func TestBenchmarkProfilesAreStable(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	w1, err := BenchmarkWorkload(BenchOFDM, 7)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := BenchmarkWorkload(BenchOFDM, 7)
	if err != nil {
		t.Fatal(err)
	}
	prof1, prof2 := w1.Profile(), w2.Profile()
	for i := range prof1.Freq {
		if prof1.Freq[i] != prof2.Freq[i] {
			t.Fatalf("profiles differ at block %d", i)
		}
	}
	// The paper's property: OFDM's hot kernels sit in the IFFT. The top
	// kernel must be multiply-rich.
	an, err := mustEngine(t).Analyze(w1)
	if err != nil {
		t.Fatal(err)
	}
	if an.Kernels[0].OpWeight < 20 {
		t.Fatalf("top OFDM kernel too light: %+v", an.Kernels[0])
	}
	if _, err := BenchmarkWorkload("nope", 1); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestPaperShapeProperties(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	app, prof, err := ProfileBenchmarkCached(BenchOFDM, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Property 1: initial cycles shrink monotonically with A_FPGA.
	prev := int64(1 << 62)
	for _, area := range []int{1000, 1500, 5000, 10000} {
		res := partitionWith(t, app, prof, WithConstraint(1<<60), WithArea(area))
		if res.InitialCycles > prev {
			t.Fatalf("A_FPGA=%d slower than smaller area (%d > %d)", area, res.InitialCycles, prev)
		}
		prev = res.InitialCycles
	}

	// Property 2: the paper's constraint (60000) is satisfiable at both
	// areas, with at most as many moves at 5000 as at 1500.
	r1500 := partitionWith(t, app, prof, WithConstraint(60000))
	r5000 := partitionWith(t, app, prof, WithConstraint(60000), WithArea(5000))
	if !r1500.Met || !r5000.Met {
		t.Fatalf("paper constraint unmet: 1500=%v 5000=%v", r1500.Met, r5000.Met)
	}
	if len(r5000.Moved) > len(r1500.Moved) {
		t.Fatalf("larger FPGA needed more moves (%d > %d)", len(r5000.Moved), len(r1500.Moved))
	}
	// Property 3: % reduction larger at the smaller area (Table 2 shape).
	if r1500.ReductionPct < r5000.ReductionPct {
		t.Fatalf("reduction at 1500 (%.1f%%) below 5000 (%.1f%%)",
			r1500.ReductionPct, r5000.ReductionPct)
	}
	// Property 4: cycles in CGC are independent of A_FPGA when the same
	// kernels move (compare per-move latencies via a single-move run).
	m1500 := partitionWith(t, app, prof, WithConstraint(1), withMaxMoves(1))
	m5000 := partitionWith(t, app, prof, WithConstraint(1), withMaxMoves(1), WithArea(5000))
	if m1500.CyclesInCGC != m5000.CyclesInCGC {
		t.Fatalf("CGC cycles depend on A_FPGA: %d vs %d", m1500.CyclesInCGC, m5000.CyclesInCGC)
	}
}

func TestPipelineFacade(t *testing.T) {
	pm := partitionFIROneMove(t).Pipeline()
	if pm.Pipelined(10) > pm.Sequential(10) {
		t.Fatal("pipelining slower than sequential")
	}
	s := pm.Speedup(100)
	if s < 1 || s > 2 {
		t.Fatalf("speedup %f outside [1,2]", s)
	}
	if !strings.Contains(pm.Report([]int{1, 10}), "speedup") {
		t.Fatal("pipeline report malformed")
	}
}

func TestEnergyFacade(t *testing.T) {
	w := firWorkload(t)
	ctx := context.Background()
	loose, err := mustEngine(t, WithEnergyBudget(1e18)).PartitionEnergy(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if !loose.Met || loose.InitialEnergy <= 0 {
		t.Fatalf("loose energy run malformed: %+v", loose)
	}
	res, err := mustEngine(t, WithEnergyBudget(loose.InitialEnergy*0.8)).PartitionEnergy(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met || len(res.Moved) == 0 {
		t.Fatalf("80%% budget failed: %+v", res)
	}
	if res.Final.Total() != res.FinalEnergy {
		t.Fatal("breakdown total mismatch")
	}
}

func TestOptionsRoundTrip(t *testing.T) {
	opts := DefaultOptions()
	p := opts.platform()
	if err := p.Validate(); err != nil {
		t.Fatalf("DefaultOptions platform invalid: %v", err)
	}
	if p.Fine.Area != opts.AFPGA || p.Coarse.NumCGCs != opts.NumCGCs ||
		p.Coarse.RegBankWords != opts.RegBankWords {
		t.Fatal("options not faithfully converted")
	}
	w := opts.weights()
	if w.ALU != 1 || w.Mul != 2 {
		t.Fatalf("paper weights wrong: %+v", w)
	}
}
