package analysis

import (
	"strings"
	"testing"

	"hybridpart/internal/interp"
	"hybridpart/internal/ir"
	"hybridpart/internal/lower"
)

// compileAndProfile lowers src, flattens entry, runs it with args and
// returns the flat function plus its block frequencies.
func compileAndProfile(t *testing.T, src, entry string, args ...interp.Arg) (*ir.Function, []uint64) {
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
	return flat, prof.Counts[entry]
}

const nestedLoopSrc = `
int work(int n) {
    int s = 0;
    int i;
    int j;
    for (i = 0; i < n; i++) {
        for (j = 0; j < n; j++) {
            s += i * j + (i ^ j);
        }
    }
    if (s > 100) { s -= 100; }
    return s;
}`

func TestDominators(t *testing.T) {
	f, _ := compileAndProfile(t, nestedLoopSrc, "work", interp.Int(4))
	dom := ComputeDominators(f)
	// Entry dominates everything reachable.
	for _, b := range f.Blocks {
		if !dom.Reachable(b.ID) {
			continue
		}
		if !dom.Dominates(f.Entry, b.ID) {
			t.Errorf("entry does not dominate b%d", b.ID)
		}
		if !dom.Dominates(b.ID, b.ID) {
			t.Errorf("b%d does not dominate itself", b.ID)
		}
	}
	if dom.idom[f.Entry] != f.Entry {
		t.Errorf("IDom(entry) = %d", dom.idom[f.Entry])
	}
}

func TestDominatorsDiamond(t *testing.T) {
	// Hand-built diamond: 0 -> 1,2 -> 3. IDom(3) must be 0.
	f := ir.NewFunction("d")
	c := f.NewReg("")
	b0 := f.Block(f.Entry)
	b1 := f.AddBlock("then")
	b2 := f.AddBlock("else")
	b3 := f.AddBlock("join")
	b0.Instrs = []ir.Instr{{Op: ir.OpConst, Dst: c, A: ir.Imm(1)}}
	b0.Term = ir.Terminator{Kind: ir.TermBranch, Cond: ir.Reg(c), Then: b1.ID, Else: b2.ID}
	b1.Term = ir.Terminator{Kind: ir.TermJump, Then: b3.ID}
	b2.Term = ir.Terminator{Kind: ir.TermJump, Then: b3.ID}
	b3.Term = ir.Terminator{Kind: ir.TermReturn}
	dom := ComputeDominators(f)
	if got := dom.idom[b3.ID]; got != b0.ID {
		t.Fatalf("IDom(join) = b%d, want b%d", got, b0.ID)
	}
	if dom.Dominates(b1.ID, b3.ID) || dom.Dominates(b2.ID, b3.ID) {
		t.Fatal("branch arm wrongly dominates join")
	}
}

func TestLoopDetectionNested(t *testing.T) {
	f, _ := compileAndProfile(t, nestedLoopSrc, "work", interp.Int(4))
	dom := ComputeDominators(f)
	loops := FindLoops(f, dom)
	if len(loops.Loops) != 2 {
		t.Fatalf("found %d loops, want 2:\n%s", len(loops.Loops), f)
	}
	// One loop must nest inside the other.
	var inner, outer *Loop
	for i := range loops.Loops {
		if loops.Loops[i].Parent >= 0 {
			inner = &loops.Loops[i]
		} else {
			outer = &loops.Loops[i]
		}
	}
	if inner == nil || outer == nil {
		t.Fatalf("nesting not detected: %+v", loops.Loops)
	}
	if len(outer.Blocks) <= len(inner.Blocks) {
		t.Fatalf("outer loop (%d blocks) not larger than inner (%d)", len(outer.Blocks), len(inner.Blocks))
	}
	// Depth 2 exists (innermost body).
	max := 0
	for _, d := range loops.Depth {
		if d > max {
			max = d
		}
	}
	if max != 2 {
		t.Fatalf("max loop depth = %d, want 2", max)
	}
}

func TestLoopDetectionWhileAndDo(t *testing.T) {
	src := `
int f(int n) {
    int c = 0;
    while (n > 0) { n--; c++; }
    do { c += 2; } while (c < 10);
    return c;
}`
	f, _ := compileAndProfile(t, src, "f", interp.Int(3))
	loops := FindLoops(f, ComputeDominators(f))
	if len(loops.Loops) != 2 {
		t.Fatalf("found %d loops, want 2:\n%s", len(loops.Loops), f)
	}
	for i := range loops.Loops {
		if loops.Loops[i].Parent != -1 {
			t.Errorf("loop %d wrongly nested", i)
		}
	}
}

func TestBlockWeightMatchesPaperWeights(t *testing.T) {
	// a*b + c: one mul (2), one add (1) = 3; plus loads if arrays involved.
	f := ir.NewFunction("w")
	r0, r1, r2, r3, r4 := f.NewReg(""), f.NewReg(""), f.NewReg(""), f.NewReg(""), f.NewReg("")
	b := f.Block(f.Entry)
	arr := f.AddArray(ir.ArrayDecl{Name: "m", Len: 4})
	b.Instrs = []ir.Instr{
		{Op: ir.OpMul, Dst: r2, A: ir.Reg(r0), B: ir.Reg(r1)},
		{Op: ir.OpAdd, Dst: r3, A: ir.Reg(r2), B: ir.Imm(1)},
		{Op: ir.OpLoad, Dst: r4, A: ir.Imm(0), Arr: arr},
	}
	w := DefaultWeights()
	if got := BlockWeight(b, w); got != 2+1+1 {
		t.Fatalf("BlockWeight = %d, want 4", got)
	}
}

func TestAnalyzeKernelOrdering(t *testing.T) {
	f, freq := compileAndProfile(t, nestedLoopSrc, "work", interp.Int(8))
	r := Analyze(f, freq, DefaultWeights())
	if len(r.Kernels) == 0 {
		t.Fatal("no kernels found")
	}
	// Kernels must be inside loops and sorted by descending total weight.
	prev := int64(1 << 62)
	for _, id := range r.Kernels {
		b := r.Block(id)
		if !b.InLoop {
			t.Errorf("kernel b%d not in a loop", id)
		}
		if b.TotalWeight > prev {
			t.Errorf("kernel order violated at b%d (%d > %d)", id, b.TotalWeight, prev)
		}
		prev = b.TotalWeight
	}
	// The innermost body (freq 64) must rank first.
	top := r.Block(r.Kernels[0])
	if top.Freq != 64 {
		t.Errorf("top kernel freq = %d, want 64 (8x8 inner body)", top.Freq)
	}
	// Eq. 1 holds for every block.
	for _, b := range r.Blocks {
		if b.TotalWeight != int64(b.Freq)*b.OpWeight {
			t.Errorf("b%d: total %d != freq %d * weight %d", b.ID, b.TotalWeight, b.Freq, b.OpWeight)
		}
	}
}

func TestOrderKernelsStrategies(t *testing.T) {
	r := &Report{
		Func: "x",
		Blocks: []BlockInfo{
			{ID: 0, Freq: 100, OpWeight: 1, TotalWeight: 100, InLoop: true},
			{ID: 1, Freq: 10, OpWeight: 50, TotalWeight: 500, InLoop: true},
			{ID: 2, Freq: 1000, OpWeight: 0, TotalWeight: 0, InLoop: true},
			{ID: 3, Freq: 9999, OpWeight: 9999, TotalWeight: 99990001, InLoop: false},
		},
	}
	byTotal := OrderKernels(r, OrderByTotalWeight)
	if len(byTotal) != 2 || byTotal[0] != 1 || byTotal[1] != 0 {
		t.Fatalf("byTotal = %v, want [1 0]", byTotal)
	}
	byFreq := OrderKernels(r, OrderByFreq)
	if len(byFreq) != 2 || byFreq[0] != 0 || byFreq[1] != 1 {
		t.Fatalf("byFreq = %v, want [0 1]", byFreq)
	}
	byOp := OrderKernels(r, OrderByOpWeight)
	if len(byOp) != 2 || byOp[0] != 1 {
		t.Fatalf("byOp = %v, want [1 0]", byOp)
	}
}

func TestFormatTable(t *testing.T) {
	f, freq := compileAndProfile(t, nestedLoopSrc, "work", interp.Int(4))
	r := Analyze(f, freq, DefaultWeights())
	out := r.FormatTable(8)
	if !strings.Contains(out, "Total") || len(strings.Split(strings.TrimSpace(out), "\n")) < 3 {
		t.Fatalf("table malformed:\n%s", out)
	}
}

func TestAnalyzeZeroFreqBlocksAreNotKernels(t *testing.T) {
	// A loop that never executes must not produce kernels.
	src := `
int f(int n) {
    int s = 0;
    int i;
    for (i = 0; i < n; i++) { s += i; }
    return s;
}`
	f, freq := compileAndProfile(t, src, "f", interp.Int(0))
	r := Analyze(f, freq, DefaultWeights())
	for _, id := range r.Kernels {
		if r.Block(id).Freq == 0 {
			t.Errorf("zero-frequency block b%d reported as kernel", id)
		}
	}
}

func TestIrreducibleSafety(t *testing.T) {
	// Hand-built irreducible CFG (two entries into a cycle): the analysis
	// must terminate and not report bogus dominance.
	f := ir.NewFunction("irr")
	c := f.NewReg("")
	b0 := f.Block(f.Entry)
	b1 := f.AddBlock("a")
	b2 := f.AddBlock("b")
	b0.Instrs = []ir.Instr{{Op: ir.OpConst, Dst: c, A: ir.Imm(1)}}
	b0.Term = ir.Terminator{Kind: ir.TermBranch, Cond: ir.Reg(c), Then: b1.ID, Else: b2.ID}
	b1.Term = ir.Terminator{Kind: ir.TermJump, Then: b2.ID}
	b2.Term = ir.Terminator{Kind: ir.TermBranch, Cond: ir.Reg(c), Then: b1.ID, Else: b1.ID}
	dom := ComputeDominators(f)
	if dom.Dominates(b1.ID, b2.ID) && dom.Dominates(b2.ID, b1.ID) {
		t.Fatal("mutual dominance in irreducible CFG")
	}
	// Loop detection must also terminate.
	_ = FindLoops(f, dom)
}
