package interp

import (
	"context"
	"errors"
	"testing"
	"time"

	"hybridpart/internal/ir"
)

// buildCountdown builds: f(n) { while (n > 0) { g[0] = g[0] + n; n-- } return g[0] }
func buildCountdown() *ir.Program {
	p := ir.NewProgram()
	g := p.AddGlobal(ir.ArrayDecl{Name: "g", Len: 4, Init: []int32{100}})
	f := ir.NewFunction("f")
	n := f.NewReg("n")
	f.Params = []ir.Param{{Name: "n", Reg: n, Arr: ir.NoArr}}
	f.HasRet = true
	cond := f.NewReg("")
	tmp := f.NewReg("")

	entry := f.Block(f.Entry)
	loop := f.AddBlock("loop")
	exit := f.AddBlock("exit")

	entry.Term = ir.Terminator{Kind: ir.TermJump, Then: loop.ID}
	loop.Instrs = []ir.Instr{
		{Op: ir.OpGt, Dst: cond, A: ir.Reg(n), B: ir.Imm(0)},
	}
	body := f.AddBlock("body")
	loop.Term = ir.Terminator{Kind: ir.TermBranch, Cond: ir.Reg(cond), Then: body.ID, Else: exit.ID}
	body.Instrs = []ir.Instr{
		{Op: ir.OpLoad, Dst: tmp, A: ir.Imm(0), Arr: g},
		{Op: ir.OpAdd, Dst: tmp, A: ir.Reg(tmp), B: ir.Reg(n)},
		{Op: ir.OpStore, A: ir.Imm(0), B: ir.Reg(tmp), Arr: g},
		{Op: ir.OpSub, Dst: n, A: ir.Reg(n), B: ir.Imm(1)},
	}
	body.Term = ir.Terminator{Kind: ir.TermJump, Then: loop.ID}
	exit.Instrs = []ir.Instr{{Op: ir.OpLoad, Dst: tmp, A: ir.Imm(0), Arr: g}}
	exit.Term = ir.Terminator{Kind: ir.TermReturn, Val: ir.Reg(tmp), HasVal: true}
	if err := p.AddFunc(f); err != nil {
		panic(err)
	}
	return p
}

func TestGlobalsPersistAcrossRuns(t *testing.T) {
	p := buildCountdown()
	m := New(p)
	v, err := m.Run("f", Int(4))
	if err != nil {
		t.Fatal(err)
	}
	if v != 100+10 {
		t.Fatalf("first run = %d, want 110", v)
	}
	// Globals persist: second run accumulates on top.
	v, err = m.Run("f", Int(4))
	if err != nil {
		t.Fatal(err)
	}
	if v != 110+10 {
		t.Fatalf("second run = %d, want 120", v)
	}
	// ResetGlobals restores the declared initial value.
	m.ResetGlobals()
	v, err = m.Run("f", Int(4))
	if err != nil {
		t.Fatal(err)
	}
	if v != 110 {
		t.Fatalf("after reset = %d, want 110", v)
	}
}

func TestEdgeProfile(t *testing.T) {
	p := buildCountdown()
	m := New(p)
	prof := m.EnableProfile()
	if _, err := m.Run("f", Int(5)); err != nil {
		t.Fatal(err)
	}
	f := p.Func("f")
	// The back edge body->loop is taken exactly 5 times.
	var loopID, bodyID ir.BlockID = -1, -1
	for _, b := range f.Blocks {
		switch b.Name {
		case "loop":
			loopID = b.ID
		case "body":
			bodyID = b.ID
		}
	}
	if got := prof.EdgeCount("f", bodyID, loopID); got != 5 {
		t.Fatalf("back edge count = %d, want 5", got)
	}
	// loop executed 6 times (5 taken + 1 exit).
	if got := prof.BlockCount("f", loopID); got != 6 {
		t.Fatalf("loop count = %d, want 6", got)
	}
	// Edge key round-trip.
	k := Edge(bodyID, loopID)
	if k.From() != bodyID || k.To() != loopID {
		t.Fatalf("edge key round-trip broken: %v", k)
	}
}

func TestArgumentMismatch(t *testing.T) {
	p := buildCountdown()
	m := New(p)
	if _, err := m.Run("f"); err == nil {
		t.Fatal("missing argument accepted")
	}
	if _, err := m.Run("f", Array([]int32{1})); err == nil {
		t.Fatal("array for scalar parameter accepted")
	}
	if _, err := m.Run("nope"); err == nil {
		t.Fatal("unknown function accepted")
	}
}

func TestCallDepthLimit(t *testing.T) {
	// Direct recursion via hand-built IR (the frontend rejects it, the
	// interpreter must trap rather than overflow).
	p := ir.NewProgram()
	f := ir.NewFunction("r")
	f.HasRet = true
	dst := f.NewReg("")
	b := f.Block(f.Entry)
	b.Instrs = []ir.Instr{{Op: ir.OpCall, Callee: "r", CallHasDst: true, Dst: dst}}
	b.Term = ir.Terminator{Kind: ir.TermReturn, Val: ir.Reg(dst), HasVal: true}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	m := New(p)
	m.MaxDepth = 50
	if _, err := m.Run("r"); err == nil {
		t.Fatal("unbounded recursion did not trap")
	}
}

func TestStepsAccounting(t *testing.T) {
	p := buildCountdown()
	m := New(p)
	if _, err := m.Run("f", Int(3)); err != nil {
		t.Fatal(err)
	}
	if m.Steps() == 0 {
		t.Fatal("no steps recorded")
	}
}

// spinProgram builds spin() { while (1); }: an instruction-free loop block
// that only the step limit or a context can stop.
func spinProgram(t *testing.T) *ir.Program {
	t.Helper()
	p := ir.NewProgram()
	f := ir.NewFunction("spin")
	loop := f.AddBlock("loop")
	f.Block(f.Entry).Term = ir.Terminator{Kind: ir.TermJump, Then: loop.ID}
	loop.Term = ir.Terminator{Kind: ir.TermJump, Then: loop.ID}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRunContextStopsRunaway: a cancelled or expired context stops an
// endless loop within one poll interval, long before the step limit, and
// a live context changes nothing.
func TestRunContextStopsRunaway(t *testing.T) {
	p := spinProgram(t)

	m := New(p)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.RunContext(ctx, "spin"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	if m.Steps() > pollSteps+1 {
		t.Fatalf("cancelled run took %d steps, want at most one poll interval (%d)", m.Steps(), pollSteps)
	}

	m = New(p)
	ctx, cancel = context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := m.RunContext(ctx, "spin"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired run returned %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("expired run stopped after %v", d)
	}
	if m.Steps() >= m.MaxSteps {
		t.Fatalf("run hit the step limit (%d steps) instead of the deadline", m.Steps())
	}

	// The step limit still traps under a live context, at the same step.
	m = New(p)
	m.MaxSteps = 3*pollSteps + 5
	_, err := m.RunContext(context.Background(), "spin")
	var trap *Trap
	if !errors.As(err, &trap) || m.Steps() != m.MaxSteps+1 {
		t.Fatalf("step limit under a context: err %v after %d steps", err, m.Steps())
	}
	withCtx := New(p)
	withCtx.MaxSteps = m.MaxSteps
	live, stop := context.WithCancel(context.Background())
	defer stop()
	if _, err := withCtx.RunContext(live, "spin"); !errors.As(err, &trap) || withCtx.Steps() != m.Steps() {
		t.Fatalf("step limit under a cancellable context: err %v after %d steps, want trap after %d", err, withCtx.Steps(), m.Steps())
	}
}

func TestTrapCarriesContext(t *testing.T) {
	p := ir.NewProgram()
	f := ir.NewFunction("t")
	f.HasRet = true
	g := f.AddArray(ir.ArrayDecl{Name: "a", Len: 2})
	dst := f.NewReg("")
	b := f.Block(f.Entry)
	b.Instrs = []ir.Instr{{Op: ir.OpLoad, Dst: dst, A: ir.Imm(99), Arr: g, Pos: 42}}
	b.Term = ir.Terminator{Kind: ir.TermReturn, Val: ir.Reg(dst), HasVal: true}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	_, err := New(p).Run("t")
	trap, ok := err.(*Trap)
	if !ok {
		t.Fatalf("error %T, want *Trap", err)
	}
	if trap.Func != "t" || trap.Pos != 42 {
		t.Fatalf("trap context wrong: %+v", trap)
	}
}
