package interp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"hybridpart/internal/apps"
	"hybridpart/internal/ir"
	"hybridpart/internal/lower"
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

// The reference interpreter: the tree-walking loop that executed ir
// programs before the decoded form, kept verbatim as the oracle for the
// differential tests. It walks f.Blocks and Instrs directly, charges one
// step per block entry and per instruction, and counts edges straight into
// the profile's map. It shares the Machine's state (globals, profile,
// steps, limits), so the same accessors read either interpreter's results.

type refFrame struct {
	regs   []int32
	arrays [][]int32
}

// refRunContext is RunContext on the reference interpreter.
func (m *Machine) refRunContext(ctx context.Context, fn string, args ...Arg) (int32, error) {
	m.ctx = ctx
	m.limit = m.MaxSteps
	if ctx.Done() != nil {
		m.limit = min(m.MaxSteps, m.steps+pollSteps)
	}
	f := m.prog.Func(fn)
	if f == nil {
		return 0, fmt.Errorf("interp: function %q not found", fn)
	}
	if len(args) != len(f.Params) {
		return 0, fmt.Errorf("interp: %s takes %d arguments, got %d", fn, len(f.Params), len(args))
	}
	frame, err := m.refNewFrame(f, args)
	if err != nil {
		return 0, err
	}
	return m.refExec(f, frame)
}

func (m *Machine) refNewFrame(f *ir.Function, args []Arg) (*refFrame, error) {
	fr := &refFrame{
		regs:   make([]int32, f.NumRegs),
		arrays: make([][]int32, len(f.Arrays)),
	}
	// Local arrays own storage; parameter slots stay nil until bound.
	for i, a := range f.Arrays {
		if !a.IsParam {
			fr.arrays[i] = make([]int32, a.Len)
			copy(fr.arrays[i], a.Init)
		}
	}
	for i, p := range f.Params {
		a := args[i]
		if p.IsArray != a.IsArray {
			return nil, fmt.Errorf("interp: %s: argument %d array/scalar mismatch", f.Name, i+1)
		}
		if p.IsArray {
			fr.arrays[p.Arr] = a.Arr
		} else {
			fr.regs[p.Reg] = a.Scalar
		}
	}
	return fr, nil
}

func (m *Machine) refArrayStorage(fr *refFrame, id ir.ArrID) ([]int32, bool) {
	if ir.IsGlobalArr(id) {
		i := ir.GlobalIndex(id)
		if i < 0 || i >= len(m.globals) {
			return nil, false
		}
		return m.globals[i], true
	}
	if id >= 0 && int(id) < len(fr.arrays) {
		return fr.arrays[id], true
	}
	return nil, false
}

func (m *Machine) refExec(f *ir.Function, fr *refFrame) (int32, error) {
	m.depth++
	defer func() { m.depth-- }()
	maxDepth := m.MaxDepth
	if maxDepth <= 0 {
		maxDepth = 256
	}
	if m.depth > maxDepth {
		return 0, &Trap{Func: f.Name, Msg: "call depth limit exceeded"}
	}

	var counts []uint64
	var edges map[EdgeKey]uint64
	if m.profile != nil {
		counts = m.profile.Counts[f.Name]
		if len(counts) < len(f.Blocks) {
			grown := make([]uint64, len(f.Blocks))
			copy(grown, counts)
			counts = grown
			m.profile.Counts[f.Name] = counts
		}
		edges = m.profile.Edges[f.Name]
		if edges == nil {
			edges = map[EdgeKey]uint64{}
			m.profile.Edges[f.Name] = edges
		}
	}

	eval := func(o ir.Operand) int32 {
		if o.Kind == ir.OperandImm {
			return o.Imm
		}
		return fr.regs[o.Reg]
	}

	b := f.Block(f.Entry)
	for {
		// A block entry charges one step even when the block is empty, so
		// instruction-free infinite loops still hit the step limit.
		m.steps++
		if m.steps > m.limit {
			if err := m.pastLimit(f.Name, 0); err != nil {
				return 0, err
			}
		}
		if counts != nil {
			counts[b.ID]++
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			m.steps++
			if m.steps > m.limit {
				if err := m.pastLimit(f.Name, in.Pos); err != nil {
					return 0, err
				}
			}
			if m.profile != nil {
				m.profile.Instrs++
			}
			switch in.Op {
			case ir.OpConst:
				fr.regs[in.Dst] = in.A.Imm
			case ir.OpCopy:
				fr.regs[in.Dst] = eval(in.A)
			case ir.OpAdd:
				fr.regs[in.Dst] = eval(in.A) + eval(in.B)
			case ir.OpSub:
				fr.regs[in.Dst] = eval(in.A) - eval(in.B)
			case ir.OpNeg:
				fr.regs[in.Dst] = -eval(in.A)
			case ir.OpMul:
				fr.regs[in.Dst] = eval(in.A) * eval(in.B)
			case ir.OpDiv:
				x, y := eval(in.A), eval(in.B)
				if y == 0 {
					return 0, &Trap{Func: f.Name, Pos: in.Pos, Msg: "division by zero"}
				}
				if x == -1<<31 && y == -1 {
					return 0, &Trap{Func: f.Name, Pos: in.Pos, Msg: "division overflow"}
				}
				fr.regs[in.Dst] = x / y
			case ir.OpRem:
				x, y := eval(in.A), eval(in.B)
				if y == 0 {
					return 0, &Trap{Func: f.Name, Pos: in.Pos, Msg: "remainder by zero"}
				}
				if x == -1<<31 && y == -1 {
					return 0, &Trap{Func: f.Name, Pos: in.Pos, Msg: "remainder overflow"}
				}
				fr.regs[in.Dst] = x % y
			case ir.OpAnd:
				fr.regs[in.Dst] = eval(in.A) & eval(in.B)
			case ir.OpOr:
				fr.regs[in.Dst] = eval(in.A) | eval(in.B)
			case ir.OpXor:
				fr.regs[in.Dst] = eval(in.A) ^ eval(in.B)
			case ir.OpNot:
				fr.regs[in.Dst] = ^eval(in.A)
			case ir.OpShl:
				fr.regs[in.Dst] = eval(in.A) << (uint32(eval(in.B)) & 31)
			case ir.OpShr:
				fr.regs[in.Dst] = eval(in.A) >> (uint32(eval(in.B)) & 31)
			case ir.OpEq:
				fr.regs[in.Dst] = b2i(eval(in.A) == eval(in.B))
			case ir.OpNe:
				fr.regs[in.Dst] = b2i(eval(in.A) != eval(in.B))
			case ir.OpLt:
				fr.regs[in.Dst] = b2i(eval(in.A) < eval(in.B))
			case ir.OpLe:
				fr.regs[in.Dst] = b2i(eval(in.A) <= eval(in.B))
			case ir.OpGt:
				fr.regs[in.Dst] = b2i(eval(in.A) > eval(in.B))
			case ir.OpGe:
				fr.regs[in.Dst] = b2i(eval(in.A) >= eval(in.B))
			case ir.OpLNot:
				fr.regs[in.Dst] = b2i(eval(in.A) == 0)
			case ir.OpLoad:
				arr, ok := m.refArrayStorage(fr, in.Arr)
				if !ok {
					return 0, &Trap{Func: f.Name, Pos: in.Pos, Msg: "unresolved array"}
				}
				idx := eval(in.A)
				if idx < 0 || int(idx) >= len(arr) {
					return 0, &Trap{Func: f.Name, Pos: in.Pos,
						Msg: fmt.Sprintf("load index %d out of range [0,%d)", idx, len(arr))}
				}
				fr.regs[in.Dst] = arr[idx]
			case ir.OpStore:
				arr, ok := m.refArrayStorage(fr, in.Arr)
				if !ok {
					return 0, &Trap{Func: f.Name, Pos: in.Pos, Msg: "unresolved array"}
				}
				idx := eval(in.A)
				if idx < 0 || int(idx) >= len(arr) {
					return 0, &Trap{Func: f.Name, Pos: in.Pos,
						Msg: fmt.Sprintf("store index %d out of range [0,%d)", idx, len(arr))}
				}
				arr[idx] = eval(in.B)
			case ir.OpCall:
				callee := m.prog.Func(in.Callee)
				if callee == nil {
					return 0, &Trap{Func: f.Name, Pos: in.Pos, Msg: "call to undefined " + in.Callee}
				}
				args := make([]Arg, 0, len(callee.Params))
				si, ai := 0, 0
				for _, p := range callee.Params {
					if p.IsArray {
						store, ok := m.refArrayStorage(fr, in.ArrArgs[ai])
						if !ok {
							return 0, &Trap{Func: f.Name, Pos: in.Pos, Msg: "unresolved array argument"}
						}
						args = append(args, Array(store))
						ai++
					} else {
						args = append(args, Int(eval(in.Args[si])))
						si++
					}
				}
				sub, err := m.refNewFrame(callee, args)
				if err != nil {
					return 0, err
				}
				ret, err := m.refExec(callee, sub)
				if err != nil {
					return 0, err
				}
				if in.CallHasDst {
					fr.regs[in.Dst] = ret
				}
			default:
				return 0, &Trap{Func: f.Name, Pos: in.Pos, Msg: "invalid opcode"}
			}
		}
		switch b.Term.Kind {
		case ir.TermJump:
			if edges != nil {
				edges[Edge(b.ID, b.Term.Then)]++
			}
			b = f.Block(b.Term.Then)
		case ir.TermBranch:
			next := b.Term.Else
			if eval(b.Term.Cond) != 0 {
				next = b.Term.Then
			}
			if edges != nil {
				edges[Edge(b.ID, next)]++
			}
			b = f.Block(next)
		case ir.TermReturn:
			if b.Term.HasVal {
				return eval(b.Term.Val), nil
			}
			return 0, nil
		default:
			return 0, &Trap{Func: f.Name, Msg: "unterminated block"}
		}
	}
}

// diffCase is one differential run: calls of fn on a fresh machine, with
// input preloaded into a global array first.
type diffCase struct {
	name     string
	prog     *ir.Program
	fn       string
	args     [][]Arg // one argument list per call
	input    string
	vals     []int32
	maxSteps uint64 // 0 keeps the machine default
	maxDepth int
	ctx      context.Context // of every call; nil: context.Background()
}

// observed is everything a differential case's calls leave behind.
type observed struct {
	Rets    []int32
	Traps   []Trap
	Errs    []string
	Steps   uint64
	Globals [][]int32
	Counts  map[string][]uint64
	Edges   map[string]map[EdgeKey]uint64
	Instrs  uint64
}

// observe runs c on a fresh machine through run, profiled or not.
func observe(c diffCase, profiled bool, run func(*Machine, context.Context, string, ...Arg) (int32, error)) observed {
	m := New(c.prog)
	if c.maxSteps != 0 {
		m.MaxSteps = c.maxSteps
	}
	if c.maxDepth != 0 {
		m.MaxDepth = c.maxDepth
	}
	if c.input != "" {
		copy(m.Global(c.input), c.vals)
	}
	var prof *Profile
	if profiled {
		prof = m.EnableProfile()
	}
	var o observed
	calls := c.args
	if calls == nil {
		calls = [][]Arg{nil}
	}
	for _, args := range calls {
		ctx := c.ctx
		if ctx == nil {
			ctx = context.Background()
		}
		ret, err := run(m, ctx, c.fn, args...)
		o.Rets = append(o.Rets, ret)
		var trap *Trap
		switch {
		case errors.As(err, &trap):
			o.Traps = append(o.Traps, *trap)
		case err != nil:
			o.Errs = append(o.Errs, err.Error())
		}
	}
	o.Steps = m.Steps()
	o.Globals = m.globals
	if prof != nil {
		o.Counts, o.Edges, o.Instrs = prof.Counts, prof.Edges, prof.Instrs
	}
	return o
}

// checkSame runs c on both interpreters, with and without a profile, and
// fails on any observable difference. It returns the profiled observation.
func checkSame(t testing.TB, c diffCase) observed {
	t.Helper()
	var out observed
	for _, profiled := range []bool{true, false} {
		got := observe(c, profiled, (*Machine).RunContext)
		want := observe(c, profiled, (*Machine).refRunContext)
		for _, d := range diffObserved(got, want) {
			t.Errorf("%s (profiled %v): %s", c.name, profiled, d)
		}
		if profiled {
			out = got
		}
	}
	return out
}

// diffObserved lists the fields on which got and want differ.
func diffObserved(got, want observed) []string {
	var out []string
	field := func(name string, g, w any) {
		if !reflect.DeepEqual(g, w) {
			s := fmt.Sprintf("%s differ:\n got %v\nwant %v", name, g, w)
			if len(s) > 600 {
				s = fmt.Sprintf("%s differ", name)
			}
			out = append(out, s)
		}
	}
	field("return values", got.Rets, want.Rets)
	field("traps", got.Traps, want.Traps)
	field("errors", got.Errs, want.Errs)
	field("Steps()", got.Steps, want.Steps)
	field("globals", got.Globals, want.Globals)
	field("Counts", got.Counts, want.Counts)
	field("Edges", got.Edges, want.Edges)
	field("Instrs", got.Instrs, want.Instrs)
	return out
}

// compile lowers src and returns the program as lowered (calls intact) and
// the single-function program of entry flattened, the form the
// partitioner profiles.
func compile(t testing.TB, src, entry string) (prog, flat *ir.Program) {
	t.Helper()
	prog, err := lower.LowerSource(src)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	f, err := lower.Flatten(prog, entry)
	if err != nil {
		t.Fatalf("flatten: %v", err)
	}
	flat = ir.NewProgram()
	flat.Globals = prog.Globals
	if err := flat.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	return prog, flat
}

// firSrc is a 16-tap FIR filter: a nested loop over a global input array,
// filled by a called helper.
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
    int k;
    prep();
    for (n = 16; n < N; n++) {
        int acc = 0;
        for (k = 0; k < 16; k++) { acc += TAPS[k] * INPUT[n - k]; }
        OUTPUT[n] = acc >> 6;
    }
    return OUTPUT[N - 1];
}
`

// TestDecodedMatchesReferenceBenchmarks runs the paper's benchmarks and
// the FIR fixture, both as lowered (with calls) and flattened, on the
// decoded interpreter and the reference; everything observable must agree.
func TestDecodedMatchesReferenceBenchmarks(t *testing.T) {
	jsrc, err := apps.JPEGSource()
	if err != nil {
		t.Fatal(err)
	}
	benches := []struct {
		name, src, entry, input string
		vals                    []int32
		runs                    int
	}{
		{"ofdm", apps.OFDMSource(), apps.OFDMEntry, apps.OFDMBitsArray, apps.GenBits(apps.OFDMTotalBits, 1), 2},
		{"jpeg", jsrc, apps.JPEGEntry, apps.JPEGImageArray, apps.GenImage(1), 1},
		{"fir", firSrc, "main_fn", "", nil, 2},
	}
	for _, b := range benches {
		if b.name == "jpeg" && testing.Short() {
			continue
		}
		prog, flat := compile(t, b.src, b.entry)
		for _, form := range []struct {
			name string
			prog *ir.Program
		}{{"lowered", prog}, {"flat", flat}} {
			c := diffCase{name: b.name + "/" + form.name, prog: form.prog, fn: b.entry,
				args: make([][]Arg, b.runs), input: b.input, vals: b.vals}
			o := checkSame(t, c)
			if o.Instrs == 0 || len(o.Traps)+len(o.Errs) > 0 {
				t.Errorf("%s: %d instructions, traps %v, errors %v", c.name, o.Instrs, o.Traps, o.Errs)
			}
		}
	}
}

// trapProgram builds t(x, y) around one instruction under test: a block of
// first and an add, the instruction (source line 3), next and a xor, then a
// jump to a return. instr may read x and y, write dst, and address the
// local array L[4] or the global array G[2]. An instruction that traps on
// the block's fast path leaves two charged instructions to refund. first
// and next choose the fused pairs around the instruction: with two adds it
// is the first op of a pair with next, with a xor first the second op of a
// pair with the add before it.
func trapProgram(t testing.TB, first ir.Op, instr func(x, y, dst ir.RegID, l, g ir.ArrID) ir.Instr, next ir.Op) *ir.Program {
	t.Helper()
	p := ir.NewProgram()
	g := p.AddGlobal(ir.ArrayDecl{Name: "G", Len: 2, Init: []int32{5, 6}})
	f := ir.NewFunction("t")
	x, y := f.NewReg("x"), f.NewReg("y")
	f.Params = []ir.Param{{Name: "x", Reg: x, Arr: ir.NoArr}, {Name: "y", Reg: y, Arr: ir.NoArr}}
	f.HasRet = true
	l := f.AddArray(ir.ArrayDecl{Name: "L", Len: 4, Init: []int32{1, 2, 3, 4}})
	acc, dst := f.NewReg(""), f.NewReg("")
	in := instr(x, y, dst, l, g)
	in.Pos = 3
	ret := f.AddBlock("ret")
	entry := f.Block(f.Entry)
	entry.Instrs = []ir.Instr{
		{Op: first, Dst: acc, A: ir.Reg(x), B: ir.Imm(1), Pos: 1},
		{Op: ir.OpAdd, Dst: acc, A: ir.Reg(acc), B: ir.Reg(y), Pos: 2},
		in,
		{Op: next, Dst: acc, A: ir.Reg(acc), B: ir.Imm(7), Pos: 4},
		{Op: ir.OpXor, Dst: acc, A: ir.Reg(acc), B: ir.Reg(dst), Pos: 5},
	}
	entry.Term = ir.Terminator{Kind: ir.TermJump, Then: ret.ID}
	ret.Term = ir.Terminator{Kind: ir.TermReturn, Val: ir.Reg(acc), HasVal: true}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	return p
}

// calls builds one argument list per (x, y) pair.
func calls(xy ...int32) [][]Arg {
	var out [][]Arg
	for i := 0; i+1 < len(xy); i += 2 {
		out = append(out, []Arg{Int(xy[i]), Int(xy[i+1])})
	}
	return out
}

// trapCases are hand-built programs that trap (and calls that do not) on
// every check the interpreter makes.
func trapCases(t testing.TB) []diffCase {
	const minInt = math.MinInt32
	binary := func(op ir.Op, b ir.Operand) func(x, y, dst ir.RegID, l, g ir.ArrID) ir.Instr {
		return func(x, y, dst ir.RegID, _, _ ir.ArrID) ir.Instr {
			if b.Kind == ir.OperandNone {
				b = ir.Reg(y)
			}
			return ir.Instr{Op: op, Dst: dst, A: ir.Reg(x), B: b}
		}
	}
	load := func(arr func(l, g ir.ArrID) ir.ArrID) func(x, y, dst ir.RegID, l, g ir.ArrID) ir.Instr {
		return func(x, _, dst ir.RegID, l, g ir.ArrID) ir.Instr {
			return ir.Instr{Op: ir.OpLoad, Dst: dst, A: ir.Reg(x), Arr: arr(l, g)}
		}
	}
	store := func(arr func(l, g ir.ArrID) ir.ArrID) func(x, y, dst ir.RegID, l, g ir.ArrID) ir.Instr {
		return func(x, y, _ ir.RegID, l, g ir.ArrID) ir.Instr {
			return ir.Instr{Op: ir.OpStore, A: ir.Reg(x), B: ir.Reg(y), Arr: arr(l, g)}
		}
	}
	local := func(l, _ ir.ArrID) ir.ArrID { return l }
	global := func(_, g ir.ArrID) ir.ArrID { return g }
	cases := []struct {
		name  string
		instr func(x, y, dst ir.RegID, l, g ir.ArrID) ir.Instr
		args  [][]Arg
	}{
		{"div", binary(ir.OpDiv, ir.Operand{}), calls(7, 2, 7, 0, minInt, -1, minInt, 1, -7, 2)},
		{"div-imm-zero", binary(ir.OpDiv, ir.Imm(0)), calls(1, 1)},
		{"rem", binary(ir.OpRem, ir.Operand{}), calls(7, 2, 7, 0, minInt, -1, minInt, 3, -7, 2)},
		{"rem-imm-minus-one", binary(ir.OpRem, ir.Imm(-1)), calls(minInt, 0, 5, 0)},
		{"shift", binary(ir.OpShl, ir.Operand{}), calls(1, 33, -1, -1)},
		{"load-local", load(local), calls(3, 0, 4, 0, -1, 0, minInt, 0, 0, 0)},
		{"load-global", load(global), calls(1, 0, 2, 0, -5, 0)},
		{"store-local", store(local), calls(0, 9, 4, 1, -1, 1, 3, 8)},
		{"store-global", store(global), calls(1, 9, 2, 1, -2, 1)},
		{"unresolved-local", load(func(_, _ ir.ArrID) ir.ArrID { return 5 }), calls(0, 0)},
		{"unresolved-global", store(func(_, _ ir.ArrID) ir.ArrID { return ir.GlobalArr(3) }), calls(0, 0)},
		{"unresolved-none", load(func(_, _ ir.ArrID) ir.ArrID { return ir.NoArr }), calls(0, 0)},
		{"invalid-opcode", func(_, _, _ ir.RegID, _, _ ir.ArrID) ir.Instr { return ir.Instr{Op: ir.OpInvalid} }, calls(0, 0)},
		{"call-undefined", func(_, _, _ ir.RegID, _, _ ir.ArrID) ir.Instr {
			return ir.Instr{Op: ir.OpCall, Callee: "nope"}
		}, calls(0, 0)},
	}
	var out []diffCase
	for _, c := range cases {
		out = append(out, diffCase{name: c.name, prog: trapProgram(t, ir.OpAdd, c.instr, ir.OpAdd), fn: "t", args: c.args})
	}
	// The out-of-range load as either half of a fused pair on the fast path
	// (load-local above is the first op of a load+add pair): the second op
	// of an add+load pair behind a xor, and the first op of a load+mul pair.
	loads := calls(3, 0, 4, 0, -1, 0)
	out = append(out,
		diffCase{name: "add-load", prog: trapProgram(t, ir.OpXor, load(local), ir.OpAdd), fn: "t", args: loads},
		diffCase{name: "load-mul", prog: trapProgram(t, ir.OpAdd, load(local), ir.OpMul), fn: "t", args: loads})

	// A branch whose two targets are one block: both slots fold into one
	// edge, and the else side is taken on x == 0.
	p := ir.NewProgram()
	f := ir.NewFunction("same")
	x := f.NewReg("x")
	f.Params = []ir.Param{{Name: "x", Reg: x, Arr: ir.NoArr}}
	next := f.AddBlock("next")
	f.Block(f.Entry).Term = ir.Terminator{Kind: ir.TermBranch, Cond: ir.Reg(x), Then: next.ID, Else: next.ID}
	next.Term = ir.Terminator{Kind: ir.TermReturn}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	out = append(out, diffCase{name: "then-equals-else", prog: p, fn: "same",
		args: [][]Arg{{Int(0)}, {Int(1)}, {Int(0)}}})

	// Unbounded recursion traps at the call depth limit, in the callee.
	p = ir.NewProgram()
	f = ir.NewFunction("r")
	f.HasRet = true
	dst := f.NewReg("")
	b := f.Block(f.Entry)
	b.Instrs = []ir.Instr{
		{Op: ir.OpAdd, Dst: dst, A: ir.Imm(1), B: ir.Imm(2), Pos: 7},
		{Op: ir.OpCall, Callee: "r", CallHasDst: true, Dst: dst, Pos: 8},
		{Op: ir.OpAdd, Dst: dst, A: ir.Reg(dst), B: ir.Imm(2), Pos: 9},
	}
	b.Term = ir.Terminator{Kind: ir.TermReturn, Val: ir.Reg(dst), HasVal: true}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	out = append(out, diffCase{name: "call-depth", prog: p, fn: "r", maxDepth: 50, args: make([][]Arg, 2)})

	// A loop whose Branch block ends in the compare that writes its
	// condition, which the fast path folds into the terminator, just behind
	// an add+load pair whose load traps once i passes L's end (a trap that
	// refunds the folded compare). The exit block reads the compare's result
	// after the branch it fed.
	p = ir.NewProgram()
	f = ir.NewFunction("fold")
	n := f.NewReg("n")
	f.Params = []ir.Param{{Name: "n", Reg: n, Arr: ir.NoArr}}
	f.HasRet = true
	l := f.AddArray(ir.ArrayDecl{Name: "L", Len: 4, Init: []int32{1, 2, 3, 4}})
	i, v, cond, r := f.NewReg("i"), f.NewReg("v"), f.NewReg("c"), f.NewReg("")
	loop, exit := f.AddBlock("loop"), f.AddBlock("exit")
	f.Block(f.Entry).Term = ir.Terminator{Kind: ir.TermJump, Then: loop.ID}
	loop.Instrs = []ir.Instr{
		{Op: ir.OpAdd, Dst: i, A: ir.Reg(i), B: ir.Imm(1), Pos: 11},
		{Op: ir.OpLoad, Dst: v, A: ir.Reg(i), Arr: l, Pos: 12},
		{Op: ir.OpGe, Dst: cond, A: ir.Reg(i), B: ir.Reg(n), Pos: 13},
	}
	loop.Term = ir.Terminator{Kind: ir.TermBranch, Cond: ir.Reg(cond), Then: exit.ID, Else: loop.ID}
	exit.Instrs = []ir.Instr{{Op: ir.OpShl, Dst: r, A: ir.Reg(v), B: ir.Reg(cond), Pos: 14}}
	exit.Term = ir.Terminator{Kind: ir.TermReturn, Val: ir.Reg(r), HasVal: true}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	out = append(out, diffCase{name: "folded-compare", prog: p, fn: "fold",
		args: [][]Arg{{Int(3)}, {Int(0)}, {Int(5)}}})

	// An unterminated block traps after its instructions run.
	p = ir.NewProgram()
	f = ir.NewFunction("u")
	dst = f.NewReg("")
	f.Block(f.Entry).Instrs = []ir.Instr{{Op: ir.OpConst, Dst: dst, A: ir.Imm(4)}}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	out = append(out, diffCase{name: "unterminated", prog: p, fn: "u"})
	return out
}

// TestDecodedMatchesReferenceTraps: every trap carries the reference's
// Func, Pos and Msg, and leaves the same steps, counts, edges, instruction
// count and globals, including a trap raised mid-block on the fast path.
func TestDecodedMatchesReferenceTraps(t *testing.T) {
	// The fused-pair cases must decode to the pairs they are named for: the
	// fast codes of t's entry block.
	fused := map[string][]ir.Op{
		"load-local": {opAddAdd, ir.OpAdd, opLoadAdd, ir.OpAdd, ir.OpXor},
		"add-load":   {ir.OpXor, opAddLoad, ir.OpLoad, ir.OpAdd, ir.OpXor},
		"load-mul":   {opAddAdd, ir.OpAdd, opLoadMul, ir.OpMul, ir.OpXor},
	}
	for _, c := range trapCases(t) {
		o := checkSame(t, c)
		if c.name != "shift" && c.name != "then-equals-else" && len(o.Traps) == 0 {
			t.Errorf("%s: no call trapped", c.name)
		}
		if c.name == "folded-compare" {
			code := New(c.prog).decode(c.prog.Func(c.fn))
			b := code.blocks[1]
			var got []ir.Op
			for _, o := range code.fast[b.start:b.fastEnd] {
				got = append(got, o.code)
			}
			if want := []ir.Op{opAddLoad, ir.OpLoad}; !slices.Equal(got, want) || b.fastEnd != b.end-1 || b.fastTerm != termGe {
				t.Errorf("%s: fast codes %v up to op %d of %d, terminator %d; want %v, the compare folded into termGe",
					c.name, got, b.fastEnd-b.start, b.end-b.start, b.fastTerm, want)
			}
		}
		if want, ok := fused[c.name]; ok {
			code := New(c.prog).decode(c.prog.Func(c.fn))
			b := code.blocks[c.prog.Func(c.fn).Entry]
			var got []ir.Op
			for _, o := range code.fast[b.start:b.end] {
				got = append(got, o.code)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s: fast codes %v, want %v", c.name, got, want)
			}
		}
	}
}

// TestDecodedMatchesReferenceStepLimits sweeps MaxSteps over every value up
// to past the end of a run, so the step limit falls on each block entry and
// each instruction of multi-instruction blocks (and on the steps around a
// mid-block trap, in either half of a fused pair, and on a compare folded
// into its Branch terminator and its refund); the trap step and Pos
// must match the reference at every value. It also covers the context poll
// path around a poll boundary and an instruction-free loop stopped by its
// limit and by a cancelled context.
func TestDecodedMatchesReferenceStepLimits(t *testing.T) {
	sweep := func(name string, prog *ir.Program, fn string, args [][]Arg) {
		total := checkSame(t, diffCase{name: name, prog: prog, fn: fn, args: args}).Steps
		if total < 8 {
			t.Fatalf("%s: only %d steps", name, total)
		}
		for ms := uint64(1); ms <= total+1; ms++ {
			checkSame(t, diffCase{name: fmt.Sprintf("%s/MaxSteps=%d", name, ms), prog: prog, fn: fn, args: args, maxSteps: ms})
		}
	}
	sweep("countdown", buildCountdown(), "f", [][]Arg{{Int(3)}})
	for _, c := range trapCases(t) {
		switch c.name {
		case "div", "store-local", "load-local", "add-load", "load-mul", "folded-compare":
			sweep(c.name, c.prog, c.fn, c.args)
		}
	}

	live, stop := context.WithCancel(context.Background())
	defer stop()
	for ms := uint64(2*pollSteps - 8); ms <= 2*pollSteps+8; ms++ {
		checkSame(t, diffCase{name: fmt.Sprintf("countdown-polled/MaxSteps=%d", ms), prog: buildCountdown(), fn: "f",
			args: [][]Arg{{Int(40000)}}, maxSteps: ms, ctx: live})
	}
	checkSame(t, diffCase{name: "countdown-polled", prog: buildCountdown(), fn: "f",
		args: [][]Arg{{Int(40000)}, {Int(5)}}, ctx: live})

	spin := spinProgram(t)
	checkSame(t, diffCase{name: "spin", prog: spin, fn: "spin", maxSteps: 1000, args: make([][]Arg, 2)})
	checkSame(t, diffCase{name: "spin-polled", prog: spin, fn: "spin", maxSteps: pollSteps + 3, ctx: live})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	o := checkSame(t, diffCase{name: "spin-cancelled", prog: spin, fn: "spin",
		ctx: cancelled})
	if len(o.Errs) != 1 {
		t.Errorf("cancelled spin: errors %v", o.Errs)
	}
}

// TestFusedDispatchesJPEG pins how much the fast path's pair fusion and
// compare folding save on the profiled run of flattened JPEG. The dispatch
// count is computed from the decoded fast array and the block counts, not
// counted at run time: a block on the fast path dispatches once per plain op
// and once per fused pair up to its fast-path end, and a compare folded into
// the terminator is part of the terminator. The run holds no call and stays
// far below the step limit, so every block takes the fast path. A decoder
// change that stops fusing or folding fails here.
func TestFusedDispatchesJPEG(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles the JPEG benchmark")
	}
	const (
		wantInstrs    = 9849492
		maxDispatches = 5975257
	)
	jsrc, err := apps.JPEGSource()
	if err != nil {
		t.Fatal(err)
	}
	_, flat := compile(t, jsrc, apps.JPEGEntry)
	m := New(flat)
	copy(m.Global(apps.JPEGImageArray), apps.GenImage(1))
	prof := m.EnableProfile()
	if _, err := m.Run(apps.JPEGEntry); err != nil {
		t.Fatal(err)
	}
	c := m.decode(flat.Func(apps.JPEGEntry))
	counts := prof.Counts[apps.JPEGEntry]
	var instrs, dispatches uint64
	for bi, b := range c.blocks {
		if b.charge == callCharge {
			t.Fatalf("block %d of flattened JPEG holds a call", bi)
		}
		n := uint64(0)
		for pc := b.start; pc < b.fastEnd; pc++ {
			if c.fast[pc].code != c.ops[pc].code {
				pc++
			}
			n++
		}
		instrs += counts[bi] * uint64(b.end-b.start)
		dispatches += counts[bi] * n
	}
	if instrs != prof.Instrs || instrs != wantInstrs {
		t.Fatalf("block counts give %d instructions, profile %d, want %d", instrs, prof.Instrs, wantInstrs)
	}
	t.Logf("%d dispatches for %d instructions (%.1f%% fewer)", dispatches, instrs, 100*(1-float64(dispatches)/float64(instrs)))
	if dispatches > maxDispatches {
		t.Errorf("%d dispatches, want at most %d", dispatches, maxDispatches)
	}
}

// TestDecodeFoldsJPEGBranches: decode folds the compare of every Branch
// block of flattened JPEG into its terminator, and folds none of the call
// blocks of JPEG as lowered, which never run on the fast path.
func TestDecodeFoldsJPEGBranches(t *testing.T) {
	jsrc, err := apps.JPEGSource()
	if err != nil {
		t.Fatal(err)
	}
	prog, flat := compile(t, jsrc, apps.JPEGEntry)
	c := New(flat).decode(flat.Func(apps.JPEGEntry))
	branches := 0
	for bi, b := range c.blocks {
		if b.term != ir.TermBranch {
			continue
		}
		branches++
		if b.fastTerm == ir.TermBranch || b.fastEnd != b.end-1 {
			t.Errorf("flattened JPEG: Branch block %d not folded (ops %d, fast-path end %d)", bi, b.end-b.start, b.fastEnd-b.start)
		}
	}
	m := New(prog)
	callBlocks := 0
	for _, f := range prog.Funcs {
		for bi, b := range m.decode(f).blocks {
			if b.charge != callCharge {
				continue
			}
			callBlocks++
			if b.fastTerm != b.term || b.fastEnd != b.end {
				t.Errorf("lowered JPEG: call block %d of %s folded", bi, f.Name)
			}
		}
	}
	if branches == 0 || callBlocks == 0 {
		t.Fatalf("%d Branch blocks flattened, %d call blocks lowered", branches, callBlocks)
	}
	t.Logf("%d Branch blocks folded; %d call blocks left plain", branches, callBlocks)
}
